"""Randomized search for counterexamples to the theorem-shaped claims.

Forms are generated valid by construction: fibres are down-set lattices of
small random posets, so a random monotone assignment on the poset points
induces a genuinely join-preserving push map, and the pull map is derived
as its upper adjoint (B goes to the join of everything pushed below B).
Orders are random seed pairs closed under the axioms (and the meet/join
stability laws when a claim needs that class) to a fixpoint.

Every generated case is reproducible from (seed, index) alone, so a search
splits its cases over the CPUs the process may use (:func:`run_search`) and
reports the same counterexamples whatever the split.
"""

from __future__ import annotations

import contextlib
import marshal
import os
import random
import signal
import threading
from itertools import chain
from typing import BinaryIO, Iterable, NoReturn, Optional

from .checks import CHECKS, CheckContext
from .forms import CategoryPresentation, FormInstance
from .lattice import FiniteLattice, bits, columns, upper_adjoint
from .topogenous import TopogenousOrder

MAX_POSET_POINTS = 3
MAX_FIBRE = 6


# -- random lattices ----------------------------------------------------------


def _random_poset(rng: random.Random) -> list[int]:
    """A poset on up to MAX_POSET_POINTS points as strict down-sets per
    point; indices form a linear extension (edges only point downward).
    Resamples until the down-set lattice fits in MAX_FIBRE elements."""
    while True:
        k = rng.randint(0, MAX_POSET_POINTS)
        below = [0] * k
        for j in range(k):
            for i in range(j):
                if rng.random() < 0.4:
                    below[j] |= (1 << i) | below[i]
        if _downset_lattice(below)[0].size <= MAX_FIBRE:
            return below


_LATTICES: dict[tuple[int, ...], tuple[FiniteLattice, tuple[int, ...], dict[int, int]]] = {}


def _downset_lattice(below: list[int]) -> tuple[FiniteLattice, tuple[int, ...], dict[int, int]]:
    """The down-sets of the poset as masks in increasing order (a linear
    extension of inclusion), their lattice, and the index of each mask.
    Memoised per poset: with at most MAX_POSET_POINTS points, indexed in a
    linear extension, eleven posets exist, and the lattice is immutable. Callers
    must not change the returned dict."""
    key = tuple(below)
    out = _LATTICES.get(key)
    if out is None:
        k = len(below)
        masks = tuple(
            s for s in range(1 << k)
            if all(below[j] & ~s == 0 for j in range(k) if (s >> j) & 1)
        )
        up = [sum(1 << j for j, m2 in enumerate(masks) if m1 & ~m2 == 0) for m1 in masks]
        out = _LATTICES[key] = (FiniteLattice.from_up_masks(up), masks, {m: i for i, m in enumerate(masks)})
    return out


def _random_left_adjoint(
    rng: random.Random,
    below_src: list[int],
    src: tuple[FiniteLattice, tuple[int, ...], dict[int, int]],
    tgt: tuple[FiniteLattice, tuple[int, ...], dict[int, int]],
) -> tuple[int, ...]:
    """The table of a join-preserving map out of a down-set lattice: choose
    a monotone image for each poset point, then push a down-set to the
    union of its points' images."""
    _, src_masks, _ = src
    _, tgt_masks, tgt_idx = tgt
    k = len(below_src)
    point_img = [0] * k
    for j in range(k):
        floor = 0
        for i in bits(below_src[j]):
            floor |= point_img[i]
        choices = [m for m in tgt_masks if m & floor == floor]
        point_img[j] = rng.choice(choices)
    table = []
    for m in src_masks:
        out = 0
        for j in bits(m):
            out |= point_img[j]
        table.append(tgt_idx[out])
    return tuple(table)


# -- random forms ---------------------------------------------------------------


# The four base shapes, by number: object count and generating arrows as
# (name, domain index, codomain index). A chain also has the composite g.f.
SHAPES: tuple[tuple[int, tuple[tuple[str, int, int], ...]], ...] = (
    (1, ()),
    (2, (("f", 0, 1),)),
    (2, (("f", 0, 1), ("f'", 0, 1))),
    (3, (("f", 0, 1), ("g", 1, 2))),
)

_BASES: dict[int, tuple[CategoryPresentation, list[int]]] = {}


def _base(shape: int) -> tuple[CategoryPresentation, list[int]]:
    """The base category of a shape and the numbers of its generating
    arrows in SHAPES order, followed by the composite g.f of a chain;
    memoised, and shared by every form of that shape, since a presentation
    does not change once built."""
    out = _BASES.get(shape)
    if out is not None:
        return out
    nobj, gens = SHAPES[shape]
    objects = [f"X{i}" for i in range(nobj)]
    homs: dict[tuple[str, str], list[str]] = {(x, y): [] for x in objects for y in objects}
    for x in objects:
        homs[(x, x)].append(f"id:{x}")
    for name, d, c in gens:
        homs[(objects[d], objects[c])].append(name)
    if shape == 3:
        homs[(objects[0], objects[2])].append("g.f")
    # The morphisms by number, in the presentation's order; only a chain
    # composes two non-identities.
    names = [m for x in objects for y in objects for m in homs[(x, y)]]
    identity = [m.startswith("id:") for m in names]

    def compose(g: int, fs: range) -> list[int]:
        return [g if identity[f] else f if identity[g] else names.index("g.f") for f in fs]

    identities = {x: f"id:{x}" for x in objects}
    base = CategoryPresentation(objects, homs, compose, identities)
    arrows = [base.ids[m] for m, _, _ in gens] + ([base.ids["g.f"]] if shape == 3 else [])
    out = _BASES[shape] = base, arrows
    return out


# The memo of the search share a thread runs (_counterexamples); outside one
# a reader gets a dict to drop. Keys are tuples of ints led by the kind: a
# form under its shape, posets and push draws; ``[context, the claim's
# violations on it]`` under (form, class, seed rows) and (form, closed rows).
# One form per content is kept, and holds the id its contexts' keys name.
_SHARE = threading.local()
_FORM, _CLOSED, _SEEDED = 3, 4, {"any": 0, "TM": 1, "TJ": 2}

# The entries a share's memo holds before it is emptied: 980-1,740 in a share
# of a two-way split at budget 1000 (seed 7), 7,000-13,300 uncapped at 10,000,
# where the cap holds the command's peak RSS to 16.3-17.1 MB, not 19.2-21.8
# (15.5-15.6 without a memo; all six claims, Python 3.11, 2-vCPU Xeon).
MEMO_CAP = 2048


def random_form(rng: random.Random) -> FormInstance:
    """A small form over one of four base shapes: a lone object, a single
    arrow, a parallel pair, or a composable chain."""
    shape = rng.randrange(4)
    base, arrows = _base(shape)
    posets = [_random_poset(rng) for _ in base.objects]
    data = [_downset_lattice(p) for p in posets]
    drawn = [_random_left_adjoint(rng, posets[d], data[d], data[c]) for _, d, c in SHAPES[shape][1]]
    memo, key = getattr(_SHARE, "memo", {}), (_FORM, shape, *map(tuple, posets), *drawn)
    if (form := memo.get(key)) is not None:
        return form
    fibres = [lat for lat, _, _ in data]

    # The identity is its own upper adjoint, and pull(g.f) = pull f . pull g:
    # upper adjoints on posets are unique, so these are the tables
    # upper_adjoint would derive. The random maps are drawn in SHAPES order.
    push: list[tuple[int, ...]] = [()] * len(base.names)
    pull: list[tuple[int, ...]] = [()] * len(base.names)
    for fib, i in zip(fibres, base.identity_of):
        push[i] = pull[i] = tuple(range(fib.size))
    for f, (_, d, c), table in zip(arrows, SHAPES[shape][1], drawn):
        push[f] = table
        pull[f] = upper_adjoint(table, fibres[d], fibres[c])
    if shape == 3:
        f, g, gf = arrows
        push[gf] = tuple(map(push[g].__getitem__, push[f]))
        pull[gf] = tuple(map(pull[f].__getitem__, pull[g]))
    memo[key] = form = FormInstance(base, fibres, push, pull)
    return form


# -- random orders ----------------------------------------------------------------


def _close_order(form: FormInstance, rel: list[list[int]], want: str) -> None:
    """Close the seeded pairs under T2, T3 and, for ``want`` "TM" or "TJ",
    the meet or join stability law, in place.

    The result is the least relation that contains the seeds and is closed
    under the rules. Each rule adds pairs that pairs already present force,
    and the least closed relation holds every forced pair, so any strategy
    that adds only forced pairs and stops after a pass that adds nothing
    ends there: ``_close_order_dense`` in ``tests/oracles.py``, one rule
    instance at a time, reaches the same relation. This one works a row or
    a column at a time:

    - T2: row a becomes the up-closure of itself and of the rows of the
      covers of a (generated fibres are partial orders, where covers
      chain up to every element above a). Fibres list down-sets in
      increasing order, a linear extension, so one sweep from the top
      closes a fibre;
    - TM: the T2-closed row becomes ``up[meet of the row]``, the meet being
      a finite meet of members (top for an empty row);
    - TJ: column b, the a related to b, gains ``down[join of the column]``;
    - T3: per morphism f, row a of the domain gains the pull image of the
      codomain row of push a, one memoised image per distinct row.

    Every step only adds pairs below the fibre order, so this terminates.
    Generated fibres are lattices of at most MAX_FIBRE elements, so the
    up-closures, meets and joins are reads of the fibre's tables
    (:attr:`FiniteLattice.up_closure_table` and its siblings)."""
    fibres = list(zip(form.fibres, rel))
    transfers = []
    for f, (x, y) in enumerate(zip(form.base.source, form.base.target)):
        push, pull = form.push[f], form.pull[f]
        if x == y and push == pull == tuple(range(len(push))):
            continue  # T3 along an identity adds nothing
        transfers.append((rel[x], rel[y], push, pull, {}))
    changed = True
    while changed:
        changed = False
        for fib, rows in fibres:
            up, up_closure, meet, above = fib.up, fib.up_closure_table, fib.meet_table, fib.covers()
            for a in range(fib.size - 1, -1, -1):
                m = rows[a]
                for c in above[a]:
                    m |= rows[c]
                m = up_closure[m]
                if want == "TM":
                    m = up[meet[m]]
                if m != rows[a]:
                    rows[a] = m
                    changed = True
            if want == "TJ":
                down, join = fib.down, fib.join_table
                for b, col in enumerate(columns(rows)):
                    missing = down[join[col]] & ~col
                    if missing:
                        changed = True
                        for a in bits(missing):
                            rows[a] |= 1 << b
        for rows_x, rows_y, push, pull, images in transfers:
            for a, row in enumerate(rows_x):
                src = rows_y[push[a]]
                img = images.get(src)
                if img is None:
                    img = 0
                    for b in bits(src):
                        img |= 1 << pull[b]
                    images[src] = img
                if img & ~row:
                    rows_x[a] = row | img
                    changed = True


def random_order(rng: random.Random, form: FormInstance, want: str = "any") -> TopogenousOrder:
    """Seed a few random leq pairs per object and close them into a
    topogenous order; ``want`` in {"any", "TM", "TJ"} also closes under the
    corresponding stability law."""
    return _random_context(rng, form, want).order


def _random_context(rng: random.Random, form: FormInstance, want: str) -> CheckContext:
    """The check context of a :func:`random_order` draw. Its axioms are the
    generator's self-check, so the checks run on it reuse the pulled-rows
    table that check built. In a search share each distinct draw is closed,
    and each distinct order built and self-checked, once."""
    rel: list[list[int]] = []
    for fib in form.fibres:
        rows = [0] * fib.size
        for _ in range(rng.randint(0, fib.size)):
            a = rng.randrange(fib.size)
            b = rng.choice(list(bits(fib.up[a])))
            rows[a] |= 1 << b
        rel.append(rows)
    memo, seeded = getattr(_SHARE, "memo", {}), (_SEEDED[want], id(form), *chain.from_iterable(rel))
    entry = memo.get(seeded)
    if entry is None:
        _close_order(form, rel, want)
        order = TopogenousOrder(rel)
        closed = (_CLOSED, id(form), order.rel)
        entry = memo.get(closed)
        if entry is None:
            ctx = CheckContext(form, order)
            if not ctx.axioms.ok:
                raise AssertionError(f"generator produced a non-topogenous order: {ctx.axioms.violations}")
            entry = [ctx, None]
        memo[closed] = memo[seeded] = entry
    return entry[0]


# -- claims ---------------------------------------------------------------------


# Each claim is a registry check, run on one generated form with orders
# drawn, in this sequence, from the listed classes ("any", "TM" or "TJ").
CLAIMS: dict[str, tuple[str, tuple[str, ...]]] = {
    "roundtrip-TM": ("roundtrip", ("TM",)),
    "roundtrip-TJ": ("roundtrip", ("TJ",)),
    "strict-iff-push": ("strict-iff-push", ("any",)),
    "final-thick": ("final-thick", ("any", "TM")),
    "transfer-laws": ("transfer-laws", ("any",)),
    "cohereditary-operator": ("cohereditary-operator", ("TM",)),
}


def case_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def run_case(claim: str, seed: int, index: int) -> Optional[dict]:
    """One generated form checked against one claim: the counterexample's
    seed, index, claim and violations, as the report lists it; None when
    clean."""
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; known: {sorted(CLAIMS)}")
    check, classes = CLAIMS[claim]
    memo = getattr(_SHARE, "memo", {})
    if len(memo) + 1 + 2 * len(classes) > MEMO_CAP:  # no room for this case's form and orders
        memo.clear()
    rng = case_rng(seed, index)
    form = random_form(rng)
    violations = []
    for want in classes:
        ctx = _random_context(rng, form, want)
        entry = memo.get((_CLOSED, id(ctx.form), ctx.order.rel))
        if entry is None or entry[0] is not ctx:  # a context from outside the memo
            entry = [ctx, None]
        if entry[1] is None:  # a share runs one claim; the facts its check cached are dropped
            entry[:] = CheckContext(ctx.form, ctx.order), tuple(CHECKS[check].run(ctx).violations)
        violations.extend(entry[1])
    if not violations:
        return None
    return {"seed": seed, "index": index, "claim": claim, "violations": [v.to_dict() for v in violations]}


# The fewest cases one process of a split search runs. A worker costs about
# 2 ms to fork, pipe back and reap (1.6-2.1 ms measured), and fills its own
# fibre-lattice and search memos; a case costs 0.08-0.17 ms with the search
# memo as without it (Python 3.11 on a 2-vCPU Xeon, minima over shares of 32
# to 1000 cases: 0.08 on strict-iff-push, 0.17 on final-thick), since a
# share near the break-even repeats few cases. A two-way split saves half
# the cases' time for that 2 ms, so it breaks even near 4 ms / 0.08 ms = 50
# cases on the cheapest claim, below budget 64. On that VM the split lost at
# every budget from 32 to 1000 on a contended day (strict-iff-push 85 ms
# serial, 90 ms split at 1000), and at 1000 won 7 of 7 interleaved pairs
# against `taskset -c 0` on a quieter one (transfer-laws 0.114 vs 0.162 s,
# roundtrip-TM 0.140 vs 0.209 s). Neither places the break-even elsewhere.
MIN_CASES_PER_PROCESS = 64


def search_width(budget: int) -> int:
    """How many processes a search of ``budget`` cases runs in: one per CPU
    in the process's affinity set (``taskset`` narrows it), but none that
    would run fewer than MIN_CASES_PER_PROCESS cases. 1 where ``os.fork`` is
    missing or other threads run, since a fork copies only the calling
    thread and whatever locks the others hold."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, budget // MIN_CASES_PER_PROCESS))


def _counterexamples(claim: str, seed: int, indices: Iterable[int]) -> list[dict]:
    """The counterexamples among the cases ``indices``, in that order, as
    dicts, found with a memo (``_SHARE``) that lives as long."""
    _SHARE.memo = {}
    try:
        return [c for c in (run_case(claim, seed, i) for i in indices) if c is not None]
    finally:
        del _SHARE.memo


def _serve_share(write_end: int, claim: str, seed: int, share: range) -> NoReturn:
    """A forked worker: run one share and write its counterexamples into
    the pipe with ``marshal``, which keeps their ints, strings, lists and
    dicts as they are and is loaded already. It ends with ``os._exit``, so
    the parent's exit handlers and buffered output never run twice, and any
    failure is silent: exit 1 tells the parent to run the share itself."""
    code = 1
    try:
        data = marshal.dumps(_counterexamples(claim, seed, share))
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _fork_worker(claim: str, seed: int, share: range) -> tuple[int, BinaryIO]:
    """Fork the worker of one share: its pid and the read end of its pipe."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        os.close(read_end)
        _serve_share(write_end, claim, seed, share)
    os.close(write_end)
    return pid, os.fdopen(read_end, "rb")


def _run_split(claim: str, seed: int, budget: int, width: int) -> list[dict]:
    """Every counterexample, in index order, from ``width`` processes: one
    forked worker per share 1..width-1, share 0 in this process.

    A share whose worker cannot be forked, exits non-zero or leaves a pipe
    that cannot be read, and share 0 if it raises, runs again here in index
    order, merged with the shares that came back. Those hold no failing
    case, so the first case to raise is the one the serial run raises at,
    with its exception. Every worker is reaped before this returns or
    raises."""
    shares = [range(w, budget, width) for w in range(width)]
    workers = []  # (share number, pid, read end of its pipe)
    done: dict[int, list[dict]] = {}
    try:
        for w in range(1, width):
            try:
                workers.append((w, *_fork_worker(claim, seed, shares[w])))
            except OSError:
                break  # no process or pipe to spare: the shares left run here
        try:
            done[0] = _counterexamples(claim, seed, shares[0])
        except Exception:
            pass  # raised again below, in index order
        while workers:
            w, pid, pipe = workers[0]
            try:
                with pipe:
                    data = pipe.read()
            except OSError:
                data = None
            _, status = os.waitpid(pid, 0)
            del workers[0]
            if status == 0 and data is not None:
                done[w] = marshal.loads(data)
    finally:
        for _, pid, pipe in workers:
            pipe.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    rerun = sorted(i for w, share in enumerate(shares) if w not in done for i in share)
    found = [c for part in done.values() for c in part] + _counterexamples(claim, seed, rerun)
    return sorted(found, key=lambda c: c["index"])


def run_search(claim: str, budget: int, seed: int) -> dict:
    """Check ``budget`` generated forms against the claim; deterministic in
    (claim, budget, seed), whatever :func:`search_width` gives."""
    width = search_width(budget)
    found = _counterexamples(claim, seed, range(budget)) if width == 1 else _run_split(claim, seed, budget, width)
    return {
        "claim": claim,
        "budget": budget,
        "seed": seed,
        "forms_checked": budget,
        "counterexamples": found,
    }

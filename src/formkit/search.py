"""Randomized search for counterexamples to the theorem-shaped claims.

Forms are generated valid by construction: fibres are down-set lattices of
small random posets, so a random monotone assignment on the poset points
induces a genuinely join-preserving push map, and the pull map is derived
as its upper adjoint (B goes to the join of everything pushed below B).
Orders are random seed pairs closed under the axioms (and the meet/join
stability laws when a claim needs that class) to a fixpoint.

Every generated case is reproducible from (seed, index) alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .checks import CHECKS, CheckContext
from .forms import CategoryPresentation, FormInstance
from .lattice import FiniteLattice, GaloisPair, MonotoneMap, bits
from .topogenous import TopogenousOrder, verify_order

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
        if len(_downsets(below)) <= MAX_FIBRE:
            return below


def _downsets(below: list[int]) -> list[int]:
    k = len(below)
    return [
        s for s in range(1 << k)
        if all(below[j] & ~s == 0 for j in range(k) if (s >> j) & 1)
    ]


def _downset_lattice(below: list[int]) -> tuple[FiniteLattice, list[int], dict[int, int]]:
    masks = _downsets(below)
    rows = [[m1 & ~m2 == 0 for m2 in masks] for m1 in masks]
    idx = {m: i for i, m in enumerate(masks)}
    return FiniteLattice(rows), masks, idx


def _random_left_adjoint(
    rng: random.Random,
    below_src: list[int],
    src: tuple[FiniteLattice, list[int], dict[int, int]],
    tgt: tuple[FiniteLattice, list[int], dict[int, int]],
) -> MonotoneMap:
    """Join-preserving map out of a down-set lattice: choose a monotone
    image for each poset point, then push a down-set to the union of its
    points' images."""
    src_lat, src_masks, _ = src
    tgt_lat, tgt_masks, tgt_idx = tgt
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
    return MonotoneMap(src_lat, tgt_lat, table)


# -- random forms ---------------------------------------------------------------


def random_form(rng: random.Random) -> FormInstance:
    """A small form over one of four base shapes: a lone object, a single
    arrow, a parallel pair, or a composable chain."""
    shape = rng.randrange(4)
    nobj = 1 if shape == 0 else (3 if shape == 3 else 2)
    objects = [f"X{i}" for i in range(nobj)]
    posets = [_random_poset(rng) for _ in objects]
    data = [_downset_lattice(p) for p in posets]
    fibres = {x: data[i][0] for i, x in enumerate(objects)}

    gens: list[tuple[str, int, int]] = []
    if shape in (1, 2):
        gens.append(("f", 0, 1))
        if shape == 2:
            gens.append(("f'", 0, 1))
    elif shape == 3:
        gens.append(("f", 0, 1))
        gens.append(("g", 1, 2))

    homs: dict[tuple[str, str], list[str]] = {(x, y): [] for x in objects for y in objects}
    dom_of: dict[str, int] = {}
    cod_of: dict[str, int] = {}
    for x_i, x in enumerate(objects):
        name = f"id:{x}"
        homs[(x, x)].append(name)
        dom_of[name] = cod_of[name] = x_i
    for name, d, c in gens:
        homs[(objects[d], objects[c])].append(name)
        dom_of[name], cod_of[name] = d, c
    if shape == 3:
        homs[(objects[0], objects[2])].append("g.f")
        dom_of["g.f"], cod_of["g.f"] = 0, 2

    push: dict[str, MonotoneMap] = {}
    for x_i, x in enumerate(objects):
        push[f"id:{x}"] = MonotoneMap.identity(fibres[x])
    for name, d, c in gens:
        push[name] = _random_left_adjoint(rng, posets[d], data[d], data[c])
    if shape == 3:
        push["g.f"] = push["g"].compose(push["f"])

    compose: dict[tuple[str, str], str] = {}
    names = list(dom_of)
    for f in names:
        for g in names:
            if cod_of[f] != dom_of[g]:
                continue
            if f.startswith("id:"):
                compose[(g, f)] = g
            elif g.startswith("id:"):
                compose[(g, f)] = f
            else:
                compose[(g, f)] = "g.f"
    identities = {x: f"id:{x}" for x in objects}
    base = CategoryPresentation(objects, homs, compose, identities)

    pull = {name: GaloisPair.from_left_adjoint(m).right for name, m in push.items()}
    return FormInstance(base, fibres, push, pull)


# -- random orders ----------------------------------------------------------------


def _close_order(form: FormInstance, rel: dict[str, list[int]], want: str) -> None:
    """Close the seeded pairs under T2, T3, and optionally the meet/join
    stability laws, in place, to a joint fixpoint. Every step only adds
    pairs that lie below the fibre order, so this terminates."""
    changed = True
    while changed:
        changed = False
        for x in form.base.objects:
            fib = form.fibre(x)
            rows = rel[x]
            upc = [0] * fib.size
            for a in range(fib.size):
                m = 0
                for b in bits(rows[a]):
                    m |= fib.up[b]
                upc[a] = m
            for a in range(fib.size):
                for a2 in bits(fib.down[a]):
                    new = rows[a2] | upc[a]
                    if new != rows[a2]:
                        rows[a2] = new
                        changed = True
            if want == "TM":
                for a in range(fib.size):
                    row = rows[a]
                    members = list(bits(row))
                    extra = 1 << fib.meet(())
                    for i, b1 in enumerate(members):
                        for b2 in members[i:]:
                            extra |= 1 << fib.meet((b1, b2))
                    if row | extra != row:
                        rows[a] = row | extra
                        changed = True
            if want == "TJ":
                for b in range(fib.size):
                    col = [a for a in range(fib.size) if (rows[a] >> b) & 1]
                    targets = [fib.join(())]
                    for i, a1 in enumerate(col):
                        for a2 in col[i:]:
                            targets.append(fib.join((a1, a2)))
                    for j in targets:
                        if not (rows[j] >> b) & 1:
                            rows[j] |= 1 << b
                            changed = True
        for f in form.base.morphisms():
            x, y = form.base.dom[f], form.base.cod[f]
            push, pull = form.push_maps[f].table, form.pull_maps[f].table
            rows_x, rows_y = rel[x], rel[y]
            for a in range(form.fibre(x).size):
                for b in bits(rows_y[push[a]]):
                    bit = 1 << pull[b]
                    if not rows_x[a] & bit:
                        rows_x[a] |= bit
                        changed = True


def random_order(rng: random.Random, form: FormInstance, want: str = "any") -> TopogenousOrder:
    """Seed a few random leq pairs per object and close them into a
    topogenous order; ``want`` in {"any", "TM", "TJ"} also closes under the
    corresponding stability law."""
    rel: dict[str, list[int]] = {}
    for x in form.base.objects:
        fib = form.fibre(x)
        rows = [0] * fib.size
        for _ in range(rng.randint(0, fib.size)):
            a = rng.randrange(fib.size)
            b = rng.choice(list(bits(fib.up[a])))
            rows[a] |= 1 << b
        rel[x] = rows
    _close_order(form, rel, want)
    order = TopogenousOrder({x: tuple(rows) for x, rows in rel.items()})
    bad = verify_order(form, order)
    if not bad.ok:
        raise AssertionError(f"generator produced a non-topogenous order: {bad}")
    return order


# -- claims ---------------------------------------------------------------------


@dataclass
class Counterexample:
    seed: int
    index: int
    claim: str
    violations: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "index": self.index,
            "claim": self.claim,
            "violations": self.violations,
        }


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


def run_case(claim: str, seed: int, index: int) -> Optional[Counterexample]:
    """One generated form checked against one claim; None when clean."""
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; known: {sorted(CLAIMS)}")
    check, classes = CLAIMS[claim]
    rng = case_rng(seed, index)
    form = random_form(rng)
    violations = []
    for want in classes:
        violations.extend(CHECKS[check].run(CheckContext(form, random_order(rng, form, want))).violations)
    if not violations:
        return None
    return Counterexample(seed, index, claim, [v.to_dict() for v in violations])


def run_search(claim: str, budget: int, seed: int) -> dict:
    """Check ``budget`` generated forms against the claim; deterministic in
    (claim, budget, seed)."""
    found = [run_case(claim, seed, i) for i in range(budget)]
    counterexamples = [c.to_dict() for c in found if c is not None]
    return {
        "claim": claim,
        "budget": budget,
        "seed": seed,
        "forms_checked": budget,
        "counterexamples": counterexamples,
    }

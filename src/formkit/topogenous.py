"""Topogenous orders on a form and their correspondences with closure and
interior operators.

An order is a per-object binary relation on the fibre, stored as one int
bitmask per row: row a has bit b set when a is related to b. The three
axioms: (T1) related pairs are leq pairs; (T2) the relation absorbs leq on
both sides; (T3) transfer stability, push-related pairs pull back.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .forms import CorruptFormError, FormInstance
from .lattice import FiniteLattice, bits, columns, low_bit, monotone_violation, preimages
from .report import Record, Report

EXHAUSTIVE_SUBSET_LIMIT = 12


class TopogenousOrder:
    """A fibre-indexed relation: ``rel[x]`` holds the rows of object x, by
    object number (see :class:`formkit.forms.CategoryPresentation`).
    Equality is pointwise table equality.

    An order built in code is shaped by its form: one row per element of
    each fibre. A document's order is checked to fit its form, and its
    object names become numbers, where it is read
    (:func:`formkit.jsonio.order_from_dict`)."""

    def __init__(self, rel: Iterable[Sequence[int]]):
        self.rel = tuple(tuple(rows) for rows in rel)

    def has(self, x: int, a: int, b: int) -> bool:
        return bool((self.rel[x][a] >> b) & 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, TopogenousOrder) and self.rel == other.rel

    def __repr__(self) -> str:
        return f"TopogenousOrder({[len(r) for r in self.rel]})"

    def contained_in(self, other: "TopogenousOrder") -> bool:
        return len(self.rel) <= len(other.rel) and all(
            len(rows) == len(theirs) and all(r & ~s == 0 for r, s in zip(rows, theirs))
            for rows, theirs in zip(self.rel, other.rel)
        )


OPERATOR_KINDS = ("closure", "interior")


class Operator(Record):
    """Per-object self-maps of the fibres: ``maps[x]`` is the table of
    object x, by object number. A closure operator is expected extensive
    and transfer-compatible, an interior operator contractive, monotone and
    pull-compatible; ``kind`` says which one this is. Like an order, an
    operator built in code is shaped by its form, and a document's is
    checked where it is read (:func:`formkit.jsonio.operator_from_dict`)."""

    __slots__ = ("kind", "maps")

    def __init__(self, kind: str, maps: Iterable[tuple[int, ...]]):
        if kind not in OPERATOR_KINDS:
            raise ValueError(f"kind must be 'closure' or 'interior', got {kind!r}")
        self.kind, self.maps = kind, tuple(map(tuple, maps))


class OrderClass(NamedTuple):
    is_TM: bool
    is_TJ: bool
    is_interpolative: bool
    exhaustive: bool  # False when the pairwise reduction was used

    def to_dict(self) -> dict:
        return {
            "is_TM": self.is_TM,
            "is_TJ": self.is_TJ,
            "is_interpolative": self.is_interpolative,
            "exhaustive_subsets": self.exhaustive,
        }


def leq_order(form: FormInstance) -> TopogenousOrder:
    """The fibre order itself; the base point of every example family."""
    return TopogenousOrder(fib.up for fib in form.fibres)


def pulled_rows(form: FormInstance, order: TopogenousOrder, f: int) -> list[int]:
    """The pulled rows of f: x -> y. Per element a of the domain fibre, the
    mask of every b in the codomain fibre with pull(b) related to a: the
    preimage of ``rows_x[a]`` under pull (:func:`formkit.lattice.preimages`).
    T3, the pull form, strictness and finality are mask tests on it."""
    x = form.base.source[f]
    return preimages(form.pull[f], form.fibres[x], order.rel[x])


def pulled_table(form: FormInstance, order: TopogenousOrder) -> list[list[int]]:
    """:func:`pulled_rows` of every morphism, by number."""
    return [pulled_rows(form, order, f) for f in range(len(form.pull))]


def verify_order(form: FormInstance, order: TopogenousOrder, pulled: Sequence[Sequence[int]]) -> Report:
    """Report every T1/T2/T3 violation with witnesses.

    T3 is swept with masks on each morphism's pulled rows ``pulled[f]``
    (:func:`_t3_bad`): the same pairs, in the same order, as a bit-by-bit
    sweep of every fibre pair (``verify_order_dense`` in
    ``tests/oracles.py``), so it needs no certificate and no fallback. T2
    is swept pair by pair only on a fibre where :func:`_rows_t2` does not
    certify it."""
    rep = Report()
    names = form.base.names
    for x, fib, rows in zip(form.base.objects, form.fibres, order.rel):
        rep.count("T1", fib.size)
        for a in range(fib.size):
            stray = rows[a] & ~fib.up[a]
            if stray:
                rep.add("T1", where=x, witness=(a, low_bit(stray)))
        # T2: the up-closure of row a must sit inside every row below a.
        # On a partial order that holds when every row is an up-set and
        # contains the rows of its element's covers; otherwise the pair
        # sweep finds the witnesses.
        upclosed = [fib.up_closure(row) for row in rows]
        rep.count("T2", sum(m.bit_count() for m in fib.down))
        if _rows_t2(fib, rows, upclosed):
            continue
        for a in range(fib.size):
            for a2 in bits(fib.down[a]):
                missing = upclosed[a] & ~rows[a2]
                if missing:
                    rep.add("T2", where=x, witness=(a2, a, low_bit(missing)))
    for f, pulled_f in enumerate(pulled):
        bad = _t3_bad(form, order, f, pulled_f)
        rep.count("T3", len(bad))
        for a, mask in enumerate(bad):
            if mask:
                rep.add("T3", where=names[f], witness=(a, low_bit(mask)))
    return rep


def _t3_bad(form: FormInstance, order: TopogenousOrder, f: int, pulled: Sequence[int]) -> list[int]:
    """Per element a of the domain fibre, the b related to push(a) whose
    pull is not related to a, read from f's pulled rows: T3 as
    order-axioms and t3-pull-agreement state it."""
    rows_y, push = order.rel[form.base.target[f]], form.push[f]
    return [rows_y[push[a]] & ~pre for a, pre in enumerate(pulled)]


def _rows_t2(fib: FiniteLattice, rows: Sequence[int], upclosed: Sequence[int]) -> bool:
    """Whether the fibre is a partial order on which the rows satisfy T2:
    each row equals its up-closure ``upclosed[a]`` and contains the rows
    of the covers of a, hence, along chains of covers, of every element
    above a."""
    if not fib.is_partial_order:
        return False
    for a, above in enumerate(fib.covers):
        row = rows[a]
        if upclosed[a] != row:
            return False
        for c in above:
            if rows[c] & ~row:
                return False
    return True


def check_T3_pull_form(form: FormInstance, order: TopogenousOrder, pulled: Sequence[Sequence[int]]) -> Report:
    """The pull formulation of transfer stability: related pairs in the
    codomain fibre pull back to related pairs. Also cross-checks that, per
    morphism, its verdict coincides with T3's (they are equivalent under
    T1 and T2).

    Both sides are mask tests on f's pulled rows ``pulled[f]``
    (:func:`pulled_rows`). The pull-form violations at a in the codomain
    fibre are the bits of ``rows_y[a]`` outside ``pulled[f][pull a]``; T3
    is :func:`verify_order`'s :func:`_t3_bad`. Same pairs as the pair
    loops of ``check_T3_pull_form_dense`` in ``tests/oracles.py``."""
    rep = Report()
    names = form.base.names
    for f, pulled_f in enumerate(pulled):
        rows_y, pull = order.rel[form.base.target[f]], form.pull[f]
        pull_ok = True
        for a, row in enumerate(rows_y):
            rep.count("pull-form", row.bit_count())
            for b in bits(row & ~pulled_f[pull[a]]):
                rep.add("pull-form", where=names[f], witness=(a, b))
                pull_ok = False
        t3_ok = not any(_t3_bad(form, order, f, pulled_f))
        rep.count("pull-form-agrees-T3")
        if pull_ok != t3_ok:
            rep.add("pull-form-agrees-T3", where=names[f], witness=(pull_ok, t3_ok))
    return rep


def _closed(bound, mask: int, exhaustive: bool) -> bool:
    """Whether ``bound`` (a fibre's meet or join) sends every family of
    members of ``mask`` into ``mask``: all families when ``exhaustive``,
    else the empty family, the pairs and all members, in that order."""
    members = list(bits(mask))
    if exhaustive:
        families = chain.from_iterable(combinations(members, k) for k in range(len(members) + 1))
    else:
        families = chain([()], combinations(members, 2), [members])
    return all((mask >> bound(family)) & 1 for family in families)


def classify_order(form: FormInstance, order: TopogenousOrder) -> OrderClass:
    """Meet-stability (second argument), join-stability (first argument),
    and interpolativity.

    When every fibre is a lattice (:attr:`FiniteLattice.is_lattice`) on
    which the rows satisfy T2 (each row an up-set containing the rows
    above it, see :func:`_rows_t2`), the stability laws are
    principal-filter tests. On a finite lattice an up-set is closed under
    all meets, the empty meet top included, iff it is non-empty and equals
    ``up[meet of its members]``; dually a down-set is closed under all
    joins iff it is non-empty and equals ``down[join of its members]``
    (Davey & Priestley, *Introduction to Lattices and Order*, 2nd ed.,
    ch. 2). So the order is TM iff every row passes the first test, and TJ
    iff every column, a down-set under T2, passes the second: one
    :meth:`FiniteLattice.meet_mask` or :meth:`FiniteLattice.join_mask` per
    row or column. Interpolativity is ``row & ~OR(rows[c] for c in row) ==
    0`` for every row.

    When some fibre is not a lattice or the rows break T2,
    :func:`classify_order_dense` runs the subset scan instead, so such
    inputs get its answer or its error. ``exhaustive`` keeps the scan's
    meaning: False when some fibre has more than EXHAUSTIVE_SUBSET_LIMIT
    elements, where the scan tries only pairs and the empty and full
    families."""
    fibres = list(zip(form.fibres, order.rel))
    if not all(fib.is_lattice and _rows_t2(fib, rows, [fib.up_closure(row) for row in rows]) for fib, rows in fibres):
        return classify_order_dense(form, order)
    is_tm = is_tj = is_int = True
    for fib, rows in fibres:
        up, down = fib.up, fib.down
        if is_tm:
            is_tm = all(row and row == up[fib.meet_mask(row)] for row in rows)
        if is_tj:
            is_tj = all(col and col == down[fib.join_mask(col)] for col in columns(rows))
        if is_int:
            for row in rows:
                reach = 0
                for c in bits(row):
                    reach |= rows[c]
                if row & ~reach:
                    is_int = False
                    break
    return OrderClass(is_tm, is_tj, is_int, all(fib.size <= EXHAUSTIVE_SUBSET_LIMIT for fib, _ in fibres))


def classify_order_dense(form: FormInstance, order: TopogenousOrder) -> OrderClass:
    """The subset scan :func:`classify_order` falls back to, and its
    oracle: meet-stability (second argument), join-stability (first
    argument), and interpolativity.

    The order is TM when every row is closed under the fibre's meets and
    TJ when every column is closed under its joins: one scan,
    :func:`_closed`, for both. Subset families are enumerated exhaustively
    on fibres of at most EXHAUSTIVE_SUBSET_LIMIT elements; beyond that only
    pairs plus the empty and full families are tried. On a finite lattice
    the two agree, since arbitrary meets are iterated binary meets, but the
    reduced sweep is recorded in ``exhaustive`` for the caller.
    """
    is_tm = is_tj = is_int = all_exhaustive = True
    for fib, rows in zip(form.fibres, order.rel):
        exhaustive = fib.size <= EXHAUSTIVE_SUBSET_LIMIT
        all_exhaustive = all_exhaustive and exhaustive
        is_tm = is_tm and all(_closed(fib.meet, row, exhaustive) for row in rows)
        is_int = is_int and all(
            any((rows[c] >> b) & 1 for c in bits(row)) for row in rows for b in bits(row)
        )
        is_tj = is_tj and all(_closed(fib.join, col, exhaustive) for col in columns(rows))
    return OrderClass(is_tm, is_tj, is_int, all_exhaustive)


def intersect_orders(form: FormInstance, orders: Sequence[TopogenousOrder]) -> TopogenousOrder:
    """Pointwise conjunction; topogenous whenever the inputs are, and the
    greatest such order below all of them."""
    if not orders:
        raise ValueError("need at least one order")
    return TopogenousOrder(
        [_and_all(t.rel[x][a] for t in orders) for a in range(fib.size)] for x, fib in enumerate(form.fibres)
    )


def _and_all(masks: Iterable[int]) -> int:
    out = None
    for m in masks:
        out = m if out is None else out & m
    return out if out is not None else 0


# -- operators ----------------------------------------------------------------


def closure_from_order(form: FormInstance, order: TopogenousOrder) -> Operator:
    """Each element goes to the meet of everything related above it.

    Meaningful (extensive, transfer-compatible) when the order is
    meet-stable; accepted for any order anyway, which is useful when mining
    for counterexamples."""
    return Operator("closure", (map(fib.meet_mask, rows) for fib, rows in zip(form.fibres, order.rel)))


def order_from_closure(form: FormInstance, clo: Operator) -> TopogenousOrder:
    """a related to b iff the closure of a is below b."""
    return TopogenousOrder([fib.up[t[a]] for a in range(fib.size)] for fib, t in zip(form.fibres, clo.maps))


def interior_from_order(form: FormInstance, order: TopogenousOrder) -> Operator:
    """Each element goes to the join of everything related below it."""
    return Operator("interior", (map(fib.join_mask, columns(rows)) for fib, rows in zip(form.fibres, order.rel)))


def order_from_interior(form: FormInstance, intr: Operator) -> TopogenousOrder:
    """a related to b iff a is below the interior of b: row a is the
    preimage of ``up[a]`` under the interior table
    (:func:`formkit.lattice.preimages`), the set
    ``order_from_interior_dense`` in ``tests/oracles.py`` collects one pair
    at a time."""
    return TopogenousOrder(preimages(t, fib, fib.up) for fib, t in zip(form.fibres, intr.maps))


def verify_closure(form: FormInstance, clo: Operator) -> Report:
    """Extensivity plus transfer-compatibility in its four equivalent
    phrasings, with a cross-check that all four verdicts coincide.

    A morphism whose push and pull are not certified an adjoint pair
    (:meth:`FormInstance.is_adjoint`) first has its transfer tests walked
    (:func:`_refuse_disagreement`); on partial-order fibres it always has
    a pair where they disagree. Past the walk, push(a) <= b iff
    a <= pull(b), and each phrasing is one mask test per element, with the
    verdicts and counts of a sweep of every fibre pair (its oracle in
    ``tests/oracles.py``), on preorder fibres too. Per object,
    ``above[e] = {b : e <= c(b)}`` and ``below[e] = {a : c(a) <= e}`` are
    preimages of ``up[e]`` and ``down[e]`` under the closure table. For
    f: x -> y, the C2 violations at a are the bits of
    ``up_y[push a] & ~above_y[push c_x(a)]``, in (a, b) order; the push
    phrasing is that same test; the pull phrasing fails at b when
    ``down_x[pull b] & ~below_x[pull c_y(b)]`` is not empty; the split
    phrasing tests push c_x(a) <= c_y(push a) per a and monotonicity of c
    on covers."""
    for f in range(len(form.push)):
        if not form.is_adjoint(f):
            _refuse_disagreement(form, clo, f)
    rep = Report()
    base = form.base
    above, below = [], []
    for x, fib, table in zip(base.objects, form.fibres, clo.maps):
        rep.count("C1", fib.size)
        for a, c in enumerate(table):
            if not (fib.up[a] >> c) & 1:
                rep.add("C1", where=x, witness=(a,))
        above.append(preimages(table, fib, fib.up))
        below.append(preimages(table, fib, fib.down))
    v_main = v_pull = v_split = True
    for f, (x, y) in enumerate(zip(base.source, base.target)):
        fx, fy = form.fibres[x], form.fibres[y]
        cx, cy = clo.maps[x], clo.maps[y]
        push, pull = form.push[f], form.pull[f]
        above_y, below_x = above[y], below[x]
        rep.count("C2", fx.size * fy.size)
        for a in range(fx.size):
            for b in bits(fy.up[push[a]] & ~above_y[push[cx[a]]]):
                rep.add("C2", where=base.names[f], witness=(a, b))
                v_main = False
        if v_pull and any(fx.down[pull[b]] & ~below_x[pull[cy[b]]] for b in range(fy.size)):
            v_pull = False
        if v_split and not all((fy.up[push[cx[a]]] >> cy[push[a]]) & 1 for a in range(fx.size)):
            v_split = False
    # the transfer tests agree here, so the push phrasing is the main one
    v_push = v_main
    if v_split and any(monotone_violation(t, fib, fib) for fib, t in zip(form.fibres, clo.maps)):
        v_split = False
    rep.count("C2-form-agreement")
    if not (v_main == v_push == v_pull == v_split):
        rep.add(
            "C2-form-agreement",
            witness=(v_main, v_push, v_pull, v_split),
            detail="equivalent phrasings of transfer-compatibility disagree",
        )
    return rep


def _refuse_disagreement(form: FormInstance, clo: Operator, f: int) -> None:
    """Raise :class:`CorruptFormError` at the first transfer test of f where
    push(a) <= b and a <= pull(b) disagree, in the order of C2's pair
    sweep: (a, b), then (c(a), c(b)) wherever push(a) <= b."""
    base = form.base
    x, y = base.source[f], base.target[f]
    up_x, up_y = form.fibres[x].up, form.fibres[y].up
    push, pull, cx, cy = form.push[f], form.pull[f], clo.maps[x], clo.maps[y]

    def transfer_leq(a: int, b: int) -> int:
        via_push = (up_y[push[a]] >> b) & 1
        if via_push != (up_x[a] >> pull[b]) & 1:
            raise CorruptFormError(
                f"transfer tests disagree for morphism {base.names[f]!r} at ({a}, {b}); "
                "push/pull tables are not an adjoint pair"
            )
        return via_push

    for a in range(len(up_x)):
        for b in range(len(up_y)):
            if transfer_leq(a, b):
                transfer_leq(cx[a], cy[b])


def verify_interior(form: FormInstance, intr: Operator) -> Report:
    """Contractivity, monotonicity, and pull-compatibility.

    Mask tests, with the same violations and counts as the pair loops of
    ``verify_interior_dense`` in ``tests/oracles.py``: the I2 violations
    at a are the bits of ``up[a]`` outside the preimage of ``up[i(a)]``
    under the interior table (:func:`formkit.lattice.preimages`), and I1 and
    I3 are one bit test per element."""
    rep = Report()
    base = form.base
    for x, fib, table in zip(base.objects, form.fibres, intr.maps):
        up, above = fib.up, preimages(table, fib, fib.up)
        rep.count("I1", fib.size)
        for a in range(fib.size):
            if not (up[table[a]] >> a) & 1:
                rep.add("I1", where=x, witness=(a,))
            rep.count("I2", up[a].bit_count())
            for b in bits(up[a] & ~above[table[a]]):
                rep.add("I2", where=x, witness=(a, b))
    for f, (x, y) in enumerate(zip(base.source, base.target)):
        up_x = form.fibres[x].up
        ix, iy = intr.maps[x], intr.maps[y]
        pull = form.pull[f]
        size_y = form.fibres[y].size
        rep.count("I3", size_y)
        for b in range(size_y):
            if not (up_x[pull[iy[b]]] >> ix[pull[b]]) & 1:
                rep.add("I3", where=base.names[f], witness=(b,))
    return rep


def verify_operator(form: FormInstance, op: Operator) -> Report:
    """The axioms of the operator's kind."""
    return verify_closure(form, op) if op.kind == "closure" else verify_interior(form, op)


def operator_from_order(form: FormInstance, order: TopogenousOrder, kind: str) -> Operator:
    """The derived operator of the given kind."""
    return closure_from_order(form, order) if kind == "closure" else interior_from_order(form, order)


def order_from_operator(form: FormInstance, op: Operator) -> TopogenousOrder:
    """The order the operator induces, by its kind."""
    return order_from_closure(form, op) if op.kind == "closure" else order_from_interior(form, op)


def is_idempotent(op: Operator) -> bool:
    return all(
        all(t[t[a]] == t[a] for a in range(len(t))) for t in op.maps
    )


def roundtrip_check(
    form: FormInstance,
    obj,
    cls: Optional[OrderClass] = None,
    derived: Optional[Mapping[str, Operator]] = None,
) -> Report:
    """The order/operator correspondences, round-tripped exactly, and
    idempotency of the derived operator against interpolativity.

    An order comes with ``cls``, its class, its axioms already verified,
    and ``derived``, the operators derived from it by kind for each class
    it has (:meth:`formkit.checks.CheckContext.derived`). It is meet-stable
    (closure side) or join-stable (interior side): the caller's class gate
    (:data:`formkit.checks.SKIP_NOTES`) guarantees it. An operator needs
    neither: the order it induces has principal filters for rows (a
    closure) or principal ideals for columns (an interior), so it is
    meet- or join-stable by construction, and its class is read here only
    for the idempotency clause."""
    rep = Report()
    if isinstance(obj, TopogenousOrder):
        if cls is None or derived is None:
            raise TypeError("an order needs its class and derived operators (CheckContext.cls, .derived())")
        for kind, op in derived.items():
            rep.merge(verify_operator(form, op))
            back = order_from_operator(form, op)
            rep.count(f"order-{kind}-order")
            if back != obj:
                rep.add(f"order-{kind}-order", detail="derived order differs from the input")
            _check_idempotent(rep, op, cls)
        return rep
    if isinstance(obj, Operator):
        kind = obj.kind
        bad = verify_operator(form, obj)
        if not bad.ok:
            rep.merge(bad)
            rep.notes.append(f"input {kind} fails its axioms; round trip skipped")
            return rep
        order = order_from_operator(form, obj)
        rep.merge(verify_order(form, order, pulled_table(form, order)))
        back = operator_from_order(form, order, kind)
        rep.count(f"{kind}-order-{kind}")
        if back != obj:
            rep.add(f"{kind}-order-{kind}", detail=f"derived {kind} differs from the input")
        _check_idempotent(rep, obj, classify_order(form, order))
        return rep
    raise TypeError(f"expected an order or operator, got {type(obj).__name__}")


def _check_idempotent(rep: Report, op: Operator, cls: OrderClass) -> None:
    rep.count("idempotent-iff-interpolative")
    idempotent = is_idempotent(op)
    if idempotent != cls.is_interpolative:
        rep.add("idempotent-iff-interpolative", witness=(idempotent, cls.is_interpolative))

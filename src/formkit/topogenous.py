"""Topogenous orders on a form and their correspondences with closure and
interior operators.

An order is a per-object binary relation on the fibre, stored as one int
bitmask per row: row a has bit b set when a is related to b. The three
axioms: (T1) related pairs are leq pairs; (T2) the relation absorbs leq on
both sides; (T3) transfer stability, push-related pairs pull back.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

from .forms import FormInstance
from .lattice import FiniteLattice, bits
from .report import InputError, Report

EXHAUSTIVE_SUBSET_LIMIT = 12


class TopogenousOrder:
    """A fibre-indexed relation; equality is pointwise table equality."""

    def __init__(self, rel: Mapping[str, Sequence[int]]):
        self.rel = {x: tuple(rows) for x, rows in rel.items()}

    def rows(self, x: str) -> tuple[int, ...]:
        return self.rel[x]

    def has(self, x: str, a: int, b: int) -> bool:
        return bool((self.rel[x][a] >> b) & 1)

    def objects(self) -> Iterable[str]:
        return self.rel.keys()

    def __eq__(self, other) -> bool:
        return isinstance(other, TopogenousOrder) and self.rel == other.rel

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.rel.items())))

    def __repr__(self) -> str:
        return f"TopogenousOrder({ {x: len(r) for x, r in self.rel.items()} })"

    def contained_in(self, other: "TopogenousOrder") -> bool:
        return all(
            x in other.rel
            and len(rows) == len(other.rel[x])
            and all(r & ~s == 0 for r, s in zip(rows, other.rel[x]))
            for x, rows in self.rel.items()
        )


OPERATOR_KINDS = ("closure", "interior")


@dataclass(frozen=True)
class Operator:
    """Per-object self-maps of the fibres. A closure operator is expected
    extensive and transfer-compatible, an interior operator contractive,
    monotone and pull-compatible; ``kind`` says which one this is."""

    kind: str
    maps: Mapping[str, tuple[int, ...]]

    def __post_init__(self) -> None:
        if self.kind not in OPERATOR_KINDS:
            raise ValueError(f"kind must be 'closure' or 'interior', got {self.kind!r}")

    def table(self, x: str) -> tuple[int, ...]:
        return self.maps[x]

    def apply(self, x: str, a: int) -> int:
        return self.maps[x][a]

    def __eq__(self, other) -> bool:
        return isinstance(other, Operator) and self.kind == other.kind and dict(self.maps) == dict(other.maps)

    def __hash__(self) -> int:
        return hash((self.kind, tuple(sorted(self.maps.items()))))


@dataclass(frozen=True)
class OrderClass:
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


def _check_shape(form: FormInstance, order: TopogenousOrder) -> None:
    for x in order.rel:
        if x not in form.fibres:
            raise InputError(f"order relates object {x!r}, which the form does not have")
    for x in form.base.objects:
        rows = order.rel.get(x)
        if rows is None:
            raise InputError(f"order has no relation for object {x!r}")
        fib = form.fibre(x)
        if len(rows) != fib.size:
            raise InputError(f"relation rows for {x!r} do not match the fibre size")
        full = (1 << fib.size) - 1
        for a, row in enumerate(rows):
            if row & ~full:
                raise InputError(f"relation row {a} of {x!r} indexes outside the fibre")


def leq_order(form: FormInstance) -> TopogenousOrder:
    """The fibre order itself; the base point of every example family."""
    return TopogenousOrder({x: form.fibre(x).up for x in form.base.objects})


def verify_order(form: FormInstance, order: TopogenousOrder) -> Report:
    """Report every T1/T2/T3 violation with witnesses."""
    _check_shape(form, order)
    rep = Report()
    for x in form.base.objects:
        fib = form.fibre(x)
        rows = order.rel[x]
        for a in range(fib.size):
            rep.count("T1")
            stray = rows[a] & ~fib.up[a]
            if stray:
                rep.add("T1", where=x, witness=(a, next(bits(stray))))
        # T2: the up-closure of row a must sit inside every row below a.
        upclosed = []
        for a in range(fib.size):
            m = 0
            for b in bits(rows[a]):
                m |= fib.up[b]
            upclosed.append(m)
        for a in range(fib.size):
            for a2 in bits(fib.down[a]):
                rep.count("T2")
                missing = upclosed[a] & ~rows[a2]
                if missing:
                    rep.add("T2", where=x, witness=(a2, a, next(bits(missing))))
    for f in form.base.morphisms():
        x, y = form.base.dom[f], form.base.cod[f]
        rows_x, rows_y = order.rel[x], order.rel[y]
        push, pull = form.push_maps[f].table, form.pull_maps[f].table
        size_y = form.fibre(y).size
        for a in range(form.fibre(x).size):
            allowed = 0
            row_a = rows_x[a]
            for b in range(size_y):
                if (row_a >> pull[b]) & 1:
                    allowed |= 1 << b
            rep.count("T3")
            bad = rows_y[push[a]] & ~allowed
            if bad:
                rep.add("T3", where=f, witness=(a, next(bits(bad))))
    return rep


def check_T3_pull_form(form: FormInstance, order: TopogenousOrder) -> Report:
    """The pull formulation of transfer stability: related pairs in the
    codomain fibre pull back to related pairs. Also cross-checks that, per
    morphism, its verdict coincides with T3's (they are equivalent under
    T1 and T2)."""
    _check_shape(form, order)
    rep = Report()
    for f in form.base.morphisms():
        x, y = form.base.dom[f], form.base.cod[f]
        rows_x, rows_y = order.rel[x], order.rel[y]
        push, pull = form.push_maps[f].table, form.pull_maps[f].table
        size_x, size_y = form.fibre(x).size, form.fibre(y).size
        pull_ok = True
        for a in range(size_y):
            for b in bits(rows_y[a]):
                rep.count("pull-form")
                if not (rows_x[pull[a]] >> pull[b]) & 1:
                    rep.add("pull-form", where=f, witness=(a, b))
                    pull_ok = False
        t3_ok = True
        for a in range(size_x):
            row_a = rows_x[a]
            for b in range(size_y):
                if (rows_y[push[a]] >> b) & 1 and not (row_a >> pull[b]) & 1:
                    t3_ok = False
                    break
            if not t3_ok:
                break
        rep.count("pull-form-agrees-T3")
        if pull_ok != t3_ok:
            rep.add("pull-form-agrees-T3", where=f, witness=(pull_ok, t3_ok))
    return rep


def _tm_for_row(fib: FiniteLattice, rows: Sequence[int], a: int, exhaustive: bool):
    """First TM failure for element a, as (a, subset tuple, meet), or None."""
    row = rows[a]
    members = list(bits(row))
    if exhaustive:
        for k in range(len(members) + 1):
            for subset in combinations(members, k):
                m = fib.meet(subset)
                if not (row >> m) & 1:
                    return (a, subset, m)
        return None
    m = fib.meet(())
    if not (row >> m) & 1:
        return (a, (), m)
    for b1, b2 in combinations(members, 2):
        m = fib.meet((b1, b2))
        if not (row >> m) & 1:
            return (a, (b1, b2), m)
    m = fib.meet(members)
    if not (row >> m) & 1:
        return (a, tuple(members), m)
    return None


def _tj_for_col(fib: FiniteLattice, rows: Sequence[int], b: int, exhaustive: bool):
    col = [a for a in range(fib.size) if (rows[a] >> b) & 1]
    if exhaustive:
        for k in range(len(col) + 1):
            for subset in combinations(col, k):
                j = fib.join(subset)
                if not (rows[j] >> b) & 1:
                    return (b, subset, j)
        return None
    j = fib.join(())
    if not (rows[j] >> b) & 1:
        return (b, (), j)
    for a1, a2 in combinations(col, 2):
        j = fib.join((a1, a2))
        if not (rows[j] >> b) & 1:
            return (b, (a1, a2), j)
    j = fib.join(col)
    if not (rows[j] >> b) & 1:
        return (b, tuple(col), j)
    return None


def classify_order(form: FormInstance, order: TopogenousOrder) -> OrderClass:
    """Meet-stability (second argument), join-stability (first argument),
    and interpolativity.

    Subset families are enumerated exhaustively on fibres of at most
    EXHAUSTIVE_SUBSET_LIMIT elements; beyond that only pairs plus the empty
    and full families are tried. On a finite lattice the two agree, since
    arbitrary meets are iterated binary meets, but the reduced sweep is
    recorded in ``exhaustive`` for the caller.
    """
    _check_shape(form, order)
    is_tm = True
    is_tj = True
    is_int = True
    all_exhaustive = True
    for x in form.base.objects:
        fib = form.fibre(x)
        rows = order.rel[x]
        exhaustive = fib.size <= EXHAUSTIVE_SUBSET_LIMIT
        all_exhaustive = all_exhaustive and exhaustive
        for a in range(fib.size):
            if is_tm and _tm_for_row(fib, rows, a, exhaustive):
                is_tm = False
            if is_int:
                for b in bits(rows[a]):
                    if not any((rows[c] >> b) & 1 for c in bits(rows[a])):
                        is_int = False
                        break
        if is_tj:
            for b in range(fib.size):
                if _tj_for_col(fib, rows, b, exhaustive):
                    is_tj = False
                    break
    return OrderClass(is_tm, is_tj, is_int, all_exhaustive)


def intersect_orders(form: FormInstance, orders: Sequence[TopogenousOrder]) -> TopogenousOrder:
    """Pointwise conjunction; topogenous whenever the inputs are, and the
    greatest such order below all of them."""
    if not orders:
        raise ValueError("need at least one order")
    for t in orders:
        _check_shape(form, t)
    rel = {}
    for x in form.base.objects:
        n = form.fibre(x).size
        rel[x] = tuple(
            _and_all(t.rel[x][a] for t in orders) for a in range(n)
        )
    return TopogenousOrder(rel)


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
    _check_shape(form, order)
    maps = {}
    for x in form.base.objects:
        fib = form.fibre(x)
        rows = order.rel[x]
        maps[x] = tuple(fib.meet(bits(rows[a])) for a in range(fib.size))
    return Operator("closure", maps)


def order_from_closure(form: FormInstance, clo: Operator) -> TopogenousOrder:
    """a related to b iff the closure of a is below b."""
    _check_operator_shape(form, clo.maps)
    rel = {}
    for x in form.base.objects:
        fib = form.fibre(x)
        t = clo.table(x)
        rel[x] = tuple(fib.up[t[a]] for a in range(fib.size))
    return TopogenousOrder(rel)


def interior_from_order(form: FormInstance, order: TopogenousOrder) -> Operator:
    """Each element goes to the join of everything related below it."""
    _check_shape(form, order)
    maps = {}
    for x in form.base.objects:
        fib = form.fibre(x)
        rows = order.rel[x]
        maps[x] = tuple(
            fib.join([a for a in range(fib.size) if (rows[a] >> b) & 1])
            for b in range(fib.size)
        )
    return Operator("interior", maps)


def order_from_interior(form: FormInstance, intr: Operator) -> TopogenousOrder:
    """a related to b iff a is below the interior of b."""
    _check_operator_shape(form, intr.maps)
    rel = {}
    for x in form.base.objects:
        fib = form.fibre(x)
        t = intr.table(x)
        rel[x] = tuple(
            sum(1 << b for b in range(fib.size) if fib.leq(a, t[b]))
            for a in range(fib.size)
        )
    return TopogenousOrder(rel)


def _check_operator_shape(form: FormInstance, maps: Mapping[str, tuple[int, ...]]) -> None:
    for x in maps:
        if x not in form.fibres:
            raise InputError(f"operator maps object {x!r}, which the form does not have")
    for x in form.base.objects:
        t = maps.get(x)
        if t is None:
            raise InputError(f"operator has no table for object {x!r}")
        fib = form.fibre(x)
        if len(t) != fib.size or any(not 0 <= v < fib.size for v in t):
            raise InputError(f"operator table for {x!r} does not fit the fibre")


def verify_closure(form: FormInstance, clo: Operator) -> Report:
    """Extensivity plus transfer-compatibility in its four equivalent
    phrasings, with a cross-check that all four verdicts coincide."""
    _check_operator_shape(form, clo.maps)
    rep = Report()
    for x in form.base.objects:
        fib = form.fibre(x)
        t = clo.table(x)
        for a in range(fib.size):
            rep.count("C1")
            if not fib.leq(a, t[a]):
                rep.add("C1", where=x, witness=(a,))
    v_main = v_push = v_pull = v_split = True
    for f in form.base.morphisms():
        x, y = form.base.dom[f], form.base.cod[f]
        fx, fy = form.fibre(x), form.fibre(y)
        cx, cy = clo.table(x), clo.table(y)
        push, pull = form.push_maps[f].table, form.pull_maps[f].table
        for a in range(fx.size):
            for b in range(fy.size):
                rep.count("C2")
                if form.leq_over(f, a, b) and not form.leq_over(f, cx[a], cy[b]):
                    rep.add("C2", where=f, witness=(a, b))
                    v_main = False
                if fy.leq(push[a], b) and not fy.leq(push[cx[a]], cy[b]):
                    v_push = False
                if fx.leq(a, pull[b]) and not fx.leq(cx[a], pull[cy[b]]):
                    v_pull = False
        for a in range(fx.size):
            if not fy.leq(push[cx[a]], cy[push[a]]):
                v_split = False
    for x in form.base.objects:
        fib = form.fibre(x)
        t = clo.table(x)
        for a in range(fib.size):
            for b in bits(fib.up[a]):
                if not fib.leq(t[a], t[b]):
                    v_split = False
    rep.count("C2-form-agreement")
    if not (v_main == v_push == v_pull == v_split):
        rep.add(
            "C2-form-agreement",
            witness=(v_main, v_push, v_pull, v_split),
            detail="equivalent phrasings of transfer-compatibility disagree",
        )
    return rep


def verify_interior(form: FormInstance, intr: Operator) -> Report:
    """Contractivity, monotonicity, and pull-compatibility."""
    _check_operator_shape(form, intr.maps)
    rep = Report()
    for x in form.base.objects:
        fib = form.fibre(x)
        t = intr.table(x)
        for a in range(fib.size):
            rep.count("I1")
            if not fib.leq(t[a], a):
                rep.add("I1", where=x, witness=(a,))
            for b in bits(fib.up[a]):
                rep.count("I2")
                if not fib.leq(t[a], t[b]):
                    rep.add("I2", where=x, witness=(a, b))
    for f in form.base.morphisms():
        x, y = form.base.dom[f], form.base.cod[f]
        fx = form.fibre(x)
        ix, iy = intr.table(x), intr.table(y)
        pull = form.pull_maps[f].table
        for b in range(form.fibre(y).size):
            rep.count("I3")
            if not fx.leq(pull[iy[b]], ix[pull[b]]):
                rep.add("I3", where=f, witness=(b,))
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
        all(t[t[a]] == t[a] for a in range(len(t))) for t in op.maps.values()
    )


def roundtrip_check(form: FormInstance, obj, cls: Optional[OrderClass] = None) -> Report:
    """The order/operator correspondences, round-tripped exactly.

    Orders must be meet-stable (closure side) or join-stable (interior
    side); wrong-class inputs are reported as skipped. Also asserts that
    idempotency of the derived operator matches interpolativity. ``cls``,
    when given, is the class of an order whose axioms the caller has
    already verified, and neither is computed again."""
    rep = Report()
    if isinstance(obj, TopogenousOrder):
        if cls is None:
            bad = verify_order(form, obj)
            if not bad.ok:
                rep.merge(bad)
                rep.notes.append("input order fails its axioms; round trip skipped")
                return rep
            cls = classify_order(form, obj)
        if not cls.is_TM and not cls.is_TJ:
            rep.notes.append("order is neither meet- nor join-stable; round trip skipped")
            return rep
        for kind, stable in (("closure", cls.is_TM), ("interior", cls.is_TJ)):
            if not stable:
                continue
            op = operator_from_order(form, obj, kind)
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
        rep.merge(verify_order(form, order))
        cls = classify_order(form, order)
        stable, flag = ("TM", cls.is_TM) if kind == "closure" else ("TJ", cls.is_TJ)
        rep.count(f"derived-order-is-{stable}")
        if not flag:
            rep.add(f"derived-order-is-{stable}")
        back = operator_from_order(form, order, kind)
        rep.count(f"{kind}-order-{kind}")
        if back != obj:
            rep.add(f"{kind}-order-{kind}", detail=f"derived {kind} differs from the input")
        _check_idempotent(rep, obj, cls)
        return rep
    raise TypeError(f"expected an order or operator, got {type(obj).__name__}")


def _check_idempotent(rep: Report, op: Operator, cls: OrderClass) -> None:
    rep.count("idempotent-iff-interpolative")
    if is_idempotent(op) != cls.is_interpolative:
        rep.add("idempotent-iff-interpolative", witness=(is_idempotent(op), cls.is_interpolative))

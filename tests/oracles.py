"""The dense oracles the fast kernels of ``formkit`` are tested against,
and the name-level view of a base category that they and the tests read.

Each oracle states its check as a sweep over every pair or triple, or
computes a builder's table entry on its own, and is written apart from the
kernel it checks. An oracle may call the dense fallbacks that production
itself runs when a fast sweep fails (the base's ``_dense_associativity``,
the form's ``_dense_functoriality`` and
``formkit.lattice.monotone_violation_dense``), and never the fast helpers
it checks. The predicates on map tables that only tests ask
(:func:`is_monotone`, :func:`preserves_joins`, :func:`preserves_meets`)
and :func:`report_dict`, the form in which tests compare reports, live
here too.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Optional

from formkit.forms import CategoryPresentation, CorruptFormError, FormInstance, MorphismKind
from formkit.groups import FiniteGroup, GroupHom
from formkit.lattice import FiniteLattice, bits, monotone_violation, monotone_violation_dense
from formkit.morphisms import _kind_clauses, _reflection_flags
from formkit.partitions import Partition
from formkit.report import Report
from formkit.setmaps import SetFunction
from formkit.topogenous import Operator, TopogenousOrder
from formkit.topologies import FiniteTopology

# -- reports ------------------------------------------------------------------------


def report_dict(rep: Report) -> dict:
    """A report in comparable form: ok, checks_run, the violations as
    dicts in a stable order, and the notes."""
    ordered = sorted(rep.violations, key=lambda v: (v.check, v.where, tuple(map(str, v.witness)), v.detail))
    return {
        "ok": rep.ok,
        "checks_run": rep.checks_run,
        "violations": [v.to_dict() for v in ordered],
        "notes": list(rep.notes),
    }


# -- Galois connections ------------------------------------------------------------


def galois_check(left, right, source: FiniteLattice, target: FiniteLattice) -> Report:
    """Every (A, B) where exactly one side of left(A) <= B iff
    A <= right(B) holds, for tables ``left``: ``source`` -> ``target`` and
    ``right`` back: the oracle of the adjoints that
    :func:`formkit.lattice.upper_adjoint` and
    :func:`formkit.lattice.lower_adjoint` derive. ValueError when the two
    tables do not have one entry per element of their sources."""
    if len(left) != source.size or len(right) != target.size:
        raise ValueError("left/right must connect the same two lattices in opposite directions")
    rep = Report()
    for a in range(source.size):
        for b in range(target.size):
            rep.count("galois")
            if target.leq(left[a], b) != source.leq(a, right[b]):
                rep.add("galois", witness=(a, b))
    return rep


def is_monotone(table, source: FiniteLattice, target: FiniteLattice) -> bool:
    return monotone_violation(table, source, target) is None


def preserves_joins(table, source: FiniteLattice, target: FiniteLattice) -> bool:
    """Empty and binary joins (hence all joins, the lattice is finite)."""
    return _preserves(table, source, target, "bottom", "join")


def preserves_meets(table, source: FiniteLattice, target: FiniteLattice) -> bool:
    """Empty and binary meets, the dual of :func:`preserves_joins`."""
    return _preserves(table, source, target, "top", "meet")


def _preserves(table, source: FiniteLattice, target: FiniteLattice, empty: str, kind: str) -> bool:
    if table[getattr(source, empty)] != getattr(target, empty):
        return False
    bound_s, bound_t = getattr(source, kind), getattr(target, kind)
    return all(
        table[bound_s((a, b))] == bound_t((table[a], table[b]))
        for a in range(source.size)
        for b in range(a, source.size)
    )


# -- the base category by name ------------------------------------------------------


def hom(base: CategoryPresentation, x: str, y: str) -> tuple[str, ...]:
    """hom(x, y) by name, in number order."""
    return base.homs.get((x, y), ())


def identity(base: CategoryPresentation, x: str) -> str:
    return base.identities[x]


def compose(base: CategoryPresentation, g: str, f: str) -> str:
    """g after f, by name."""
    if base.cod[f] != base.dom[g]:
        raise ValueError(f"cannot compose {g!r} after {f!r}")
    h = base.comp[base.ids[g] * len(base.names) + base.ids[f]]
    if h < 0:
        raise KeyError((g, f))
    return base.names[h]


def composable_pairs(base: CategoryPresentation) -> Iterator[tuple[str, str]]:
    """Every composable (g, f) by name, f in number order, then g."""
    for f in base.names:
        y = base.cod[f]
        for z in base.objects:
            for g in hom(base, y, z):
                yield g, f


def totality_faults(base: CategoryPresentation) -> list[tuple[str, ...]]:
    """Every object without an identity, as (x,), and every composable
    (g, f) by name, f in number order, then g, whose composite is
    undefined, as (g, f), or outside hom(dom f, cod g), as (g, f, g∘f).
    The constructor refuses such a presentation when it walks a name-keyed
    table; this walk stands in for it on the callable tables, which are
    not walked."""
    faults: list[tuple[str, ...]] = [(x,) for x in base.objects if x not in base.identities]
    for g, f in composable_pairs(base):
        try:
            h = compose(base, g, f)
        except KeyError:
            faults.append((g, f))
            continue
        if h not in hom(base, base.dom[f], base.cod[g]):
            faults.append((g, f, h))
    return faults


def assert_total(base: CategoryPresentation) -> None:
    faults = totality_faults(base)
    assert not faults, f"composition is not total: {faults[0]}"


# -- forms ---------------------------------------------------------------------------


def verify_dense(base: CategoryPresentation) -> Report:
    """The checks of :meth:`CategoryPresentation.verify` with identity
    neutrality read by name and associativity swept over every composable
    triple, on a presentation that :func:`totality_faults` finds total."""
    assert_total(base)
    rep = Report()
    rep.count("compose-defined", sum(1 for _ in composable_pairs(base)))
    for f in base.names:
        rep.count("identity-neutral", 2)
        if compose(base, identity(base, base.cod[f]), f) != f:
            rep.add("identity-left", witness=(f,))
        if compose(base, f, identity(base, base.dom[f])) != f:
            rep.add("identity-right", witness=(f,))
    base._dense_associativity(rep)
    return rep


def morphism_kind_dense(base: CategoryPresentation, f: int) -> MorphismKind:
    """Section/retraction/iso status of morphism ``f`` from the hom-set
    lists and composition by name: the oracle of
    :attr:`CategoryPresentation.kinds`."""
    name = base.names[f]
    x, y = base.dom[name], base.cod[name]
    idx, idy = identity(base, x), identity(base, y)
    left_inverses = [g for g in hom(base, y, x) if compose(base, g, name) == idx]
    right_inverses = [g for g in hom(base, y, x) if compose(base, name, g) == idy]
    two_sided = [g for g in left_inverses if g in right_inverses]
    return MorphismKind(
        is_section=bool(left_inverses),
        is_retraction=bool(right_inverses),
        is_iso=bool(two_sided),
        inverse=base.ids[two_sided[0]] if two_sided else None,
    )


def verify_laws_dense(form: FormInstance) -> Report:
    """The laws of :meth:`FormInstance.verify_laws` with every sweep dense:
    monotonicity over every pair a <= b, the Galois test, unit and counit
    through ``leq`` on every fibre pair, and functoriality over every
    composable pair, on a base that :func:`totality_faults` finds total."""
    base = form.base
    assert_total(base)
    rep = Report()
    for x, fib in zip(base.objects, form.fibres):
        i = base.ids[identity(base, x)]
        rep.count("identity-lifting", 2)
        for check, table in (("identity-push", form.push[i]), ("identity-pull", form.pull[i])):
            if len(table) != fib.size or any(v != a for a, v in enumerate(table)):
                rep.add(check, where=x)
    for f, name in enumerate(base.names):
        fx, fy = form.fibres[base.source[f]], form.fibres[base.target[f]]
        pt, qt = form.push[f], form.pull[f]
        rep.count("monotone", 2)
        for check, bad in (
            ("push-monotone", monotone_violation_dense(pt, fx, fy)),
            ("pull-monotone", monotone_violation_dense(qt, fy, fx)),
        ):
            if bad:
                rep.add(check, where=name, witness=bad)
        rep.count("unit", fx.size)
        rep.count("counit", fy.size)
        rep.count("galois", fx.size * fy.size)
        for a in range(fx.size):
            for b in range(fy.size):
                if fy.leq(pt[a], b) != fx.leq(a, qt[b]):
                    rep.add("galois", where=name, witness=(a, b))
        for a in range(fx.size):
            if not fx.leq(a, qt[pt[a]]):
                rep.add("unit", where=name, witness=(a,))
        for b in range(fy.size):
            if not fy.leq(pt[qt[b]], b):
                rep.add("counit", where=name, witness=(b,))
    form._dense_functoriality(rep)
    return rep


# -- orders and operators ----------------------------------------------------------------


def verify_order_dense(form: FormInstance, order: TopogenousOrder) -> Report:
    """The axioms of :func:`formkit.topogenous.verify_order` as pair
    sweeps: T1 per related pair, T2 per pair a2 <= a and element c, T3 per
    fibre pair (a, b) of every morphism."""
    rep = Report()
    base = form.base
    for x, fib, rows in zip(base.objects, form.fibres, order.rel):
        n = fib.size
        rep.count("T1", n)
        for a in range(n):
            stray = [b for b in bits(rows[a]) if not (fib.up[a] >> b) & 1]
            if stray:
                rep.add("T1", where=x, witness=(a, stray[0]))
        for a in range(n):
            reach = {c for b in bits(rows[a]) for c in range(n) if fib.leq(b, c)}
            for a2 in range(n):
                if not fib.leq(a2, a):
                    continue
                rep.count("T2")
                missing = [c for c in range(n) if c in reach and not (rows[a2] >> c) & 1]
                if missing:
                    rep.add("T2", where=x, witness=(a2, a, missing[0]))
    for f, (name, x, y) in enumerate(zip(base.names, base.source, base.target)):
        rows_x, rows_y = order.rel[x], order.rel[y]
        push, pull = form.push[f], form.pull[f]
        for a in range(form.fibres[x].size):
            rep.count("T3")
            bad = [
                b for b in range(form.fibres[y].size)
                if (rows_y[push[a]] >> b) & 1 and not (rows_x[a] >> pull[b]) & 1
            ]
            if bad:
                rep.add("T3", where=name, witness=(a, bad[0]))
    return rep


def check_T3_pull_form_dense(form: FormInstance, order: TopogenousOrder) -> Report:
    """The checks of :func:`formkit.topogenous.check_T3_pull_form` as pair
    loops."""
    rep = Report()
    names = form.base.names
    for f, (x, y) in enumerate(zip(form.base.source, form.base.target)):
        rows_x, rows_y = order.rel[x], order.rel[y]
        push, pull = form.push[f], form.pull[f]
        size_x, size_y = form.fibres[x].size, form.fibres[y].size
        pull_ok = True
        for a in range(size_y):
            for b in bits(rows_y[a]):
                rep.count("pull-form")
                if not (rows_x[pull[a]] >> pull[b]) & 1:
                    rep.add("pull-form", where=names[f], witness=(a, b))
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
            rep.add("pull-form-agrees-T3", where=names[f], witness=(pull_ok, t3_ok))
    return rep


def leq_over(form: FormInstance, f: int, a: int, b: int) -> bool:
    """The transfer order between the fibres of f: push(f, a) <= b,
    equivalently a <= pull(f, b). Both are evaluated and must agree;
    IndexError when a is outside the domain fibre."""
    base = form.base
    fx, fy = form.fibres[base.source[f]], form.fibres[base.target[f]]
    fx._check(a)
    via_push = fy.leq(form.push[f][a], b)
    via_pull = fx.leq(a, form.pull[f][b])
    if via_push != via_pull:
        raise CorruptFormError(
            f"transfer tests disagree for morphism {base.names[f]!r} at ({a}, {b}); "
            "push/pull tables are not an adjoint pair"
        )
    return via_push


def verify_closure_dense(form: FormInstance, clo: Operator) -> Report:
    """The checks of :func:`formkit.topogenous.verify_closure` as a sweep
    over every fibre pair (a, b) of every morphism, through
    :func:`leq_over`, which raises on inconsistent transfer tables."""
    rep = Report()
    base = form.base
    for x, fib, t in zip(base.objects, form.fibres, clo.maps):
        for a in range(fib.size):
            rep.count("C1")
            if not fib.leq(a, t[a]):
                rep.add("C1", where=x, witness=(a,))
    v_main = v_push = v_pull = v_split = True
    for f, (x, y) in enumerate(zip(base.source, base.target)):
        fx, fy = form.fibres[x], form.fibres[y]
        cx, cy = clo.maps[x], clo.maps[y]
        push, pull = form.push[f], form.pull[f]
        for a in range(fx.size):
            for b in range(fy.size):
                rep.count("C2")
                if leq_over(form, f, a, b) and not leq_over(form, f, cx[a], cy[b]):
                    rep.add("C2", where=base.names[f], witness=(a, b))
                    v_main = False
                if fy.leq(push[a], b) and not fy.leq(push[cx[a]], cy[b]):
                    v_push = False
                if fx.leq(a, pull[b]) and not fx.leq(cx[a], pull[cy[b]]):
                    v_pull = False
        for a in range(fx.size):
            if not fy.leq(push[cx[a]], cy[push[a]]):
                v_split = False
    for fib, t in zip(form.fibres, clo.maps):
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


def order_from_interior_dense(form: FormInstance, intr: Operator) -> TopogenousOrder:
    """The order of :func:`formkit.topogenous.order_from_interior` from one
    ``leq`` test per pair."""
    return TopogenousOrder(
        [sum(1 << b for b in range(fib.size) if fib.leq(a, t[b])) for a in range(fib.size)]
        for fib, t in zip(form.fibres, intr.maps)
    )


def verify_interior_dense(form: FormInstance, intr: Operator) -> Report:
    """The axioms of :func:`formkit.topogenous.verify_interior` as pair
    loops of ``leq`` tests."""
    rep = Report()
    base = form.base
    for x, fib, t in zip(base.objects, form.fibres, intr.maps):
        for a in range(fib.size):
            rep.count("I1")
            if not fib.leq(t[a], a):
                rep.add("I1", where=x, witness=(a,))
            for b in bits(fib.up[a]):
                rep.count("I2")
                if not fib.leq(t[a], t[b]):
                    rep.add("I2", where=x, witness=(a, b))
    for f, (x, y) in enumerate(zip(base.source, base.target)):
        fx = form.fibres[x]
        ix, iy = intr.maps[x], intr.maps[y]
        pull = form.pull[f]
        for b in range(form.fibres[y].size):
            rep.count("I3")
            if not fx.leq(pull[iy[b]], ix[pull[b]]):
                rep.add("I3", where=base.names[f], witness=(b,))
    return rep


# -- morphism classes ------------------------------------------------------------------


def strict_violation_dense(form: FormInstance, order: TopogenousOrder, f: int) -> Optional[tuple[int, int]]:
    """The witness of :func:`formkit.morphisms.strict_violation` from a
    sweep of every pair (a, b)."""
    x, y = form.base.source[f], form.base.target[f]
    rows_x, rows_y = order.rel[x], order.rel[y]
    push, pull = form.push[f], form.pull[f]
    for a in range(form.fibres[x].size):
        row_a = rows_x[a]
        for b in range(form.fibres[y].size):
            if (row_a >> pull[b]) & 1 and not (rows_y[push[a]] >> b) & 1:
                return (a, b)
    return None


def final_violation_dense(form: FormInstance, order: TopogenousOrder, f: int) -> Optional[tuple[int, int]]:
    """The witness of :func:`formkit.morphisms.final_violation` from a
    sweep of every pair (b, b')."""
    x, y = form.base.source[f], form.base.target[f]
    rows_x, rows_y = order.rel[x], order.rel[y]
    pull = form.pull[f]
    for b in range(form.fibres[y].size):
        row_pb = rows_x[pull[b]]
        for b2 in range(form.fibres[y].size):
            if (row_pb >> pull[b2]) & 1 and not (rows_y[b] >> b2) & 1:
                return (b, b2)
    return None


def push_preserves_order_dense(form: FormInstance, order: TopogenousOrder, f: int) -> Optional[tuple[int, int]]:
    """The witness of :func:`formkit.morphisms.push_preserves_order` from a
    sweep of every related pair."""
    x, y = form.base.source[f], form.base.target[f]
    rows_x, rows_y = order.rel[x], order.rel[y]
    push = form.push[f]
    for a in range(form.fibres[x].size):
        for b in bits(rows_x[a]):
            if not (rows_y[push[a]] >> push[b]) & 1:
                return (a, b)
    return None


def transfer_laws_check_dense(form: FormInstance, order: TopogenousOrder) -> Report:
    """The clauses of :func:`formkit.morphisms.transfer_laws_check` over
    the composable pairs by name, with composition by name, the
    per-morphism kind scans and the pair sweeps for strictness and
    finality."""
    base = form.base
    n, ids = len(base.names), base.ids
    after: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for g, f in composable_pairs(base):
        after[ids[f]].append((ids[g], ids[compose(base, g, f)]))
    strict_witness = [strict_violation_dense(form, order, m) for m in range(n)]
    final_witness = [final_violation_dense(form, order, m) for m in range(n)]
    kinds = [morphism_kind_dense(base, m) for m in range(n)]
    return _transfer_laws(form, kinds, after, strict_witness, final_witness)


def _transfer_laws(form: FormInstance, kinds, after, strict_witness, final_witness) -> Report:
    """The clauses of :func:`formkit.morphisms.transfer_laws_check` over
    every composable pair: the body of :func:`transfer_laws_check_dense`.
    ``kinds`` holds each morphism's :class:`MorphismKind` and the witnesses
    its strict and final witness, by number; ``after[f]`` lists (g, g∘f)
    for every g composable after f, in number order. Violations come per
    morphism first, then per composable pair, f outer and g inner, then
    clause."""
    rep = Report()
    add = rep.add
    names = form.base.names
    strict = [w is None for w in strict_witness]
    final = [w is None for w in final_witness]
    flags = refl_sec, refl_ret, _ = _reflection_flags(form)
    _kind_clauses(rep, names, strict, final, kinds, flags, strict_witness, final_witness)
    compose_strict = compose_final = cancel_strict = cancel_final = 0
    printed_strict = printed_final = first_section_strict = first_section_final = 0
    for f, pairs in enumerate(after):
        strict_f, final_f = strict[f], final[f]
        cancel = refl_ret and kinds[f].is_retraction
        first_section = refl_sec and kinds[f].is_section
        for g, gf in pairs:
            if strict_f and strict[g]:
                compose_strict += 1
                if not strict[gf]:
                    add("compose-strict", where=f"{names[g]};{names[f]}")
            if final_f and final[g]:
                compose_final += 1
                if not final[gf]:
                    add("compose-final", where=f"{names[g]};{names[f]}")
            if cancel:
                if strict[gf]:
                    cancel_strict += 1
                    if not strict[g]:
                        add("cancel-strict", where=f"{names[g]};{names[f]}")
                if final[gf]:
                    cancel_final += 1
                    if not final[g]:
                        add("cancel-final", where=f"{names[g]};{names[f]}")
            if refl_sec and kinds[g].is_retraction:
                if strict[gf]:
                    printed_strict += 1
                    if not strict_f:
                        add("cancel-strict-as-printed", where=f"{names[g]};{names[f]}")
                if final[gf]:
                    printed_final += 1
                    if not final_f:
                        add("cancel-final-as-printed", where=f"{names[g]};{names[f]}")
            if first_section:
                if strict[gf]:
                    first_section_strict += 1
                    if not strict_f:
                        add("cancel-strict-first-factor-section", where=f"{names[g]};{names[f]}")
                if final[gf]:
                    first_section_final += 1
                    if not final_f:
                        add("cancel-final-first-factor-section", where=f"{names[g]};{names[f]}")
    rep.count("compose-strict", compose_strict)
    rep.count("compose-final", compose_final)
    rep.count("cancel-strict", cancel_strict)
    rep.count("cancel-final", cancel_final)
    rep.count("cancel-strict-as-printed", printed_strict)
    rep.count("cancel-final-as-printed", printed_final)
    rep.count("cancel-strict-first-factor-section", first_section_strict)
    rep.count("cancel-final-first-factor-section", first_section_final)
    return rep


# -- the search's order closure ------------------------------------------------------


def _close_order_dense(form: FormInstance, rel: list[list[int]], want: str) -> None:
    """The closure of :func:`formkit.search._close_order` one rule instance
    at a time, in place: T2 per pair of a related pair and an element
    below, the stability laws per pair of row or column members, T3 per
    related pair."""
    changed = True
    while changed:
        changed = False
        for fib, rows in zip(form.fibres, rel):
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
        for f, (x, y) in enumerate(zip(form.base.source, form.base.target)):
            push, pull = form.push[f], form.pull[f]
            rows_x, rows_y = rel[x], rel[y]
            for a in range(form.fibres[x].size):
                for b in bits(rows_y[push[a]]):
                    bit = 1 << pull[b]
                    if not rows_x[a] & bit:
                        rows_x[a] |= bit
                        changed = True


# -- the builders' table entries, one at a time ------------------------------------------


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def push_partition(f: SetFunction, e: Partition) -> Partition:
    """Pushout along f: the smallest equivalence on the codomain gluing the
    images of glued points. One entry of
    :func:`formkit.partitions.build_quot_form`'s push table."""
    if f.dom_size != e.n:
        raise ValueError("function domain does not match the partition ground set")
    uf = _UnionFind(f.cod_size)
    reps: dict[int, int] = {}
    for x, b in enumerate(e.blocks):
        if b in reps:
            uf.union(f(reps[b]), f(x))
        else:
            reps[b] = x
    return Partition.of([uf.find(y) for y in range(f.cod_size)])


def pull_partition(f: SetFunction, d: Partition) -> Partition:
    """Kernel of the composite: points are glued when their images are.
    One entry of :func:`formkit.partitions.build_quot_form`'s pull table."""
    if f.cod_size != d.n:
        raise ValueError("function codomain does not match the partition ground set")
    return Partition.of([d.blocks[f(x)] for x in range(f.dom_size)])


def final_topology(f: SetFunction, t: FiniteTopology) -> FiniteTopology:
    """Finest topology on the codomain making f continuous: V is open iff
    its preimage is. One entry of
    :func:`formkit.topologies.build_top_form`'s push table."""
    if f.dom_size != t.n:
        raise ValueError("function domain does not match the topology carrier")
    opens = frozenset(v for v in range(1 << f.cod_size) if f.preimage_mask(v) in t.opens)
    return FiniteTopology(f.cod_size, opens)


def initial_topology(f: SetFunction, t: FiniteTopology) -> FiniteTopology:
    """Coarsest topology on the domain making f continuous: the preimages.
    One entry of :func:`formkit.topologies.build_top_form`'s pull table."""
    if f.cod_size != t.n:
        raise ValueError("function codomain does not match the topology carrier")
    return FiniteTopology(f.dom_size, frozenset(f.preimage_mask(v) for v in t.opens))


def is_clopen_map(f: SetFunction, t_dom: FiniteTopology, t_cod: FiniteTopology) -> bool:
    """Images of opens are open and images of closeds are closed: one bit
    of :func:`formkit.topologies.clopen_targets`."""
    if f.dom_size != t_dom.n or f.cod_size != t_cod.n:
        raise ValueError("carrier sizes do not match")
    for o in t_dom.opens:
        if f.image_mask(o) not in t_cod.opens:
            return False
    cod_closed = t_cod.closed_sets()
    for c in t_dom.closed_sets():
        if f.image_mask(c) not in cod_closed:
            return False
    return True


BRUTE_FORCE_ORDER = 6


def enumerate_homs_bruteforce(g: FiniteGroup, h: FiniteGroup) -> list[GroupHom]:
    """Filter all value tables with the identity pinned: the oracle of
    :func:`formkit.groups.enumerate_homs` on sources of order at
    most BRUTE_FORCE_ORDER."""
    if g.n > BRUTE_FORCE_ORDER:
        raise ValueError(f"brute force capped at source order {BRUTE_FORCE_ORDER}")
    homs = []
    for rest in product(range(h.n), repeat=g.n - 1):
        table = (0,) + rest
        ok = True
        for a in range(g.n):
            for b in range(g.n):
                if table[g.op(a, b)] != h.op(table[a], table[b]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            homs.append(GroupHom(g, h, table))
    homs.sort(key=lambda m: m.table)
    return homs

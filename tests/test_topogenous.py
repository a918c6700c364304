"""Topogenous orders: axioms, classification, the closure/interior
correspondences and their round trips, intersections."""

from itertools import combinations

import pytest

from formkit.checks import CHECKS, SKIP_NOTES, CheckContext, run_checks
from formkit.forms import CategoryPresentation, FormInstance
from formkit.jsonio import order_from_dict
from formkit.lattice import FiniteLattice, upper_adjoint
from formkit.topogenous import (
    Operator,
    TopogenousOrder,
    check_T3_pull_form,
    classify_order,
    closure_from_order,
    interior_from_order,
    intersect_orders,
    is_idempotent,
    leq_order,
    order_from_closure,
    order_from_interior,
    pulled_table,
    roundtrip_check,
    verify_closure,
    verify_interior,
    verify_order,
)
from formkit.topologies import b_order, theta_order


def single_object_form(lat: FiniteLattice) -> FormInstance:
    base = CategoryPresentation(
        ["X"], {("X", "X"): ["id"]}, {("id", "id"): "id"}, {"X": "id"}
    )
    ident = tuple(range(lat.size))
    return FormInstance(base, [lat], [ident], [ident])


def collapse_form() -> FormInstance:
    """One arrow from a singleton fibre into a 2-chain, with the constant
    adjunction; the smallest stage for transfer-axiom failures."""
    x_fib = FiniteLattice.chain(1)
    y_fib = FiniteLattice.chain(2)
    base = CategoryPresentation(
        ["X", "Y"],
        {("X", "X"): ["idX"], ("Y", "Y"): ["idY"], ("X", "Y"): ["f"], ("Y", "X"): []},
        {("idX", "idX"): "idX", ("idY", "idY"): "idY", ("f", "idX"): "f", ("idY", "f"): "f"},
        {"X": "idX", "Y": "idY"},
    )
    push = {"idX": ((0,), x_fib, x_fib), "idY": ((0, 1), y_fib, y_fib), "f": ((0,), x_fib, y_fib)}
    pull = {name: upper_adjoint(*m) for name, m in push.items()}
    return FormInstance(base, [x_fib, y_fib], [push[m][0] for m in base.names], [pull[m] for m in base.names])


def test_leq_order_is_topogenous_everywhere(top123, grp8, quot123):
    for bundle in (top123, grp8, quot123):
        T = leq_order(bundle.form)
        assert verify_order(bundle.form, T, pulled_table(bundle.form, T)).ok
        cls = classify_order(bundle.form, T)
        assert cls.is_TM and cls.is_TJ and cls.is_interpolative


def test_full_relation_violates_T1():
    form = single_object_form(FiniteLattice.chain(2))
    full = TopogenousOrder([(0b11, 0b11)])
    rep = verify_order(form, full, pulled_table(form, full))
    assert any(v.check == "T1" and v.witness == (1, 0) for v in rep.violations)


def test_diagonal_on_chain_violates_T2():
    form = single_object_form(FiniteLattice.chain(2))
    diag = TopogenousOrder([(0b01, 0b10)])
    rep = verify_order(form, diag, pulled_table(form, diag))
    assert any(v.check == "T2" for v in rep.violations)


def test_shape_mismatch_is_an_error():
    # an order's shape is checked where its document is read
    form = single_object_form(FiniteLattice.chain(2))
    short, stray = {"rel": {"X": [[True]]}}, {"rel": {"Y": [[True, False], [False, True]]}}
    with pytest.raises(ValueError):
        order_from_dict(short, form)
    with pytest.raises(ValueError):
        order_from_dict(stray, form)


def test_t3_violation_and_pull_form_agree():
    form = collapse_form()
    # empty relation on X, the fibre order on Y: T1/T2 hold, T3 fails on f
    bad = TopogenousOrder([(0,), (0b11, 0b10)])
    rep = verify_order(form, bad, pulled_table(form, bad))
    t3 = [v for v in rep.violations if v.check == "T3"]
    assert t3 and all(v.where == "f" for v in t3)
    pf = check_T3_pull_form(form, bad, pulled_table(form, bad))
    pulls = [v for v in pf.violations if v.check == "pull-form"]
    assert pulls and all(v.where == "f" for v in pulls)
    assert not [v for v in pf.violations if v.check == "pull-form-agrees-T3"]


def test_pull_form_agreement_on_instances(top123, theta123, b123, grp8, ni8):
    assert check_T3_pull_form(top123.form, theta123, pulled_table(top123.form, theta123)).ok
    assert check_T3_pull_form(top123.form, b123, pulled_table(top123.form, b123)).ok
    assert check_T3_pull_form(grp8.form, ni8, pulled_table(grp8.form, ni8)).ok


def test_classification_examples(top123, theta123, b123):
    th = classify_order(top123.form, theta123)
    assert th.is_TM
    bo = classify_order(top123.form, b123)
    assert bo.is_TJ


def test_subset_reduction_agrees_with_exhaustive(top12):
    # same verdicts with the exhaustive sweep and the pairs+empty+full one
    # of the subset scan; the principal-filter test reports the same flag
    import formkit.topogenous as tp

    orders = [leq_order(top12.form), theta_order(top12), b_order(top12)]
    verdicts_full = [tp.classify_order_dense(top12.form, T) for T in orders]
    old = tp.EXHAUSTIVE_SUBSET_LIMIT
    tp.EXHAUSTIVE_SUBSET_LIMIT = 0
    try:
        verdicts_reduced = [tp.classify_order_dense(top12.form, T) for T in orders]
        assert [classify_order(top12.form, T) for T in orders] == verdicts_reduced
    finally:
        tp.EXHAUSTIVE_SUBSET_LIMIT = old
    assert [classify_order(top12.form, T) for T in orders] == verdicts_full
    for v_full, v_red in zip(verdicts_full, verdicts_reduced):
        assert (v_full.is_TM, v_full.is_TJ, v_full.is_interpolative) == (
            v_red.is_TM,
            v_red.is_TJ,
            v_red.is_interpolative,
        )
    assert all(v.exhaustive for v in verdicts_full)
    assert not any(v.exhaustive for v in verdicts_reduced)


def test_intersection_identity_and_idempotence(top12):
    T = theta_order(top12)
    assert intersect_orders(top12.form, [T]) == T
    le = leq_order(top12.form)
    assert intersect_orders(top12.form, [le, le]) == le


def test_intersection_of_theta_and_b_is_topogenous(top12):
    T = intersect_orders(top12.form, [theta_order(top12), b_order(top12)])
    assert verify_order(top12.form, T, pulled_table(top12.form, T)).ok


def test_intersection_preserves_TM_TJ(top12, grp8, ni8):
    form = top12.form
    tm = intersect_orders(form, [theta_order(top12), leq_order(form)])
    assert classify_order(form, tm).is_TM
    tj = intersect_orders(form, [b_order(top12), leq_order(form)])
    assert classify_order(form, tj).is_TJ


def _all_orders_on(lat: FiniteLattice):
    form = single_object_form(lat)
    n = lat.size
    leq_pairs = [(a, b) for a in range(n) for b in range(n) if lat.leq(a, b)]
    out = []
    for r in range(len(leq_pairs) + 1):
        for chosen in combinations(leq_pairs, r):
            rows = [0] * n
            for a, b in chosen:
                rows[a] |= 1 << b
            T = TopogenousOrder([rows])
            if verify_order(form, T, pulled_table(form, T)).ok:
                out.append(T)
    return form, out


def test_intersection_is_greatest_common_suborder():
    # brute force over every relation on small single-object forms
    form, all_orders = _all_orders_on(FiniteLattice.chain(2))
    assert len(all_orders) == 5
    for t1 in all_orders:
        for t2 in all_orders:
            inter = intersect_orders(form, [t1, t2])
            below = [T for T in all_orders if T.contained_in(t1) and T.contained_in(t2)]
            assert inter in below
            assert all(T.contained_in(inter) for T in below)


def test_intersection_greatest_on_five_element_fibres():
    diamond = FiniteLattice(
        [[a == b or a == 0 or b == 4 for b in range(5)] for a in range(5)]
    )
    pentagon_pairs = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 3), (2, 4), (3, 4)}
    pentagon = FiniteLattice(
        [[a == b or (a, b) in pentagon_pairs for b in range(5)] for a in range(5)]
    )
    for lat in (diamond, pentagon):
        form, all_orders = _all_orders_on(lat)
        # sample pairs; the full square is large but the sample stays honest
        probe = all_orders[:: max(1, len(all_orders) // 12)]
        for t1 in probe:
            for t2 in probe:
                inter = intersect_orders(form, [t1, t2])
                assert verify_order(form, inter, pulled_table(form, inter)).ok
                assert inter.contained_in(t1) and inter.contained_in(t2)
                below = [
                    T for T in all_orders if T.contained_in(t1) and T.contained_in(t2)
                ]
                assert all(T.contained_in(inter) for T in below)


def test_closure_from_leq_is_identity(top12, grp8):
    for bundle in (top12, grp8):
        clo = closure_from_order(bundle.form, leq_order(bundle.form))
        for x, fib in enumerate(bundle.form.fibres):
            assert clo.maps[x] == tuple(range(fib.size))


def test_order_from_identity_closure_is_leq(top12):
    form = top12.form
    ident = Operator("closure", [tuple(range(fib.size)) for fib in form.fibres])
    assert order_from_closure(form, ident) == leq_order(form)


def test_constant_to_top_closure(top12):
    form = top12.form
    const = Operator("closure", [tuple(fib.top for _ in range(fib.size)) for fib in form.fibres])
    assert verify_closure(form, const).ok
    T = order_from_closure(form, const)
    assert verify_order(form, T, pulled_table(form, T)).ok
    for x, fib in enumerate(form.fibres):
        top = fib.top
        for a in range(fib.size):
            assert T.rel[x][a] == 1 << top


def test_constant_to_bottom_interior():
    # valid only where pulls preserve the bottom, e.g. over one object;
    # on the topology form the initial topology of a constant map is the
    # fibre top, so contractivity transfer (I3) genuinely fails there
    form = single_object_form(FiniteLattice.chain(3))
    const = Operator("interior", [(0, 0, 0)])
    assert verify_interior(form, const).ok
    T = order_from_interior(form, const)
    assert verify_order(form, T, pulled_table(form, T)).ok
    assert T.rel[0] == (0b111, 0, 0)


def test_constant_to_bottom_interior_fails_I3_on_top_form(top12):
    form = top12.form
    const = Operator("interior", [tuple(fib.bottom for _ in range(fib.size)) for fib in form.fibres])
    rep = verify_interior(form, const)
    assert any(v.check == "I3" for v in rep.violations)


def test_verify_closure_four_forms_agree_on_instances(top12, theta123, top123):
    ident = Operator("closure", [tuple(range(fib.size)) for fib in top12.form.fibres])
    rep = verify_closure(top12.form, ident)
    assert rep.ok
    theta_clo = closure_from_order(top123.form, theta123)
    assert verify_closure(top123.form, theta_clo).ok


def test_verify_closure_on_grp_pair(grp8, ni8):
    from formkit.groups import build_grp_form, cyclic, symmetric3, normal_interval_order

    sf = build_grp_form([cyclic(4), symmetric3()])
    clo = closure_from_order(sf.form, normal_interval_order(sf))
    assert verify_closure(sf.form, clo).ok


def test_fault_injected_interior_reports_I1(top12):
    form = top12.form
    maps = []
    for fib in form.fibres:
        t = list(range(fib.size))
        maps.append(tuple(t))
    bad = list(maps)
    x = form.base.objects.index("2pt")
    fib = form.fibres[x]
    t = list(bad[x])
    t[fib.bottom] = fib.top
    bad[x] = tuple(t)
    rep = verify_interior(form, Operator("interior", bad))
    assert any(v.check == "I1" for v in rep.violations)


def test_fault_injected_closure_reports_C1_and_form_disagreement(top123, theta123):
    clo = closure_from_order(top123.form, theta123)
    maps = [list(t) for t in clo.maps]
    x = top123.form.base.objects.index("3pt")
    fib = top123.form.fibres[x]
    maps[x][fib.top] = fib.bottom
    rep = verify_closure(top123.form, Operator("closure", maps))
    assert not rep.ok
    assert any(v.check == "C1" for v in rep.violations)


def test_roundtrip_of_a_closure_failing_C1_is_skipped(top123, theta123):
    # the round trip reports the input's axiom violations and stops there
    clo = closure_from_order(top123.form, theta123)
    maps = [list(t) for t in clo.maps]
    x = top123.form.base.objects.index("3pt")
    fib = top123.form.fibres[x]
    maps[x][fib.top] = fib.bottom
    bad = Operator("closure", maps)
    axioms = verify_closure(top123.form, bad)
    assert any(v.check == "C1" for v in axioms.violations)
    rep = roundtrip_check(top123.form, bad)
    assert (rep.violations, rep.checks_run) == (axioms.violations, axioms.checks_run)
    assert rep.notes == ["input closure fails its axioms; round trip skipped"]


def test_idempotency(top123, theta123, b123, grp8, ni8):
    assert is_idempotent(closure_from_order(top123.form, theta123))
    assert is_idempotent(interior_from_order(top123.form, b123))
    assert is_idempotent(closure_from_order(grp8.form, ni8))


def order_roundtrip(form: FormInstance, order: TopogenousOrder):
    """roundtrip_check on an order, with the class and the derived
    operators the registry passes it."""
    ctx = CheckContext(form, order)
    assert ctx.axioms.ok
    return roundtrip_check(form, order, ctx.cls, ctx.derived())


def test_roundtrips_exact(top123, theta123, b123, grp8, ni8, quot123):
    assert order_roundtrip(top123.form, theta123).ok
    assert order_roundtrip(top123.form, b123).ok
    assert order_roundtrip(grp8.form, ni8).ok
    for bundle in (top123, grp8, quot123):
        assert order_roundtrip(bundle.form, leq_order(bundle.form)).ok


def test_roundtrip_of_an_order_needs_its_class_and_operators(top123, theta123):
    with pytest.raises(TypeError, match="class and derived operators"):
        roundtrip_check(top123.form, theta123)


def test_roundtrip_from_closures(top123, theta123, grp8, ni8):
    for form, order in ((top123.form, theta123), (grp8.form, ni8)):
        clo = closure_from_order(form, order)
        assert roundtrip_check(form, clo).ok
        ident = Operator("closure", [tuple(range(fib.size)) for fib in form.fibres])
        assert roundtrip_check(form, ident).ok


def test_roundtrip_from_interior(top123, b123):
    intr = interior_from_order(top123.form, b123)
    assert roundtrip_check(top123.form, intr).ok


def test_roundtrip_skips_wrong_class():
    # the empty order is topogenous but fails both empty-family stability
    # conditions (no row reaches the top, the bottom row is not full); the
    # registry's class gate skips the checks that need a class, unrun
    form = collapse_form()
    empty = TopogenousOrder([(0,), (0, 0)])
    assert verify_order(form, empty, pulled_table(form, empty)).ok
    cls = classify_order(form, empty)
    assert not cls.is_TM and not cls.is_TJ
    gated = {name: CHECKS[name].stable for name in ("strict-via-operators", "cohereditary-operator", "roundtrip")}
    results = run_checks(CheckContext(form, empty), gated)
    assert results == [
        {"name": name, "status": "skipped", "checks_run": 0, "violations": [], "notes": [SKIP_NOTES[stable]]}
        for name, stable in gated.items()
    ]


def test_monotone_assignments_between_orders(top123, theta123, b123):
    form = top123.form
    le = leq_order(form)
    # every topogenous order sits below the fibre order
    assert theta123.contained_in(le)
    assert b123.contained_in(le)
    clo_theta = closure_from_order(form, theta123)
    clo_le = closure_from_order(form, le)
    for x, fib in enumerate(form.fibres):
        for a in range(fib.size):
            # smaller order, larger closure
            assert fib.leq(clo_le.maps[x][a], clo_theta.maps[x][a])
    # and back: comparable closures give nested orders
    t_from_theta = order_from_closure(form, clo_theta)
    t_from_le = order_from_closure(form, clo_le)
    assert t_from_theta.contained_in(t_from_le)


def test_monotone_assignments_interiors(top123, b123):
    form = top123.form
    le = leq_order(form)
    i_b = interior_from_order(form, b123)
    i_le = interior_from_order(form, le)
    for x, fib in enumerate(form.fibres):
        for a in range(fib.size):
            assert fib.leq(i_b.maps[x][a], i_le.maps[x][a])
    assert order_from_interior(form, i_b).contained_in(order_from_interior(form, i_le))


def test_constant_top_closure_roundtrip_on_quot(quot123):
    form = quot123.form
    const = Operator("closure", [tuple(fib.top for _ in range(fib.size)) for fib in form.fibres])
    assert roundtrip_check(form, const).ok
    T = order_from_closure(form, const)
    assert classify_order(form, T).is_TM
    assert order_roundtrip(form, T).ok


def test_derived_order_classes(top123, theta123, b123):
    form = top123.form
    clo = closure_from_order(form, theta123)
    assert classify_order(form, order_from_closure(form, clo)).is_TM
    intr = interior_from_order(form, b123)
    assert classify_order(form, order_from_interior(form, intr)).is_TJ

"""Topology instance: enumeration against the naive filter oracle,
initial/final transfer, theta/b operators and orders."""

from itertools import combinations

import pytest

from formkit.setmaps import SetFunction
from formkit.topogenous import (
    classify_order,
    closure_from_order,
    interior_from_order,
    leq_order,
    verify_order,
)
from formkit.topologies import (
    FiniteTopology,
    b_relation,
    b_topology,
    build_top_form,
    discrete,
    enumerate_topologies,
    final_topology,
    indiscrete,
    initial_topology,
    is_clopen_map,
    is_topology_family,
    theta_relation,
    theta_topology,
    topology_fibre,
)


def naive_topologies(n):
    """Filter every family of subsets containing the empty and full sets for
    closure under union and intersection. Exponential, fine for n <= 4."""
    full = (1 << n) - 1
    middles = [s for s in range(1, full)] if n else []
    out = []
    for r in range(len(middles) + 1):
        for chosen in combinations(middles, r):
            fam = frozenset(chosen) | {0, full}
            if is_topology_family(n, fam):
                out.append(fam)
    return sorted(out, key=lambda f: tuple(sorted(f)))


@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 4), (3, 29)])
def test_enumeration_matches_naive_filter(n, count):
    got = enumerate_topologies(n)
    assert len(got) == count
    assert [tuple(sorted(t.opens)) for t in got] == [tuple(sorted(f)) for f in naive_topologies(n)]


def test_enumeration_count_n4():
    # the naive filter visits 2^14 families here, still fast enough
    got = enumerate_topologies(4)
    assert len(got) == 355
    assert {t.opens for t in got} == {f for f in naive_topologies(4)}


def test_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_topologies(5)


def test_topology_validation():
    with pytest.raises(ValueError):
        FiniteTopology(2, frozenset({0}))  # missing the full set
    with pytest.raises(ValueError):
        FiniteTopology(1, frozenset({0, 1, 2}))  # subset outside carrier


def sierpinski():
    # {1} open, {0} closed
    return FiniteTopology(2, frozenset({0, 2, 3}))


def test_final_topology_examples():
    t = sierpinski()
    ident = SetFunction(2, 2, (0, 1))
    assert final_topology(ident, t) == t
    const = SetFunction(2, 2, (0, 0))
    assert final_topology(const, discrete(2)) == discrete(2)
    point = SetFunction(1, 2, (1,))
    # every subset's preimage is open on the point, so the result is discrete
    assert final_topology(point, discrete(1)) == discrete(2)


def test_initial_topology_examples():
    t = sierpinski()
    ident = SetFunction(2, 2, (0, 1))
    assert initial_topology(ident, t) == t
    const1 = SetFunction(2, 2, (1, 1))
    assert initial_topology(const1, t) == indiscrete(2)
    swap = SetFunction(2, 2, (1, 0))
    assert initial_topology(swap, t) == FiniteTopology(2, frozenset({0, 1, 3}))


def test_transfer_size_mismatch():
    with pytest.raises(ValueError):
        final_topology(SetFunction(2, 2, (0, 1)), discrete(3))
    with pytest.raises(ValueError):
        initial_topology(SetFunction(2, 2, (0, 1)), discrete(3))


def test_theta_examples():
    assert theta_topology(discrete(2)) == discrete(2)
    assert theta_topology(sierpinski()) == indiscrete(2)
    assert theta_topology(indiscrete(3)) == indiscrete(3)


def test_b_examples():
    assert b_topology(discrete(2)) == discrete(2)
    assert b_topology(sierpinski()) == discrete(2)
    assert b_topology(indiscrete(2)) == indiscrete(2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_theta_and_b_bound_the_topology(n):
    for t in enumerate_topologies(n):
        th, bt = theta_topology(t), b_topology(t)
        assert th.opens <= t.opens
        assert t.opens <= bt.opens
        assert is_topology_family(n, th.opens)
        assert is_topology_family(n, bt.opens)


@pytest.mark.parametrize("n", [2, 3])
def test_theta_and_b_monotone_for_inclusion(n):
    tops = enumerate_topologies(n)
    for t1 in tops:
        for t2 in tops:
            if t1.opens <= t2.opens:
                assert theta_topology(t1).opens <= theta_topology(t2).opens
                assert b_topology(t1).opens <= b_topology(t2).opens


def test_fibre_order_is_reverse_inclusion():
    lat, tops = topology_fibre(2)
    assert lat.verify().ok
    assert tops[lat.bottom] == discrete(2)
    assert tops[lat.top] == indiscrete(2)
    # identity map continuous from finer to coarser
    i_disc = next(i for i, t in enumerate(tops) if t == discrete(2))
    i_sier = next(i for i, t in enumerate(tops) if t == sierpinski())
    assert lat.leq(i_disc, i_sier)


def test_fibre_meet_is_generated_topology():
    # meet under reverse inclusion = the topology generated by the union
    lat, tops = topology_fibre(3)
    for i in range(0, lat.size, 5):
        for j in range(1, lat.size, 7):
            m = lat.meet((i, j))
            union = tops[i].opens | tops[j].opens
            generated = min(
                (t.opens for t in tops if union <= t.opens),
                key=len,
            )
            assert tops[m].opens == generated


def test_theta_order_tables():
    tops = enumerate_topologies(2)
    rows = theta_relation(2)
    i_disc = tops.index(discrete(2))
    i_sier = tops.index(sierpinski())
    i_ind = tops.index(indiscrete(2))
    for j in range(len(tops)):
        assert (rows[i_disc] >> j) & 1  # theta(discrete) = discrete contains all
    assert (rows[i_sier] >> i_ind) & 1
    assert not (rows[i_sier] >> i_sier) & 1
    assert (rows[i_ind] >> i_ind) & 1


def test_b_order_tables():
    tops = enumerate_topologies(2)
    rows = b_relation(2)
    i_disc = tops.index(discrete(2))
    i_sier = tops.index(sierpinski())
    i_ind = tops.index(indiscrete(2))
    for j in range(len(tops)):
        assert (rows[i_disc] >> j) & 1
    assert (rows[i_sier] >> i_ind) & 1
    assert not (rows[i_ind] >> i_sier) & 1


def test_orders_verify_and_classify(top123, theta123, b123):
    form = top123.form
    assert verify_order(form, theta123).ok
    assert verify_order(form, b123).ok
    assert classify_order(form, theta123).is_TM
    assert classify_order(form, b123).is_TJ


def test_closure_from_theta_order_is_theta_table(top123, theta123):
    clo = closure_from_order(top123.form, theta123)
    for x in top123.form.base.objects:
        tops = top123.topologies[x]
        expected = tuple(top123.element(x, theta_topology(t)) for t in tops)
        assert clo.table(x) == expected


def test_interior_from_b_order_is_b_table(top123, b123):
    intr = interior_from_order(top123.form, b123)
    for x in top123.form.base.objects:
        tops = top123.topologies[x]
        expected = tuple(top123.element(x, b_topology(t)) for t in tops)
        assert intr.table(x) == expected


def test_build_top_form_shapes():
    one = build_top_form([1])
    assert one.form.fibre("1pt").size == 1
    assert sum(1 for _ in one.form.base.morphisms()) == 1
    two = build_top_form([2])
    assert two.form.fibre("2pt").size == 4
    assert sum(1 for _ in two.form.base.morphisms()) == 4
    assert two.form.verify_laws().ok
    mixed = build_top_form([2, 3])
    assert mixed.form.verify_laws().ok


def test_build_top_form_cap():
    with pytest.raises(ValueError):
        build_top_form([5])


@pytest.mark.parametrize("sizes", [[1, 2, 3], [0, 2, 3]])
def test_transfer_tables_match_final_and_initial_topology(sizes):
    tf = build_top_form(sizes)
    base = tf.form.base
    for f in base.morphisms():
        fn, x, y = tf.functions[f], base.dom[f], base.cod[f]
        assert tf.form.push_maps[f].table == tuple(
            tf.index[y][final_topology(fn, t).key()] for t in tf.topologies[x]
        ), f
        assert tf.form.pull_maps[f].table == tuple(
            tf.index[x][initial_topology(fn, t).key()] for t in tf.topologies[y]
        ), f


def test_build_top_form_at_cap_boundary(top4):
    tf = top4
    assert tf.form.fibre("4pt").size == 355
    assert sum(1 for _ in tf.form.base.morphisms()) == 256
    assert tf.form.base.verify().ok
    assert tf.form.verify_laws().ok
    # and the adjunction directly on one non-trivial morphism
    f = "4pt->4pt:0.0.1.2"
    push, pull = tf.form.push_maps[f], tf.form.pull_maps[f]
    fib = tf.form.fibre("4pt")
    for a in range(0, fib.size, 17):
        for b in range(0, fib.size, 13):
            assert fib.leq(push.table[a], b) == fib.leq(a, pull.table[b])


def test_clopen_examples():
    ident = SetFunction(2, 2, (0, 1))
    assert is_clopen_map(ident, sierpinski(), sierpinski())
    swap = SetFunction(2, 2, (1, 0))
    assert is_clopen_map(swap, discrete(2), discrete(2))
    const = SetFunction(2, 2, (0, 0))
    assert is_clopen_map(const, discrete(2), discrete(2))
    other = FiniteTopology(2, frozenset({0, 1, 3}))  # {0} open instead
    assert not is_clopen_map(ident, sierpinski(), other)


def test_leq_order_is_topogenous(top12):
    assert verify_order(top12.form, leq_order(top12.form)).ok


def test_final_initial_are_adjoint_for_every_endofunction(top12):
    # the lattice-level adjunction checker, independent of the form verifier
    from formkit.lattice import GaloisPair

    form = top12.form
    for f in form.base.hom("2pt", "2pt"):
        pair = GaloisPair(form.push_maps[f], form.pull_maps[f])
        assert pair.check().ok, f


def test_theta_table_is_monotone_on_two_point_fibre():
    from formkit.lattice import MonotoneMap

    lat, tops = topology_fibre(2)
    index = {t.key(): i for i, t in enumerate(tops)}
    table = [index[theta_topology(t).key()] for t in tops]
    assert MonotoneMap(lat, lat, table).is_monotone()

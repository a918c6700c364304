"""Topology instance: enumeration against the naive filter oracle, the
fibre and pull tables against the routes they replaced, initial/final
transfer, theta/b operators and orders."""

import hashlib
import json
import random
import tracemalloc
from itertools import combinations

import pytest

from formkit.lattice import columns
from formkit.setmaps import SetFunction, function_category
from formkit.topogenous import (
    classify_order,
    closure_from_order,
    interior_from_order,
    leq_order,
    pulled_table,
    verify_order,
)
from formkit.topologies import (
    FiniteTopology,
    b_relation,
    b_topology,
    build_top_form,
    clopen_targets,
    discrete,
    enumerate_topologies,
    indiscrete,
    is_topology_family,
    theta_relation,
    theta_topology,
    topology_fibre,
)
from oracles import final_topology, galois_check, hom, initial_topology, is_clopen_map, is_monotone, lattice_from_rows


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


def pattern_topologies(n):
    """The enumeration the preorder walk replaced: every pattern of
    off-diagonal pairs, kept when reflexive-transitive, each giving its
    family of up-closed sets; sorted by canonical key."""
    if n == 0:
        return [FiniteTopology(0, frozenset({0}))]
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    found = []
    for pattern in range(1 << len(offdiag)):
        succ = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(offdiag):
            if (pattern >> k) & 1:
                succ[i] |= 1 << j
        if any(succ[j] & ~succ[i] for i in range(n) for j in range(n) if (succ[i] >> j) & 1):
            continue  # not transitive
        opens = frozenset(
            s for s in range(1 << n) if all(succ[i] & ~s == 0 for i in range(n) if (s >> i) & 1)
        )
        found.append(FiniteTopology(n, opens))
    found.sort(key=FiniteTopology.key)
    return found


def matrix_fibre(tops):
    """The fibre route the membership columns replaced: the boolean matrix
    of reverse inclusion, through ``lattice_from_rows``."""
    rows = [[t2.opens <= t1.opens for t2 in tops] for t1 in tops]
    labels = ["{" + ",".join(map(str, sorted(t.opens))) + "}" for t in tops]
    return lattice_from_rows(rows, labels)


def frozenset_pull(tf, f):
    """The pull route the pulled-back preorders replaced: the open sets of
    each codomain topology translated through the preimage table, as a
    frozenset looked up among the domain's open families."""
    fn, x, y = tf.functions[f], tf.form.base.source[f], tf.form.base.target[f]
    pad = bytes(fn.preimage_mask(v) for v in range(1 << fn.cod_size)).ljust(256, b"\0")
    families = {t.opens: i for i, t in enumerate(tf.topologies[x])}
    return tuple(families[frozenset(bytes(t.key()).translate(pad))] for t in tf.topologies[y])


@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 4), (3, 29), (4, 355)])
def test_fibre_matches_the_pattern_walk_and_the_matrix(n, count):
    lat, tops = topology_fibre(n)
    assert len(tops) == lat.size == count
    assert tops == pattern_topologies(n)
    old = matrix_fibre(tops)
    assert (lat.up, lat.down, lat.labels) == (old.up, old.down, old.labels)
    assert lat.verify().ok


@pytest.mark.parametrize("n", range(5))
def test_fibre_down_masks_are_the_transpose_of_up(n):
    # _fibre passes its down masks (ANDs of open-set membership columns) to
    # the constructor instead of having them derived from up
    lat, _ = topology_fibre(n)
    assert lat.down == tuple(columns(lat.up))


def test_fibre_on_no_points():
    lat, tops = topology_fibre(0)
    assert tops == [FiniteTopology(0, frozenset({0}))]
    assert (lat.up, lat.down, lat.labels) == ((1,), (1,), ("{0}",))


def test_top4_pull_tables_match_the_frozenset_route(top4):
    for f, name in enumerate(top4.form.base.names):
        assert top4.form.pull[f] == frozenset_pull(top4, f), name


def test_top4_tables_match_final_and_initial_topology_on_a_sample(top4):
    # 2,000 seeded (morphism, topology) pairs of top[4], each entry against
    # the one-topology oracles
    rng = random.Random(20230130)
    morphisms = range(len(top4.form.base.names))
    tops, index = top4.topologies[0], top4.index[0]
    for _ in range(2000):
        f, i = rng.choice(morphisms), rng.randrange(len(tops))
        fn = top4.functions[f]
        assert top4.form.push[f][i] == index[final_topology(fn, tops[i]).key()], (f, i)
        assert top4.form.pull[f][i] == index[initial_topology(fn, tops[i]).key()], (f, i)


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
    rows = theta_relation(tops)
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
    rows = b_relation(tops)
    i_disc = tops.index(discrete(2))
    i_sier = tops.index(sierpinski())
    i_ind = tops.index(indiscrete(2))
    for j in range(len(tops)):
        assert (rows[i_disc] >> j) & 1
    assert (rows[i_sier] >> i_ind) & 1
    assert not (rows[i_ind] >> i_sier) & 1


# sha256 of json.dumps(rows) for the theta and b relations on n points,
# recorded when theta_topology and b_topology were separate loops. The two
# relations agree for every n here.
RELATION_DIGESTS = {
    (name, n): digest
    for name in ("theta", "b")
    for n, digest in enumerate([
        "080a9ed428559ef602668b4c00f114f1a11c3f6b02a435f0bdc154578e4d7f22",
        "080a9ed428559ef602668b4c00f114f1a11c3f6b02a435f0bdc154578e4d7f22",
        "aed47a326e32665d8289375e2a7fbed09b7c09ec7cc6922649760a955c32a933",
        "755223289d592ea8b0900c580b0c07dc2b72b054e82fa86cc90b872acbe6dd64",
        "fe3286323b4432a6c8402ba5dcbc388c8e6124356051197cbbc450cf73aebc10",
    ])
}


def test_theta_and_b_relations_are_pinned():
    relation = {"theta": theta_relation, "b": b_relation}
    got = {
        (name, n): hashlib.sha256(json.dumps(relation[name](enumerate_topologies(n))).encode()).hexdigest()
        for name, n in RELATION_DIGESTS
    }
    assert got == RELATION_DIGESTS


def test_orders_verify_and_classify(top123, theta123, b123):
    form = top123.form
    assert verify_order(form, theta123, pulled_table(form, theta123)).ok
    assert verify_order(form, b123, pulled_table(form, b123)).ok
    assert classify_order(form, theta123).is_TM
    assert classify_order(form, b123).is_TJ


def test_closure_from_theta_order_is_theta_table(top123, theta123):
    clo = closure_from_order(top123.form, theta123)
    for x, tops in enumerate(top123.topologies):
        expected = tuple(top123.element(x, theta_topology(t)) for t in tops)
        assert clo.maps[x] == expected


def test_interior_from_b_order_is_b_table(top123, b123):
    intr = interior_from_order(top123.form, b123)
    for x, tops in enumerate(top123.topologies):
        expected = tuple(top123.element(x, b_topology(t)) for t in tops)
        assert intr.maps[x] == expected


def test_build_top_form_shapes():
    one = build_top_form([1])
    assert one.form.fibres[0].size == 1  # 1pt
    assert len(one.form.base.names) == 1
    two = build_top_form([2])
    assert two.form.fibres[0].size == 4  # 2pt
    assert len(two.form.base.names) == 4
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
    for f, name in enumerate(base.names):
        fn, x, y = tf.functions[f], base.source[f], base.target[f]
        assert tf.form.push[f] == tuple(
            tf.index[y][final_topology(fn, t).key()] for t in tf.topologies[x]
        ), name
        assert tf.form.pull[f] == tuple(
            tf.index[x][initial_topology(fn, t).key()] for t in tf.topologies[y]
        ), name


def test_build_top_form_at_cap_boundary(top4):
    tf = top4
    assert tf.form.fibres[0].size == 355  # 4pt
    assert len(tf.form.base.names) == 256
    assert tf.form.base.verify().ok
    assert tf.form.verify_laws().ok
    # and the adjunction directly on one non-trivial morphism
    f = tf.form.base.ids["4pt->4pt:0.0.1.2"]
    push, pull = tf.form.push[f], tf.form.pull[f]
    fib = tf.form.fibres[0]
    for a in range(0, fib.size, 17):
        for b in range(0, fib.size, 13):
            assert fib.leq(push[a], b) == fib.leq(a, pull[b])


def test_clopen_examples():
    ident = SetFunction(2, 2, (0, 1))
    assert is_clopen_map(ident, sierpinski(), sierpinski())
    swap = SetFunction(2, 2, (1, 0))
    assert is_clopen_map(swap, discrete(2), discrete(2))
    const = SetFunction(2, 2, (0, 0))
    assert is_clopen_map(const, discrete(2), discrete(2))
    other = FiniteTopology(2, frozenset({0, 1, 3}))  # {0} open instead
    assert not is_clopen_map(ident, sierpinski(), other)


def test_clopen_table_matches_pairwise_test(top123):
    # every function between the carriers of top[1,2,3], every pair of
    # topologies: the table's bit is is_clopen_map's verdict
    tf = top123
    kinds = set()
    for f in range(len(tf.form.base.names)):
        fn = tf.functions[f]
        t_doms = tf.topologies[tf.form.base.source[f]]
        t_cods = tf.topologies[tf.form.base.target[f]]
        for i, mask in enumerate(clopen_targets(fn, t_doms, t_cods)):
            for j, t in enumerate(t_cods):
                clopen = is_clopen_map(fn, t_doms[i], t)
                assert bool((mask >> j) & 1) == clopen, (f, i, j)
                kinds.add(clopen)
    assert kinds == {True, False}


def test_leq_order_is_topogenous(top12):
    leq = leq_order(top12.form)
    assert verify_order(top12.form, leq, pulled_table(top12.form, leq)).ok


def test_final_initial_are_adjoint_for_every_endofunction(top12):
    # the lattice-level adjunction checker, independent of the form verifier
    form = top12.form
    for f in hom(form.base, "2pt", "2pt"):
        fib, f = form.fibres[form.base.objects.index("2pt")], form.base.ids[f]
        assert galois_check(form.push[f], form.pull[f], fib, fib).ok, form.base.names[f]


def test_theta_table_is_monotone_on_two_point_fibre():
    lat, tops = topology_fibre(2)
    index = {t.key(): i for i, t in enumerate(tops)}
    table = [index[theta_topology(t).key()] for t in tops]
    assert is_monotone(table, lat, lat)


def test_function_category_memory_stays_low():
    # 494 morphisms and 133,300 composable pairs: a string-keyed composition
    # dict peaked at about 18 MB here, the flat id table needs under half
    tracemalloc.start()
    try:
        function_category([1, 2, 3, 4])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9_000_000

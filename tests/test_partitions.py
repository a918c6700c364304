"""Partition instance: Bell counts against an independent oracle, pushout
and kernel transfer, the quotient form."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formkit.partitions import (
    Partition,
    build_quot_form,
    canonical_blocks,
    enumerate_partitions,
    partition_lattice,
)
from formkit.setmaps import SetFunction, all_functions
from oracles import pull_partition, push_partition


def naive_partitions(n):
    """Canonicalize every function {0..n-1} -> {0..n-1} as a block labeling
    and dedup; an enumeration route independent of growth strings."""
    if n == 0:
        return {()}
    return {canonical_blocks(t) for t in product(range(n), repeat=n)}


@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
def test_counts_match_naive_oracle(n, count):
    got = enumerate_partitions(n)
    assert len(got) == count
    assert {p.blocks for p in got} == naive_partitions(n)


def test_cap():
    with pytest.raises(ValueError):
        enumerate_partitions(6)


def test_canonical_labeling_enforced():
    with pytest.raises(ValueError):
        Partition((1, 0))
    assert Partition.of([5, 5, 2]).blocks == (0, 0, 1)


def test_refinement():
    singles = Partition.of([0, 1, 2])
    pair = Partition.of([0, 0, 1])
    one = Partition.of([0, 0, 0])
    assert singles.refines(pair)
    assert pair.refines(one)
    assert not one.refines(pair)
    assert not pair.refines(Partition.of([0, 1, 1]))
    with pytest.raises(ValueError):
        singles.refines(Partition.of([0, 0]))


def test_lattice_bounds_and_oracle():
    lat, parts = partition_lattice(4)
    assert lat.verify().ok
    assert parts[lat.bottom].blocks == (0, 1, 2, 3)
    assert parts[lat.top].blocks == (0, 0, 0, 0)
    index = {p.blocks: i for i, p in enumerate(parts)}
    for i, p in enumerate(parts):
        for j, q in enumerate(parts):
            # meet: same block iff same in both
            meet = canonical_blocks(
                [4 * p.blocks[k] + q.blocks[k] for k in range(4)]
            )
            assert lat.meet((i, j)) == index[meet]


def test_join_matches_unionfind_oracle():
    lat, parts = partition_lattice(4)
    index = {p.blocks: i for i, p in enumerate(parts)}
    for i, p in enumerate(parts):
        for j, q in enumerate(parts):
            parent = list(range(4))

            def find(a):
                while parent[a] != a:
                    a = parent[a]
                return a

            for k in range(4):
                for m in range(4):
                    if p.blocks[k] == p.blocks[m] or q.blocks[k] == q.blocks[m]:
                        ra, rb = find(k), find(m)
                        if ra != rb:
                            parent[rb] = ra
            join = canonical_blocks([find(k) for k in range(4)])
            assert lat.join((i, j)) == index[join]


def test_push_examples():
    f = SetFunction(3, 2, (0, 0, 1))
    ident = SetFunction(3, 3, (0, 1, 2))
    e = Partition.of([0, 1, 0])
    assert push_partition(ident, e) == e
    assert push_partition(f, Partition.of([0, 1, 2])).blocks == (0, 1)
    assert push_partition(f, e).blocks == (0, 0)


def test_pull_examples():
    f = SetFunction(3, 2, (0, 0, 1))
    ident = SetFunction(2, 2, (0, 1))
    d = Partition.of([0, 1])
    assert pull_partition(ident, d) == d
    assert pull_partition(f, d).blocks == (0, 0, 1)
    assert pull_partition(f, Partition.of([0, 0])).blocks == (0, 0, 0)


def test_transfer_size_mismatch():
    with pytest.raises(ValueError):
        push_partition(SetFunction(2, 2, (0, 1)), Partition.of([0, 1, 2]))
    with pytest.raises(ValueError):
        pull_partition(SetFunction(2, 2, (0, 1)), Partition.of([0, 1, 2]))


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (4, 3)])
def test_galois_exhaustive(m, n):
    parts_m = enumerate_partitions(m)
    parts_n = enumerate_partitions(n)
    for fn in all_functions(m, n):
        for e in parts_m:
            pushed = push_partition(fn, e)
            for d in parts_n:
                assert pushed.refines(d) == e.refines(pull_partition(fn, d))


def test_surjections_recover_by_push_after_pull():
    for m, n in [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)]:
        for fn in all_functions(m, n):
            if not fn.is_surjective():
                continue
            for d in enumerate_partitions(n):
                assert push_partition(fn, pull_partition(fn, d)) == d


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_pull_then_push_refines_input(m, n, data):
    table = tuple(data.draw(st.integers(0, n - 1)) for _ in range(m))
    fn = SetFunction(m, n, table)
    d = data.draw(st.sampled_from(enumerate_partitions(n)))
    assert push_partition(fn, pull_partition(fn, d)).refines(d)


def test_quot_form_laws():
    for sizes in ([2], [3], [1, 2, 3]):
        qf = build_quot_form(sizes)
        assert qf.form.verify_laws().ok


def test_quot_form_laws_at_four_points():
    qf = build_quot_form([4])
    assert len(qf.form.base.names) == 256
    assert qf.form.base.verify().ok
    assert qf.form.verify_laws().ok


@pytest.mark.parametrize("sizes", [[0, 1, 2, 3], [2, 4]])
def test_transfer_tables_match_push_and_pull_partition(sizes):
    pf = build_quot_form(sizes)
    base = pf.form.base
    for f, name in enumerate(base.names):
        fn, x, y = pf.functions[f], base.source[f], base.target[f]
        assert pf.form.push[f] == tuple(
            pf.index[y][push_partition(fn, p).blocks] for p in pf.partitions[x]
        ), name
        assert pf.form.pull[f] == tuple(
            pf.index[x][pull_partition(fn, p).blocks] for p in pf.partitions[y]
        ), name


def test_quot_form_cap():
    with pytest.raises(ValueError):
        build_quot_form([6])

"""Lattice substrate: bounds against a brute-force oracle, monotone maps,
derived adjoints."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formkit.lattice import FiniteLattice, bits, cached_fact, check_table, lower_adjoint, monotone_violation, upper_adjoint
from oracles import galois_check, is_monotone, preserves_joins, preserves_meets


def diamond():
    # bottom 0, atoms 1,2,3, top 4 (M3: non-distributive, modular)
    n = 5
    rows = [[False] * n for _ in range(n)]
    for a in range(n):
        rows[a][a] = True
        rows[0][a] = True
        rows[a][4] = True
    return FiniteLattice(rows)


def pentagon():
    # N5: 0 < 1 < 4, 0 < 2 < 3 < 4, with 1 incomparable to 2 and 3
    pairs = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 3), (2, 4), (3, 4)}
    rows = [[a == b or (a, b) in pairs for b in range(5)] for a in range(5)]
    return FiniteLattice(rows)


def brute_meet(lat, elems):
    lower = [c for c in range(lat.size) if all(lat.leq(c, a) for a in elems)]
    best = [c for c in lower if all(lat.leq(d, c) for d in lower)]
    assert len(best) == 1
    return best[0]


def brute_join(lat, elems):
    upper = [c for c in range(lat.size) if all(lat.leq(a, c) for a in elems)]
    best = [c for c in upper if all(lat.leq(c, d) for d in upper)]
    assert len(best) == 1
    return best[0]


@pytest.mark.parametrize("lat", [FiniteLattice.chain(1), FiniteLattice.chain(4), diamond(), pentagon()])
def test_bounds_match_bruteforce(lat):
    assert lat.verify().ok
    for a in range(lat.size):
        for b in range(lat.size):
            assert lat.meet((a, b)) == brute_meet(lat, (a, b))
            assert lat.join((a, b)) == brute_join(lat, (a, b))


def test_meet_join_empty_and_singleton():
    lat = FiniteLattice.chain(3)
    assert lat.meet(()) == lat.top == 2
    assert lat.join(()) == lat.bottom == 0
    assert lat.meet((1,)) == 1
    assert lat.join((1,)) == 1


def test_bounds_on_a_non_lattice_raise():
    # an antichain of two: no bottom, no top, no meet or join of the pair
    lat = FiniteLattice([[True, False], [False, True]])
    for family in ((), (0, 1)):
        with pytest.raises(ValueError, match=r"^no greatest lower bound; not a lattice$"):
            lat.meet(family)
        with pytest.raises(ValueError, match=r"^no least upper bound; not a lattice$"):
            lat.join(family)
    with pytest.raises(ValueError, match=r"^lattice has no top element$"):
        lat.top
    with pytest.raises(ValueError, match=r"^lattice has no bottom element$"):
        lat.bottom


def test_chain_leq_reflexive_transitive():
    lat = FiniteLattice.chain(3)
    assert lat.leq(0, 2)
    for a in range(3):
        assert lat.leq(a, a)
    with pytest.raises(IndexError):
        lat.leq(0, 3)


def test_meet_is_greatest_lower_bound_everywhere():
    for lat in (diamond(), pentagon(), FiniteLattice.chain(5)):
        for a in range(lat.size):
            for b in range(lat.size):
                m = lat.meet((a, b))
                assert lat.leq(m, a) and lat.leq(m, b)
                for c in range(lat.size):
                    if lat.leq(c, a) and lat.leq(c, b):
                        assert lat.leq(c, m)


def test_bound_associative_in_sets():
    lat = pentagon()
    import itertools

    elems = range(lat.size)
    for s in itertools.combinations(elems, 2):
        for t in itertools.combinations(elems, 2):
            combined = lat.meet(s + t)
            assert combined == lat.meet((lat.meet(s), lat.meet(t)))


def test_antichain_reports_missing_bounds():
    rows = [[True, False], [False, True]]
    rep = FiniteLattice(rows).verify()
    assert not rep.ok
    checks = {v.check for v in rep.violations}
    assert "missing-meet" in checks or "missing-top" in checks


def test_verify_counts_every_relation_check():
    # 4 reflexive, 2 x 6 strict pairs, 2 x 10 unordered pairs for bounds, 2 global
    assert FiniteLattice.chain(4).verify().checks_run == 4 + 12 + 20 + 2
    rows = [
        [True, True, False],
        [False, True, True],
        [False, False, True],
    ]
    # stops before the bounds: 3 reflexive, 2 x 2 strict pairs
    assert FiniteLattice(rows).verify().checks_run == 3 + 4


def test_broken_transitivity_reported():
    rows = [
        [True, True, False],
        [False, True, True],
        [False, False, True],
    ]
    rep = FiniteLattice(rows).verify()
    assert any(v.check == "transitive" for v in rep.violations)


def test_monotone_identity_and_constant():
    lat = FiniteLattice.chain(3)
    assert is_monotone((0, 1, 2), lat, lat)
    assert is_monotone((0, 0, 0), lat, lat)
    assert monotone_violation((1, 0, 2), lat, lat) == (0, 1)


def test_monotone_map_validation():
    lat = FiniteLattice.chain(2)
    with pytest.raises(ValueError, match="^table length must match source size$"):
        check_table((0,), lat, lat)
    # the error names the first value out of range, at either end
    three = FiniteLattice.chain(3)
    with pytest.raises(IndexError, match="^table value 5 out of range for target of size 2$"):
        check_table((0, 5, -1), three, lat)
    with pytest.raises(IndexError, match="table value 2 out of range"):
        check_table((0, 2, 1), three, lat)
    with pytest.raises(IndexError, match="table value -1 out of range"):
        check_table((1, -1, 0), three, lat)
    check_table((0, 1, 1), three, lat)


def test_galois_identity_pair_valid():
    lat = diamond()
    same = tuple(range(lat.size))
    assert galois_check(same, same, lat, lat).ok


def test_galois_invalid_pair_has_witness():
    lat = FiniteLattice.chain(2)
    rep = galois_check((1, 1), (0, 1), lat, lat)  # constant to top, and the identity
    assert not rep.ok
    assert (0, 0) in {v.witness for v in rep.violations}


def test_galois_wiring_mismatch_rejected():
    # the identities of a two- and a three-element chain, as a pair on the two-element chain
    two = FiniteLattice.chain(2)
    with pytest.raises(ValueError):
        galois_check((0, 1), (0, 1, 2), two, two)


def test_derived_adjoint_is_valid_and_preserves_bounds():
    src = FiniteLattice.chain(4)
    tgt = pentagon()
    # join-preserving: determined by images of the chain's join-irreducibles
    left = (0, 2, 3, 4)
    right = upper_adjoint(left, src, tgt)
    assert galois_check(left, right, src, tgt).ok
    assert preserves_joins(left, src, tgt)
    assert preserves_meets(right, tgt, src)


def test_derived_lower_adjoint_is_valid():
    src = FiniteLattice.chain(4)
    tgt = pentagon()
    right = upper_adjoint((0, 2, 3, 4), src, tgt)
    left = lower_adjoint(right, tgt, src)
    assert galois_check(left, right, src, tgt).ok
    assert left == (0, 2, 3, 4)


def test_lower_adjoint_of_a_map_keeping_no_meets_raises():
    # monotone on M3, every atom to the top: the atoms 1 and 2 meet to the
    # bottom but their images meet to the top, and the B with 1 <= right(B)
    # are 1, 2, 3 and 4, no element's up-set
    m3, right = diamond(), (0, 4, 4, 4, 4)
    assert is_monotone(right, m3, m3) and not preserves_meets(right, m3, m3)
    with pytest.raises(ValueError, match="element 1 <= right"):
        lower_adjoint(right, m3, m3)


def test_preserving_bounds_fails_on_the_empty_bound_alone():
    # on chains every monotone map keeps binary meets and joins
    two, three = FiniteLattice.chain(2), FiniteLattice.chain(3)
    raised = (1, 2)  # misses the bottom
    assert not preserves_joins(raised, two, three) and preserves_meets(raised, two, three)
    lowered = (0, 1)  # misses the top
    assert not preserves_meets(lowered, two, three) and preserves_joins(lowered, two, three)


def test_preserving_bounds_fails_on_a_binary_bound_alone():
    # M3 onto the chain 0 < 1 < 2, every atom to 1: bottom and top are
    # kept, but two atoms join to the top (sent to 2) and meet to the
    # bottom (sent to 0), while their images join and meet to 1
    m3, three, squash = diamond(), FiniteLattice.chain(3), (0, 1, 1, 1, 2)
    assert is_monotone(squash, m3, three)
    assert not preserves_joins(squash, m3, three)
    assert not preserves_meets(squash, m3, three)


def poset_downset_lattice(below):
    masks = [
        s for s in range(1 << len(below))
        if all(below[j] & ~s == 0 for j in range(len(below)) if (s >> j) & 1)
    ]
    rows = [[m1 & ~m2 == 0 for m2 in masks] for m1 in masks]
    return FiniteLattice(rows), masks


@st.composite
def random_poset(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    below = [0] * k
    for j in range(k):
        for i in range(j):
            if draw(st.booleans()):
                below[j] |= (1 << i) | below[i]
    return below


@settings(max_examples=60, deadline=None)
@given(random_poset(), random_poset(), st.randoms(use_true_random=False))
def test_downset_join_preserving_maps_are_left_adjoints(below_src, below_tgt, rng):
    src, src_masks = poset_downset_lattice(below_src)
    tgt, tgt_masks = poset_downset_lattice(below_tgt)
    tgt_idx = {m: i for i, m in enumerate(tgt_masks)}
    point_img = [0] * len(below_src)
    for j in range(len(below_src)):
        floor = 0
        for i in bits(below_src[j]):
            floor |= point_img[i]
        point_img[j] = rng.choice([m for m in tgt_masks if m & floor == floor])
    table = []
    for m in src_masks:
        out = 0
        for j in bits(m):
            out |= point_img[j]
        table.append(tgt_idx[out])
    assert preserves_joins(table, src, tgt)
    right = upper_adjoint(table, src, tgt)
    assert galois_check(table, right, src, tgt).ok
    assert preserves_meets(right, tgt, src)


def test_cached_fact_is_computed_once_per_instance():
    class Thing:
        def __init__(self, n):
            self.n, self.calls = n, 0

        @cached_fact
        def square(self):
            """n squared."""
            self.calls += 1
            return self.n * self.n

    a, b = Thing(3), Thing(4)
    assert (a.square, a.square, a.calls) == (9, 9, 1)
    assert vars(a)["square"] == 9 and "square" not in vars(b)
    assert (b.square, b.calls, a.calls) == (16, 1, 1)
    # the descriptor itself, read from the class, keeps the docstring
    assert isinstance(Thing.square, cached_fact) and Thing.square.__doc__ == "n squared."
    assert FiniteLattice.meet_table.name == "meet_table"

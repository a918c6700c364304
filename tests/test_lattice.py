"""Lattice substrate: bounds against a brute-force oracle, monotone maps,
Galois pairs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formkit.lattice import FiniteLattice, GaloisPair, MonotoneMap, bits


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
    assert lat.bound("meet", ()) == 2
    with pytest.raises(ValueError):
        lat.bound("sup", (0,))


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
    assert MonotoneMap.identity(lat).is_monotone()
    const = MonotoneMap(lat, lat, [0, 0, 0])
    assert const.is_monotone()
    bad = MonotoneMap(lat, lat, [1, 0, 2])
    assert bad.monotone_violation() == (0, 1)


def test_monotone_map_validation():
    lat = FiniteLattice.chain(2)
    with pytest.raises(ValueError):
        MonotoneMap(lat, lat, [0])
    with pytest.raises(IndexError):
        MonotoneMap(lat, lat, [0, 5])


def test_galois_identity_pair_valid():
    lat = diamond()
    pair = GaloisPair(MonotoneMap.identity(lat), MonotoneMap.identity(lat))
    assert pair.check().ok


def test_galois_invalid_pair_has_witness():
    lat = FiniteLattice.chain(2)
    left = MonotoneMap(lat, lat, [1, 1])  # constant to top
    right = MonotoneMap.identity(lat)
    rep = GaloisPair(left, right).check()
    assert not rep.ok
    assert (0, 0) in {v.witness for v in rep.violations}


def test_galois_wiring_mismatch_rejected():
    with pytest.raises(ValueError):
        GaloisPair(
            MonotoneMap.identity(FiniteLattice.chain(2)),
            MonotoneMap.identity(FiniteLattice.chain(3)),
        )


def test_derived_adjoint_is_valid_and_preserves_bounds():
    src = FiniteLattice.chain(4)
    tgt = pentagon()
    # join-preserving: determined by images of the chain's join-irreducibles
    left = MonotoneMap(src, tgt, [0, 2, 3, 4])
    pair = GaloisPair.from_left_adjoint(left)
    assert pair.check().ok
    assert pair.left.preserves_joins()
    assert pair.right.preserves_meets()


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
    left = MonotoneMap(src, tgt, table)
    assert left.preserves_joins()
    pair = GaloisPair.from_left_adjoint(left)
    assert pair.check().ok
    assert pair.right.preserves_meets()

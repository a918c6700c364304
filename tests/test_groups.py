"""Group instance: subgroup enumeration against the subset-filter oracle,
hom enumeration both routes, transfer maps, the normal-interval order."""

import hashlib
import json
from itertools import permutations, product

import pytest

from formkit.groups import (
    FiniteGroup,
    GroupHom,
    build_grp_form,
    close_subset,
    cyclic,
    dihedral4,
    enumerate_homs,
    is_normal,
    is_subgroup,
    klein_four,
    normal_closure,
    normal_interval_order,
    normal_interval_relation,
    normal_subgroup_masks,
    preserves_normals,
    quaternion8,
    standard_corpus,
    subgroup_lattice,
    subgroup_masks,
    symmetric3,
)
from formkit.topogenous import classify_order, closure_from_order, pulled_table, verify_order
from oracles import enumerate_homs_bruteforce

S3_PERMS = sorted(permutations(range(3)))
SIGN_TABLE = tuple(0 if p in {(0, 1, 2), (1, 2, 0), (2, 0, 1)} else 1 for p in S3_PERMS)
TRANSPOSITION_01 = S3_PERMS.index((1, 0, 2))
A3_MASK = sum(1 << S3_PERMS.index(p) for p in [(0, 1, 2), (1, 2, 0), (2, 0, 1)])


def test_corpus_tables_are_groups():
    for g in standard_corpus(8):
        assert g.verify().ok, g.name
        assert g.table[0] == tuple(range(g.n))


# sha256 of json.dumps(g.table) for each group of standard_corpus(12),
# recorded when V4, S3, D4 and Q8 were each built their own way (XOR rule,
# all permutations, a closure, a table of signed units).
CORPUS_TABLE_DIGESTS = {
    "Z1": "db407f11d7ede59abaab0e98e097ff2dae10a048207b801745d7199ef19c2387",
    "Z2": "c1b92cfd1182059c03f2934cec0ee71e1df9f08ff9f53dec0f3e468e62a0626c",
    "Z3": "17d0eee91e6333e1187ad1a09da05518b40b225dd366ee32342d785c61a3eea4",
    "Z4": "817530d43b21cd6b4da2490d0eff0e80139ee482e7ada0fcf951bad11fe0fbf2",
    "Z5": "5e0a80ad1110516e0dde1c48f11cffc6d8f606455ddf4505a7b77a4a0bef7de2",
    "Z6": "0c9f2a2b544b8808c85cde07de907b677871d08753017e06dd603e9375892293",
    "Z7": "52360c657a054a64b8a211f634f7bdd49189a129e1bc55407dc9eb444e320721",
    "Z8": "adacb0a8e923ba193275373de2aeff6dda59d2f51852a04c36e4f392f44eba9c",
    "V4": "90b5779b7e261488f04c79165fc22dd6b6c6ce01003a762f5efc6173099b54b4",
    "S3": "d306f7f3933e7339e6cfd86bc9d637c347c4fd56cdc2c0627eb667787b141aac",
    "D4": "61c58e7c78ea86cb894105febc0fe02cba184308f84fcaccbedbf877fc10bcb6",
    "Q8": "d9860ecae8b0c6b0ab97fd993d3aa65f9a766406ac51c91074d0f8ca2542d0f2",
}


def test_corpus_tables_are_pinned():
    got = {
        g.name: hashlib.sha256(json.dumps(g.table).encode()).hexdigest()
        for g in standard_corpus(12)
    }
    assert got == CORPUS_TABLE_DIGESTS


def test_verify_counts_triples_up_to_the_first_failure():
    clean = cyclic(3)
    assert clean.verify().checks_run == 2 * 3 + 3 ** 3
    t = [list(row) for row in clean.table]
    t[1][1] = 1  # inverses survive, associativity does not
    bad = FiniteGroup(t, "bad")
    triples = list(product(range(3), repeat=3))
    first = next(
        i for i, (a, b, c) in enumerate(triples) if t[t[a][b]][c] != t[a][t[b][c]]
    )
    rep = bad.verify()
    assert [v.witness for v in rep.violations] == [triples[first]]
    assert rep.checks_run == 2 * 3 + first + 1


SUBGROUP_COUNTS = {
    "Z1": 1, "Z2": 2, "Z3": 2, "Z4": 3, "Z5": 2, "Z6": 4, "Z7": 2, "Z8": 4,
    "V4": 5, "S3": 6, "D4": 10, "Q8": 6,
}


def test_subgroup_counts_and_subset_oracle():
    for g in standard_corpus(8):
        got = subgroup_masks(g)
        assert len(got) == SUBGROUP_COUNTS[g.name], g.name
        brute = [m for m in range(1 << g.n) if is_subgroup(g, m)]
        assert sorted(got) == sorted(brute), g.name


def test_normal_subgroups():
    for g in (cyclic(4), cyclic(6), klein_four()):
        assert normal_subgroup_masks(g) == subgroup_masks(g)
    s3 = symmetric3()
    normals = normal_subgroup_masks(s3)
    assert sorted(normals) == sorted([1, A3_MASK, (1 << 6) - 1])
    q8 = quaternion8()
    assert len(normal_subgroup_masks(q8)) == 6  # every subgroup is normal
    d4 = dihedral4()
    assert len(normal_subgroup_masks(d4)) == 6


def test_subgroup_lattice_bounds():
    s3 = symmetric3()
    lat, masks = subgroup_lattice(s3)
    assert lat.verify().ok
    assert masks[lat.bottom] == 1
    assert masks[lat.top] == (1 << 6) - 1
    # meet is intersection, join is the generated subgroup
    for i, mi in enumerate(masks):
        for j, mj in enumerate(masks):
            assert masks[lat.meet((i, j))] == mi & mj
            assert masks[lat.join((i, j))] == close_subset(s3, mi | mj)


def sign_hom():
    return GroupHom(symmetric3(), cyclic(2), SIGN_TABLE)


def test_sign_hom_transfer():
    h = sign_hom()
    assert h.is_hom()
    assert h.image_mask(A3_MASK) == 1  # the trivial subgroup {0}
    assert h.preimage_mask(1) == A3_MASK
    assert h.preimage_mask(3) == (1 << 6) - 1


def test_doubling_hom_image():
    h = GroupHom(cyclic(2), cyclic(4), (0, 2))
    assert h.is_hom()
    assert h.image_mask(3) == 0b0101  # {0, 2}


def test_hom_counts():
    assert len(enumerate_homs(cyclic(2), cyclic(2))) == 2
    assert len(enumerate_homs(symmetric3(), cyclic(2))) == 2
    assert len(enumerate_homs(cyclic(4), cyclic(2))) == 2
    assert len(enumerate_homs(cyclic(1), quaternion8())) == 1


def test_hom_routes_agree_on_small_sources():
    corpus = standard_corpus(8)
    small = [g for g in corpus if g.n <= 6]
    for g in small:
        for h in corpus:
            brute = [m.table for m in enumerate_homs_bruteforce(g, h)]
            gens = [m.table for m in enumerate_homs(g, h)]
            assert brute == gens, (g.name, h.name)


def test_hom_cap():
    with pytest.raises(ValueError):
        enumerate_homs_bruteforce(quaternion8(), cyclic(2))
    with pytest.raises(ValueError):
        enumerate_homs(cyclic(13), cyclic(2))


def test_every_enumerated_hom_is_a_hom():
    for g in (dihedral4(), quaternion8()):
        for h in (cyclic(4), klein_four()):
            for m in enumerate_homs(g, h):
                assert m.is_hom()


def test_normal_closure_examples():
    s3 = symmetric3()
    assert normal_closure(s3, A3_MASK) == A3_MASK
    t = close_subset(s3, 1 << TRANSPOSITION_01)
    assert normal_closure(s3, t) == (1 << 6) - 1
    z4 = cyclic(4)
    for m in subgroup_masks(z4):
        assert normal_closure(z4, m) == m


def test_normal_closure_is_meet_of_normals_above():
    for g in standard_corpus(8):
        normals = normal_subgroup_masks(g)
        for m in subgroup_masks(g):
            above = [n for n in normals if m & ~n == 0]
            expected = (1 << g.n) - 1
            for n in above:
                expected &= n
            assert normal_closure(g, m) == expected, g.name


def test_normal_interval_relation_examples():
    s3 = symmetric3()
    masks = subgroup_masks(s3)
    rows = normal_interval_relation(s3)
    i_triv = masks.index(1)
    i_full = masks.index((1 << 6) - 1)
    i_t = masks.index(close_subset(s3, 1 << TRANSPOSITION_01))
    i_a3 = masks.index(A3_MASK)
    assert (rows[i_triv] >> i_full) & 1
    assert (rows[i_triv] >> i_a3) & 1
    assert not (rows[i_t] >> i_t) & 1


def test_preserves_normals_examples():
    assert preserves_normals(sign_hom())
    incl = GroupHom(cyclic(2), symmetric3(), (0, TRANSPOSITION_01))
    assert incl.is_hom()
    assert not preserves_normals(incl)
    # any hom into an abelian target preserves normality
    for m in enumerate_homs(symmetric3(), cyclic(6)):
        assert preserves_normals(m)


def test_preserves_normals_matches_the_conjugation_scan(grp8):
    # every hom of the standard corpus: membership among the target's
    # normal subgroups against is_normal's scan of each image
    verdicts = set()
    for hom in grp8.homs:
        scan = all(is_normal(hom.target, hom.image_mask(m)) for m in normal_subgroup_masks(hom.source))
        assert preserves_normals(hom) == scan, hom.table
        verdicts.add(scan)
    assert verdicts == {True, False}


def test_push_tables_are_the_image_subgroups(grp8):
    base = grp8.form.base
    for f, name in enumerate(base.names):
        hom, x, y = grp8.homs[f], base.source[f], base.target[f]
        assert grp8.form.push[f] == tuple(
            grp8.index[y][hom.image_mask(m)] for m in grp8.masks[x]
        ), name


def test_small_grp_forms_pass_laws():
    for groups in ([cyclic(2)], [cyclic(2), cyclic(4)], [symmetric3(), cyclic(2)]):
        sf = build_grp_form(groups)
        assert sf.form.verify_laws().ok


def test_normal_interval_order_on_corpus(grp8, ni8):
    assert verify_order(grp8.form, ni8, pulled_table(grp8.form, ni8)).ok
    cls = classify_order(grp8.form, ni8)
    assert cls.is_TM
    assert cls.is_interpolative


def test_closure_from_order_is_normal_closure(grp8, ni8):
    clo = closure_from_order(grp8.form, ni8)
    for x, g in enumerate(grp8.groups):
        masks = grp8.masks[x]
        expected = tuple(masks.index(normal_closure(g, m)) for m in masks)
        assert clo.maps[x] == expected, x


def test_grp_form_corpus_is_built_once(grp8):
    assert len(grp8.groups) == 12
    assert all(g.n <= 8 for g in grp8.groups)

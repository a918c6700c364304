"""Form instances: law verification, fault injection, morphism kinds,
reflection surrogates, thickness."""

import pytest

from formkit.forms import CategoryPresentation, CorruptFormError, FormInstance
from formkit.groups import build_grp_form, cyclic, symmetric3
from formkit.lattice import FiniteLattice, GaloisPair, MonotoneMap


def arrow_form(push_table, src_size=2, tgt_size=3):
    """One non-identity arrow f: X -> Y between chain fibres, with the pull
    map derived as the upper adjoint of the given push table."""
    x_fib = FiniteLattice.chain(src_size)
    y_fib = FiniteLattice.chain(tgt_size)
    base = CategoryPresentation(
        ["X", "Y"],
        {("X", "X"): ["idX"], ("Y", "Y"): ["idY"], ("X", "Y"): ["f"], ("Y", "X"): []},
        {
            ("idX", "idX"): "idX",
            ("idY", "idY"): "idY",
            ("f", "idX"): "f",
            ("idY", "f"): "f",
        },
        {"X": "idX", "Y": "idY"},
    )
    push = {
        "idX": MonotoneMap.identity(x_fib),
        "idY": MonotoneMap.identity(y_fib),
        "f": MonotoneMap(x_fib, y_fib, push_table),
    }
    pull = {name: GaloisPair.from_left_adjoint(m).right for name, m in push.items()}
    return FormInstance(base, {"X": x_fib, "Y": y_fib}, push, pull)


def test_arrow_form_laws_pass():
    form = arrow_form([0, 2])
    assert form.verify_laws().ok
    assert form.base.verify().ok


def test_identity_lifting_required():
    form = arrow_form([0, 2])
    broken = FormInstance(
        form.base,
        form.fibres,
        dict(form.push_maps, idX=MonotoneMap(form.fibre("X"), form.fibre("X"), [0, 0])),
        form.pull_maps,
    )
    rep = broken.verify_laws()
    assert any(v.check == "identity-push" for v in rep.violations)


def test_corrupted_push_reports_galois_with_morphism():
    form = arrow_form([0, 2])
    swapped = MonotoneMap(form.fibre("X"), form.fibre("Y"), [2, 0])
    broken = FormInstance(form.base, form.fibres, dict(form.push_maps, f=swapped), form.pull_maps)
    rep = broken.verify_laws()
    assert not rep.ok
    galois = [v for v in rep.violations if v.check == "galois"]
    assert galois and all(v.where == "f" for v in galois)


def test_leq_over_runs_both_tests_and_detects_corruption():
    form = arrow_form([0, 2])
    assert form.leq_over("f", 0, 0)
    assert form.leq_over("f", 1, 2)
    assert not form.leq_over("f", 1, 1)
    bad_pull = MonotoneMap(form.fibre("Y"), form.fibre("X"), [1, 1, 1])
    broken = FormInstance(form.base, form.fibres, form.push_maps, dict(form.pull_maps, f=bad_pull))
    with pytest.raises(CorruptFormError):
        for a in range(2):
            for b in range(3):
                broken.leq_over("f", a, b)


def test_unit_counit_hold_on_arrow_form():
    form = arrow_form([0, 2])
    x_fib, y_fib = form.fibre("X"), form.fibre("Y")
    for a in range(x_fib.size):
        assert x_fib.leq(a, form.pull("f", form.push("f", a)))
    for b in range(y_fib.size):
        assert y_fib.leq(form.push("f", form.pull("f", b)), b)


def test_push_preserves_joins_pull_preserves_meets(top12, quot123):
    small_grp = build_grp_form([symmetric3(), cyclic(2)])
    for bundle in (top12, quot123, small_grp):
        form = bundle.form
        for f in form.base.morphisms():
            assert form.push_maps[f].preserves_joins(), f
            assert form.pull_maps[f].preserves_meets(), f


def test_morphism_kind_in_set_category(top12):
    form = top12.form
    # the surjection 2pt -> 1pt is a retraction but not a section
    surj = "2pt->1pt:0.0"
    kind = form.morphism_kind(surj)
    assert kind.is_retraction and not kind.is_section and not kind.is_iso
    # a point inclusion is a section but not a retraction
    incl = "1pt->2pt:0"
    kind = form.morphism_kind(incl)
    assert kind.is_section and not kind.is_retraction
    # identities are isomorphisms with themselves as inverse
    idm = form.base.identity("2pt")
    kind = form.morphism_kind(idm)
    assert kind.is_iso and kind.inverse == idm
    # the swap is an isomorphism distinct from the identity
    swap = "2pt->2pt:1.0"
    assert form.morphism_kind(swap).is_iso


def test_sign_hom_is_retraction_not_section():
    sf = build_grp_form([symmetric3(), cyclic(2)])
    assert sf.form.verify_laws().ok
    sign = "S3->Z2:0.1.1.0.0.1"
    assert sign in sf.form.base.dom
    kind = sf.form.morphism_kind(sign)
    assert kind.is_retraction and not kind.is_section


def test_check_reflects_on_instances(top12, grp8, quot123):
    for bundle in (top12, grp8, quot123):
        for kind in ("section", "retraction", "iso"):
            holds, witness = bundle.form.check_reflects(kind)
            assert holds, (kind, witness)


def test_lifting_iso_laws_clean_on_instances(top12, quot123):
    for bundle in (top12, quot123):
        assert bundle.form.verify_lifting_iso_laws().ok


def test_lifting_iso_laws_count_one_check_per_fibre_element(top12, quot123):
    for bundle in (top12, quot123):
        form = bundle.form
        expected = 3  # flag agreement, one per kind
        for f in form.base.morphisms():
            mk = form.morphism_kind(f)
            expected += mk.is_section * form.push_maps[f].source.size
            expected += mk.is_retraction * form.pull_maps[f].source.size
            expected += mk.is_iso
        assert form.verify_lifting_iso_laws().checks_run == expected


def test_retraction_roundtrip_on_partitions(quot123):
    # a split surjection recovers every partition by pull-then-push
    form = quot123.form
    f = "3pt->2pt:0.0.1"
    assert form.morphism_kind(f).is_retraction
    pull, push = form.pull_maps[f], form.push_maps[f]
    for d in range(form.fibre("2pt").size):
        assert push.table[pull.table[d]] == d


def test_bounds_per_instance(top12, grp8, quot123):
    form = top12.form
    bottom, top = form.bounds("2pt")
    fib = form.fibre("2pt")
    assert len(top12.topologies["2pt"][bottom].opens) == 4  # discrete
    assert len(top12.topologies["2pt"][top].opens) == 2  # indiscrete
    bottom, top = grp8.form.bounds("S3")
    assert grp8.masks["S3"][bottom] == 1  # trivial subgroup
    assert grp8.masks["S3"][top] == (1 << 6) - 1  # the whole group
    bottom, top = quot123.form.bounds("3pt")
    assert quot123.partitions["3pt"][bottom].blocks == (0, 1, 2)
    assert quot123.partitions["3pt"][top].blocks == (0, 0, 0)


def test_thickness_examples(top12):
    form = top12.form
    assert form.is_thick(form.base.identity("2pt"))
    assert form.is_thick("2pt->2pt:1.0")
    assert form.is_thick("2pt->1pt:0.0")
    # non-surjective maps push the indiscrete top to something finer
    assert not form.is_thick("1pt->2pt:1")
    assert not form.is_thick("2pt->2pt:0.0")


def test_base_category_verify_catches_bad_associativity():
    base = CategoryPresentation(
        ["X"],
        {("X", "X"): ["id", "e"]},
        {("id", "id"): "id", ("id", "e"): "e", ("e", "id"): "e", ("e", "e"): "id"},
        {"X": "id"},
    )
    # e∘e = id makes e self-inverse; that IS associative, so tweak:
    rep = base.verify()
    assert rep.ok
    bad = CategoryPresentation(
        ["X"],
        {("X", "X"): ["id", "e"]},
        {("id", "id"): "id", ("id", "e"): "e", ("e", "id"): "id", ("e", "e"): "e"},
        {"X": "id"},
    )
    rep = bad.verify()
    assert not rep.ok


def test_dense_associativity_counts_triples_up_to_its_witness(top12):
    base = top12.form.base
    compose = dict(base.compose_table)
    swap = "2pt->2pt:1.0"
    compose[(swap, swap)] = "2pt->2pt:0.0"  # was the identity
    bad = CategoryPresentation(base.objects, base.homs, compose, base.identities)
    names = list(base.morphisms())
    pairs = [(g, f) for f in names for g in names if bad.dom[g] == bad.cod[f]]
    triples = [(h, g, f) for g, f in pairs for h in names if bad.dom[h] == bad.cod[g]]
    first = next(
        i for i, (h, g, f) in enumerate(triples)
        if compose[(h, compose[(g, f)])] != compose[(compose[(h, g)], f)]
    )
    rep = bad.verify_dense()
    assert [v.witness for v in rep.violations] == [triples[first]]
    assert rep.checks_run == len(pairs) + 2 * len(names) + first + 1


def test_empty_carrier_handled_by_general_enumeration():
    # a map out of the empty set into a nonempty one is neither a section
    # nor a retraction; no special casing, the inverse search is just empty
    from formkit.topologies import build_top_form

    tf = build_top_form([0, 1])
    assert tf.form.verify_laws().ok
    kind = tf.form.morphism_kind("0pt->1pt:")
    assert not kind.is_section and not kind.is_retraction
    assert tf.form.morphism_kind("0pt->0pt:").is_iso


def test_leq_over_subgroup_example():
    # the transposition subgroup sits inside S3 but not inside A3
    from itertools import permutations

    from formkit.groups import build_grp_form, cyclic, symmetric3

    sf = build_grp_form([cyclic(2), symmetric3()])
    perms = sorted(permutations(range(3)))
    t01 = perms.index((1, 0, 2))
    incl = f"Z2->S3:0.{t01}"
    a3_mask = sum(1 << perms.index(p) for p in [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    whole_z2 = sf.element("Z2", 0b11)
    a3 = sf.element("S3", a3_mask)
    assert not sf.form.leq_over(incl, whole_z2, a3)
    assert sf.form.leq_over(incl, sf.element("Z2", 0b01), a3)


def test_duplicate_morphism_name_rejected():
    with pytest.raises(ValueError):
        CategoryPresentation(
            ["X", "Y"],
            {("X", "X"): ["m"], ("Y", "Y"): ["m"]},
            {},
            {"X": "m", "Y": "m"},
        )

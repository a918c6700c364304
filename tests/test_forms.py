"""Form instances: law verification, fault injection, morphism kinds,
reflection surrogates, thickness."""

import ast
from pathlib import Path

import pytest

import formkit
from formkit.forms import ROUNDTRIP_CHECKS, CategoryPresentation, CorruptFormError, FormInstance, IdentityError
from formkit.groups import build_grp_form, cyclic, standard_corpus, symmetric3
from formkit.jsonio import SchemaError, form_from_dict, form_to_dict
from formkit.lattice import FiniteLattice, monotone_violation_dense, upper_adjoint
from formkit.partitions import build_quot_form
from formkit.search import SHAPES
from formkit.search import _base as search_base
from formkit.topologies import build_top_form
from oracles import (
    identity,
    leq_over,
    preserves_joins,
    preserves_meets,
    totality_faults,
    verify_dense,
    verify_laws_dense,
)


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
        "idX": (range(src_size), x_fib, x_fib),
        "idY": (range(tgt_size), y_fib, y_fib),
        "f": (push_table, x_fib, y_fib),
    }
    pull = {name: upper_adjoint(*m) for name, m in push.items()}
    return FormInstance(base, [x_fib, y_fib], [push[m][0] for m in base.names], [pull[m] for m in base.names])


def _replaced(tables, base, **by_name):
    """``tables`` by number with the entries of the named morphisms replaced."""
    tables = list(tables)
    for name, t in by_name.items():
        tables[base.ids[name]] = t
    return tables


def test_arrow_form_laws_pass():
    form = arrow_form([0, 2])
    assert form.verify_laws().ok
    assert form.base.verify().ok


def test_identity_lifting_required():
    form = arrow_form([0, 2])
    broken = FormInstance(
        form.base,
        form.fibres,
        _replaced(form.push, form.base, idX=(0, 0)),
        form.pull,
    )
    rep = broken.verify_laws()
    assert any(v.check == "identity-push" for v in rep.violations)


def test_corrupted_push_reports_galois_with_morphism():
    form = arrow_form([0, 2])
    broken = FormInstance(form.base, form.fibres, _replaced(form.push, form.base, f=(2, 0)), form.pull)
    rep = broken.verify_laws()
    assert not rep.ok
    galois = [v for v in rep.violations if v.check == "galois"]
    assert galois and all(v.where == "f" for v in galois)


def test_leq_over_runs_both_tests_and_detects_corruption():
    form = arrow_form([0, 2])
    f = form.base.ids["f"]
    assert leq_over(form, f, 0, 0)
    assert leq_over(form, f, 1, 2)
    assert not leq_over(form, f, 1, 1)
    broken = FormInstance(form.base, form.fibres, form.push, _replaced(form.pull, form.base, f=(1, 1, 1)))
    with pytest.raises(CorruptFormError):
        for a in range(2):
            for b in range(3):
                leq_over(broken, f, a, b)


def test_identity_law_bodies_test_nothing(monkeypatch):
    """The law body of an endomorphism whose push and pull are the
    identity table on a partial order is the clean one, with no
    monotonicity test (and so no unit or counit sweep) run: the body the
    dense tests give it. Every other morphism is tested, push and pull once
    each, and the violations are still the dense sweep's."""
    import formkit.forms

    tested = []  # the tables monotone_violation was asked about
    original = formkit.forms.monotone_violation
    monkeypatch.setattr(
        formkit.forms, "monotone_violation", lambda table, *fibres: tested.append(table) or original(table, *fibres)
    )
    bad_identity = arrow_form([0, 2])
    bad_identity.push[bad_identity.base.ids["idX"]] = (0, 0)
    one = CategoryPresentation(["X"], {("X", "X"): ["id"]}, {("id", "id"): "id"}, {"X": "id"})
    preorder = FiniteLattice.from_up_masks([0b11, 0b11])  # not a partial order: its identity is tested
    forms = [build_top_form([1, 2]).form, arrow_form([0, 2]), arrow_form([2, 0]), bad_identity]
    forms.append(FormInstance(one, [preorder], [(0, 1)], [(0, 1)]))
    for form in forms:
        tested.clear()
        assert form.verify_laws().violations == verify_laws_dense(form).violations
        skipped = [
            f for f, (x, y) in enumerate(zip(form.base.source, form.base.target))
            if x == y and form.push[f] == form.pull[f] == tuple(range(form.fibres[x].size))
            and form.fibres[x].is_partial_order()
        ]
        assert len(tested) == 2 * (len(form.base.names) - len(skipped))
        assert not {id(form.push[f]) for f in skipped} & set(map(id, tested))
        for f in skipped:
            fib, table = form.fibres[form.base.source[f]], form.push[f]
            dense = monotone_violation_dense(table, fib, fib)
            assert form._laws[f] == (dense, dense, [], [], True) == (None, None, [], [], True)
    assert skipped == [] and len(tested) == 2  # the preorder's identity


def test_unit_counit_hold_on_arrow_form():
    form = arrow_form([0, 2])
    x_fib, y_fib = form.fibres
    push, pull = form.push[form.base.ids["f"]], form.pull[form.base.ids["f"]]
    for a in range(x_fib.size):
        assert x_fib.leq(a, pull[push[a]])
    for b in range(y_fib.size):
        assert y_fib.leq(push[pull[b]], b)


def test_push_preserves_joins_pull_preserves_meets(top12, quot123):
    small_grp = build_grp_form([symmetric3(), cyclic(2)])
    for bundle in (top12, quot123, small_grp):
        form = bundle.form
        for f, (x, y) in enumerate(zip(form.base.source, form.base.target)):
            fx, fy = form.fibres[x], form.fibres[y]
            assert preserves_joins(form.push[f], fx, fy), f
            assert preserves_meets(form.pull[f], fy, fx), f


def test_morphism_kind_in_set_category(top12):
    base = top12.form.base
    # the surjection 2pt -> 1pt is a retraction but not a section
    surj = base.ids["2pt->1pt:0.0"]
    kind = base.kinds[surj]
    assert kind.is_retraction and not kind.is_section and not kind.is_iso
    # a point inclusion is a section but not a retraction
    incl = base.ids["1pt->2pt:0"]
    kind = base.kinds[incl]
    assert kind.is_section and not kind.is_retraction
    # identities are isomorphisms with themselves as inverse
    idm = base.ids[identity(base, "2pt")]
    kind = base.kinds[idm]
    assert kind.is_iso and kind.inverse == idm
    # the swap is an isomorphism distinct from the identity
    swap = base.ids["2pt->2pt:1.0"]
    assert base.kinds[swap].is_iso


def test_sign_hom_is_retraction_not_section():
    sf = build_grp_form([symmetric3(), cyclic(2)])
    assert sf.form.verify_laws().ok
    sign = "S3->Z2:0.1.1.0.0.1"
    assert sign in sf.form.base.dom
    kind = sf.form.base.kinds[sf.form.base.ids[sign]]
    assert kind.is_retraction and not kind.is_section


def test_no_roundtrip_failure_on_instances(top12, grp8, quot123):
    for bundle in (top12, grp8, quot123):
        assert bundle.form.first_roundtrip_failure == {}


def _corrupted(table: tuple, i: int, size: int) -> tuple:
    """``table`` with the entry at ``i`` moved to the next element of its
    target, a fibre of ``size`` elements."""
    table = list(table)
    table[i] = (table[i] + 1) % size
    return tuple(table)


def test_first_roundtrip_failure_is_the_first_lifting_violation(quot123):
    """One section's pull, one retraction's push and one iso's push
    corrupted: each kind's first round-trip failure is the first violation
    lifting-iso-laws reports for it."""
    form = quot123.form
    base = form.base
    names, identities = base.names, set(base.identity_of)
    kinds = {
        f: base.kinds[f]
        for f in range(len(names))
        if f not in identities and min(form.fibres[base.source[f]].size, form.fibres[base.target[f]].size) > 1
    }
    section = next(f for f, k in kinds.items() if k.is_section and not k.is_retraction)
    retraction = next(f for f, k in kinds.items() if k.is_retraction and not k.is_section)
    iso = next(f for f, k in kinds.items() if k.is_iso)
    push, pull = list(form.push), list(form.pull)
    size = [fib.size for fib in form.fibres]
    pull[section] = _corrupted(pull[section], push[section][0], size[base.source[section]])
    push[retraction] = _corrupted(push[retraction], pull[retraction][0], size[base.target[retraction]])
    push[iso] = _corrupted(push[iso], 0, size[base.target[iso]])
    broken = FormInstance(form.base, form.fibres, push, pull)
    rep = broken.verify_lifting_iso_laws()
    failing = {(v.check, v.where) for v in rep.violations}
    assert {
        ("section-roundtrip", names[section]), ("retraction-roundtrip", names[retraction]), ("iso-transfer", names[iso])
    } <= failing
    assert set(broken.first_roundtrip_failure) == set(ROUNDTRIP_CHECKS)
    for kind, check in ROUNDTRIP_CHECKS.items():
        witness = broken.first_roundtrip_failure[kind]
        first = next(v for v in rep.violations if v.check == check)
        assert names[witness[0]] == first.where, kind
        if kind != "iso":
            assert witness[1:] == first.witness, kind


def test_lifting_iso_laws_clean_on_instances(top12, quot123):
    for bundle in (top12, quot123):
        assert bundle.form.verify_lifting_iso_laws().ok


def test_lifting_iso_laws_count_one_check_per_fibre_element(top12, quot123):
    for bundle in (top12, quot123):
        form = bundle.form
        expected = 0
        for f in range(len(form.base.names)):
            mk = form.base.kinds[f]
            expected += mk.is_section * form.fibres[form.base.source[f]].size
            expected += mk.is_retraction * form.fibres[form.base.target[f]].size
            expected += mk.is_iso
        assert form.verify_lifting_iso_laws().checks_run == expected


def test_retraction_roundtrip_on_partitions(quot123):
    # a split surjection recovers every partition by pull-then-push
    form = quot123.form
    f = form.base.ids["3pt->2pt:0.0.1"]
    assert form.base.kinds[f].is_retraction
    pull, push = form.pull[f], form.push[f]
    for d in range(form.fibres[form.base.objects.index("2pt")].size):
        assert push[pull[d]] == d


def test_bounds_per_instance(top12, grp8, quot123):
    x = top12.form.base.objects.index("2pt")
    fib = top12.form.fibres[x]
    bottom, top = fib.bottom, fib.top
    assert len(top12.topologies[x][bottom].opens) == 4  # discrete
    assert len(top12.topologies[x][top].opens) == 2  # indiscrete
    x = grp8.form.base.objects.index("S3")
    bottom, top = grp8.form.fibres[x].bottom, grp8.form.fibres[x].top
    assert grp8.masks[x][bottom] == 1  # trivial subgroup
    assert grp8.masks[x][top] == (1 << 6) - 1  # the whole group
    x = quot123.form.base.objects.index("3pt")
    bottom, top = quot123.form.fibres[x].bottom, quot123.form.fibres[x].top
    assert quot123.partitions[x][bottom].blocks == (0, 1, 2)
    assert quot123.partitions[x][top].blocks == (0, 0, 0)


def test_thickness_examples(top12):
    form = top12.form
    ids = form.base.ids
    assert form.is_thick(ids[identity(form.base, "2pt")])
    assert form.is_thick(ids["2pt->2pt:1.0"])
    assert form.is_thick(ids["2pt->1pt:0.0"])
    # non-surjective maps push the indiscrete top to something finer
    assert not form.is_thick(ids["1pt->2pt:1"])
    assert not form.is_thick(ids["2pt->2pt:0.0"])


def test_name_keyed_composition_matches_the_callable():
    """A mapping's composites land where the callable puts them; an entry
    at a pair that does not compose, or keyed by no morphism, is ignored."""
    base = arrow_form([0, 2]).base
    table = dict(base.compose_table)
    table[("idX", "f")] = "f"  # f then idX: not composable
    table[("ghost", "f")] = "f"
    named = CategoryPresentation(base.objects, base.homs, table, base.identities)
    ids, n = base.ids, len(base.names)
    assert named.comp == base.comp
    assert named.comp[ids["idX"] * n + ids["f"]] == -1


def test_after_reads_the_composites_after_f():
    """after(f) is (g, comp[g * n + f]) for every g out of f's codomain, in
    number order."""
    for base in (build_top_form([0, 1, 2]).form.base, build_quot_form([3, 3, 3]).form.base, arrow_form([0, 2]).base):
        n, comp = len(base.names), base.comp
        for f in range(n):
            assert list(base.after(f)) == [(g, comp[g * n + f]) for g in base.by_source[base.target[f]]]


TOTAL_BUILDS = {
    "top[0,1,2,3]": lambda: build_top_form([0, 1, 2, 3]).form.base,
    "quot[0,1,2,3]": lambda: build_quot_form([0, 1, 2, 3]).form.base,
    "grp corpus": lambda: build_grp_form(standard_corpus()).form.base,
    **{f"search shape {k}": (lambda k=k: search_base(k)[0]) for k in range(len(SHAPES))},
}


@pytest.mark.parametrize("name", TOTAL_BUILDS)
def test_every_builder_composes_a_total_table(name):
    """A callable ``compose`` is not walked where the presentation is
    built, so the oracle walk stands in for that walk here: every object
    of every builder's base and search shape has an identity, and every
    composable pair a composite in its hom-set."""
    assert totality_faults(TOTAL_BUILDS[name]()) == []


def test_only_forms_reads_the_composition_table():
    """The layout of ``CategoryPresentation.comp`` stays inside forms.py:
    every other module walks composable pairs through ``after``, so a new
    storage for the table changes one module."""
    readers = []
    for path in sorted(Path(formkit.__file__).parent.glob("*.py")):
        if path.name == "forms.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            named = isinstance(node, ast.Constant) and node.value == "comp"  # getattr(base, "comp")
            if named or isinstance(node, ast.Attribute) and node.attr == "comp":
                readers.append(f"{path.name}:{node.lineno}")
    assert not readers


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


TWO_HOMS = {("X", "X"): ["idX"], ("Y", "Y"): ["idY"], ("X", "Y"): ["f"], ("Y", "X"): []}
TWO_COMPOSE = {("idX", "idX"): "idX", ("idY", "idY"): "idY", ("f", "idX"): "f", ("idY", "f"): "f"}


@pytest.mark.parametrize(
    "homs, compose, identities, error, message",
    [
        (TWO_HOMS, TWO_COMPOSE, {"X": "idX"}, IdentityError, "object 'Y' has no identity"),
        (
            {("X", "X"): ["id", "e"]},
            {("id", "id"): "id", ("id", "e"): "e", ("e", "id"): "e"},
            {"X": "id"},
            ValueError, "'e' after 'e' is undefined",
        ),
        (
            TWO_HOMS, {**TWO_COMPOSE, ("f", "idX"): "idX"}, {"X": "idX", "Y": "idY"},
            ValueError, "'idX' is not a composite of 'f' after 'idX'",
        ),
    ],
    ids=["identity-missing", "compose-undefined", "compose-escapes-hom"],
)
def test_presentation_axioms_report_their_witness(homs, compose, identities, error, message):
    """Composition is total by construction: the constructor refuses an
    object without an identity, an undefined composite and a composite
    outside its hom-set, and names the witness."""
    objects = sorted({x for pair in homs for x in pair})
    with pytest.raises(error) as refused:
        CategoryPresentation(objects, homs, compose, identities)
    assert str(refused.value) == message


def test_form_laws_report_an_object_without_identity():
    """A form over an object without an identity cannot be built, so its
    laws are never swept: the presentation refuses the base, and the form
    reader refuses the encoding of a sound form whose identity of that
    object is dropped, both naming the object."""
    with pytest.raises(IdentityError, match="^object 'Y' has no identity$"):
        CategoryPresentation(["X", "Y"], TWO_HOMS, TWO_COMPOSE, {"X": "idX"})
    base = CategoryPresentation(["X", "Y"], TWO_HOMS, TWO_COMPOSE, {"X": "idX", "Y": "idY"})
    lat = FiniteLattice.chain(2)
    ident = [(0, 1)] * len(base.names)
    doc = form_to_dict(FormInstance(base, [lat, lat], ident, ident))
    del doc["identities"]["Y"]
    with pytest.raises(SchemaError, match="^form.identities: object 'Y' has no identity$"):
        form_from_dict(doc)


def test_dense_associativity_counts_triples_up_to_its_witness(top12):
    base = top12.form.base
    compose = dict(base.compose_table)
    swap = "2pt->2pt:1.0"
    compose[(swap, swap)] = "2pt->2pt:0.0"  # was the identity
    bad = CategoryPresentation(base.objects, base.homs, compose, base.identities)
    names = list(base.names)
    pairs = [(g, f) for f in names for g in names if bad.dom[g] == bad.cod[f]]
    triples = [(h, g, f) for g, f in pairs for h in names if bad.dom[h] == bad.cod[g]]
    first = next(
        i for i, (h, g, f) in enumerate(triples)
        if compose[(h, compose[(g, f)])] != compose[(compose[(h, g)], f)]
    )
    rep = verify_dense(bad)
    assert [v.witness for v in rep.violations] == [triples[first]]
    assert rep.checks_run == len(pairs) + 2 * len(names) + first + 1


def test_empty_carrier_handled_by_general_enumeration():
    # a map out of the empty set into a nonempty one is neither a section
    # nor a retraction; no special casing, the inverse search is just empty
    from formkit.topologies import build_top_form

    tf = build_top_form([0, 1])
    assert tf.form.verify_laws().ok
    base = tf.form.base
    kind = base.kinds[base.ids["0pt->1pt:"]]
    assert not kind.is_section and not kind.is_retraction
    assert base.kinds[base.ids["0pt->0pt:"]].is_iso


def test_leq_over_subgroup_example():
    # the transposition subgroup sits inside S3 but not inside A3
    from itertools import permutations

    from formkit.groups import build_grp_form, cyclic, symmetric3

    sf = build_grp_form([cyclic(2), symmetric3()])
    perms = sorted(permutations(range(3)))
    t01 = perms.index((1, 0, 2))
    incl = sf.form.base.ids[f"Z2->S3:0.{t01}"]
    z2, s3 = (sf.form.base.objects.index(x) for x in ("Z2", "S3"))
    a3_mask = sum(1 << perms.index(p) for p in [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    whole_z2 = sf.element(z2, 0b11)
    a3 = sf.element(s3, a3_mask)
    assert not leq_over(sf.form, incl, whole_z2, a3)
    assert leq_over(sf.form, incl, sf.element(z2, 0b01), a3)


def test_duplicate_morphism_name_rejected():
    with pytest.raises(ValueError):
        CategoryPresentation(
            ["X", "Y"],
            {("X", "X"): ["m"], ("Y", "Y"): ["m"]},
            {},
            {"X": "m", "Y": "m"},
        )

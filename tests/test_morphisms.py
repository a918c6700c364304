"""Strict/final/thick classification and the theorem cross-checks on the
built instances."""

import random
from itertools import permutations

from formkit.checks import CheckContext
from formkit.forms import CategoryPresentation, FormInstance
from formkit.groups import build_grp_form, cyclic, normal_interval_order, symmetric3
from formkit.lattice import FiniteLattice, upper_adjoint
from formkit.morphisms import (
    DISPUTED_CHECKS,
    PAIR_CLAUSES,
    classify_morphism,
    cohereditary_operator_check,
    final_thick_check,
    final_violation,
    is_final,
    is_strict,
    strict_characterization,
    strict_via_operators,
    transfer_laws_check,
)
from formkit.search import case_rng, random_form, random_order
from formkit.topogenous import (
    TopogenousOrder,
    classify_order,
    closure_from_order,
    interior_from_order,
    leq_order,
    pulled_table,
    verify_order,
)
from oracles import _transfer_laws, composable_pairs, compose, morphism_kind_dense, transfer_laws_check_dense

S3_PERMS = sorted(permutations(range(3)))


def all_sweeps(top123, theta123, b123, grp8, ni8, quot1234):
    return [
        (top123.form, leq_order(top123.form)),
        (top123.form, theta123),
        (top123.form, b123),
        (grp8.form, leq_order(grp8.form)),
        (grp8.form, ni8),
        (quot1234.form, leq_order(quot1234.form)),
    ]


def test_identities_strict_and_final(top123, theta123):
    form = top123.form
    for i in form.base.identity_of:
        assert is_strict(form, theta123, i)
        assert is_final(form, theta123, i)


def test_every_morphism_is_leq_strict(top123, grp8, quot1234):
    for bundle in (top123, grp8, quot1234):
        form = bundle.form
        T = leq_order(form)
        for f in range(len(form.base.names)):
            assert is_strict(form, T, f), f


def test_theta_bijections_strict(top123, theta123):
    form = top123.form
    for f, kind in enumerate(form.base.kinds):
        if kind.is_iso:
            assert is_strict(form, theta123, f), f


def test_normal_interval_strictness_examples(grp8, ni8):
    form = grp8.form
    # the inclusion of a transposition subgroup is not strict: its image is
    # a non-normal subgroup of S3
    t01 = S3_PERMS.index((1, 0, 2))
    incl = f"Z2->S3:0.{t01}"
    assert incl in form.base.dom
    assert not is_strict(form, ni8, form.base.ids[incl])
    # the parity quotient is strict
    sign = form.base.ids["S3->Z2:0.1.1.0.0.1"]
    assert is_strict(form, ni8, sign)


def test_normal_interval_finality_examples(grp8, ni8):
    form = grp8.form
    doubling = "Z2->Z4:0.2"
    assert doubling in form.base.dom
    assert not is_final(form, ni8, form.base.ids[doubling])
    sign = form.base.ids["S3->Z2:0.1.1.0.0.1"]
    assert is_final(form, ni8, sign)


def test_theta_surjections_final(top123, theta123):
    form = top123.form
    for f in range(len(form.base.names)):
        if top123.functions[f].is_surjective():
            assert is_final(form, theta123, f), f


def test_b_all_strict_but_only_surjections_final(top123, b123):
    form = top123.form
    for f in range(len(form.base.names)):
        assert is_strict(form, b123, f), f
        assert is_final(form, b123, f) == top123.functions[f].is_surjective(), f


def test_b_finality_counterexample_pinned(top12):
    """The smallest failure of finality for the b order, kept as a frozen
    regression: the point inclusion pulls both topologies to the same
    one-point fibre element, but b(Sierpinski) = discrete is strictly finer
    than the indiscrete topology upstairs."""
    from formkit.topologies import b_order as build_b

    form = top12.form
    order = build_b(top12)
    f = form.base.ids["1pt->2pt:0"]
    witness = final_violation(form, order, f, pulled_table(form, order)[f])
    assert witness is not None
    b_idx, b2_idx = witness
    one, two = (form.base.objects.index(x) for x in ("1pt", "2pt"))
    assert order.has(one, form.pull[f][b_idx], form.pull[f][b2_idx])
    assert not order.has(two, b_idx, b2_idx)


def test_strict_characterization_zero_disagreements(top123, theta123, b123, grp8, ni8, quot1234):
    for form, order in all_sweeps(top123, theta123, b123, grp8, ni8, quot1234):
        rep = strict_characterization(form, order, CheckContext(form, order).strict_witness)
        assert rep.ok, rep.violations


def test_final_thick_zero_violations(top123, theta123, b123, grp8, ni8, quot1234):
    for form, order in all_sweeps(top123, theta123, b123, grp8, ni8, quot1234):
        assert final_thick_check(form, order, classify_order(form, order), CheckContext(form, order).final).ok


def test_final_thick_hypothesis_respected():
    # a non-thick final morphism is fine when neither hypothesis holds
    x_fib = FiniteLattice.chain(1)
    y_fib = FiniteLattice.chain(2)
    base = CategoryPresentation(
        ["X", "Y"],
        {("X", "X"): ["idX"], ("Y", "Y"): ["idY"], ("X", "Y"): ["f"], ("Y", "X"): []},
        {("idX", "idX"): "idX", ("idY", "idY"): "idY", ("f", "idX"): "f", ("idY", "f"): "f"},
        {"X": "idX", "Y": "idY"},
    )
    push = {"idX": ((0,), x_fib, x_fib), "idY": ((0, 1), y_fib, y_fib), "f": ((0,), x_fib, y_fib)}
    pull = {k: upper_adjoint(*m) for k, m in push.items()}
    form = FormInstance(base, [x_fib, y_fib], [push[m][0] for m in base.names], [pull[m] for m in base.names])
    empty = TopogenousOrder([(0,), (0, 0)])
    assert verify_order(form, empty, pulled_table(form, empty)).ok
    # f pulls everything to the singleton and pushes to the bottom: final
    # for the empty order, not thick, but the top is not self-related
    assert is_final(form, empty, base.ids["f"])
    assert not form.is_thick(base.ids["f"])
    assert final_thick_check(form, empty, classify_order(form, empty), CheckContext(form, empty).final).ok


def transfer_laws(form, order):
    """transfer_laws_check with the witness tables the registry passes it."""
    ctx = CheckContext(form, order)
    return transfer_laws_check(form, ctx.strict_witness, ctx.final_witness)


def test_transfer_sound_clauses_clean(top123, theta123, b123, grp8, ni8, quot1234):
    sound = {
        "retraction-final-strict",
        "iso-strict",
        "iso-final",
        "compose-strict",
        "compose-final",
        "cancel-strict",
        "cancel-final",
    }
    for form, order in all_sweeps(top123, theta123, b123, grp8, ni8, quot1234):
        rep = transfer_laws(form, order)
        bad = [v for v in rep.violations if v.check in sound]
        assert not bad, bad[:3]


def test_transfer_laws_match_dense_oracle_on_instances(top123, theta123, b123, grp8, ni8, quot1234):
    # the numbered walk and the name-level oracle run one clause body:
    # equal counts, and equal violations in emission order
    for form, order in (
        (quot1234.form, leq_order(quot1234.form)),
        (grp8.form, ni8),
        (top123.form, theta123),
        (top123.form, b123),
    ):
        fast, dense = transfer_laws(form, order), transfer_laws_check_dense(form, order)
        assert fast.checks_run == dense.checks_run > 0
        assert fast.violations == dense.violations


class DenseWalk:
    """The pair walk of :func:`_transfer_laws` over a form's composable
    pairs by name and its dense kinds, run on any witness tables."""

    def __init__(self, form):
        base = self.base = form.base
        n, ids = len(base.names), base.ids
        self.form = form
        self.after = [[] for _ in range(n)]
        for g, f in composable_pairs(base):
            self.after[ids[f]].append((ids[g], ids[compose(base, g, f)]))
        self.kinds = [morphism_kind_dense(base, m) for m in range(n)]

    def __call__(self, strict_witness, final_witness):
        return _transfer_laws(self.form, self.kinds, self.after, strict_witness, final_witness)


def flipped(witness, rng, share):
    """The witness table with a random ``share`` of its verdicts flipped."""
    out = list(witness)
    for m in rng.sample(range(len(out)), max(1, int(len(out) * share))):
        out[m] = (0, 0) if out[m] is None else None
    return out


def test_transfer_walk_matches_the_dense_walk_on_corrupted_witnesses(quot123, grp8, ni8):
    # flipped verdicts make the strict and final classes cut across
    # hom-sets, so the walk's block skips, its retraction and section walks
    # and its merge into the pair order all meet violations
    rng = random.Random(20231019)
    tripped = set()
    for form, order in ((quot123.form, leq_order(quot123.form)), (grp8.form, ni8)):
        assert not form.first_roundtrip_failure  # every clause is live
        dense, ctx = DenseWalk(form), CheckContext(form, order)
        for draw in range(24):
            share = (0.02, 0.1, 0.3)[draw % 3]
            sw, fw = flipped(ctx.strict_witness, rng, share), flipped(ctx.final_witness, rng, share)
            got, expected = transfer_laws_check(form, sw, fw), dense(sw, fw)
            assert got.checks_run == expected.checks_run
            assert got.violations == expected.violations
            tripped.update(v.check for v in got.violations)
    assert tripped == set(PAIR_CLAUSES) | {
        "retraction-final-strict", "section-strict-final", "iso-strict", "iso-final",
    }


def test_transfer_walk_matches_the_dense_oracle_on_search_forms():
    for i in range(200):
        rng = case_rng(7, i)
        form = random_form(rng)
        order = random_order(rng, form, "any")
        got, expected = transfer_laws(form, order), transfer_laws_check_dense(form, order)
        assert got.checks_run == expected.checks_run, i
        assert got.violations == expected.violations, i


def test_transfer_section_clause_fails_on_known_models(top123, theta123):
    # the printed section clause is refuted by non-surjective sections;
    # keep one concrete witness frozen
    rep = transfer_laws(top123.form, theta123)
    failing = {v.where for v in rep.violations if v.check == "section-strict-final"}
    assert "1pt->2pt:0" in failing


def test_disputed_clauses_are_separated(grp8, ni8):
    rep = transfer_laws(grp8.form, ni8)
    disputed = [v for v in rep.violations if v.check in DISPUTED_CHECKS]
    assert disputed  # the printed dual cancellation readings do fail here
    assert all(v.check in DISPUTED_CHECKS | {"section-strict-final"} for v in rep.violations)


def test_strict_via_operators_all_instances(top123, theta123, b123, grp8, ni8, quot1234):
    for form, order in all_sweeps(top123, theta123, b123, grp8, ni8, quot1234):
        cls = classify_order(form, order)
        clo = closure_from_order(form, order) if cls.is_TM else None
        intr = interior_from_order(form, order) if cls.is_TJ else None
        strict = [is_strict(form, order, f) for f in range(len(form.base.names))]
        rep = strict_via_operators(form, strict, cls, clo, intr)
        assert rep.ok, rep.violations


def test_cohereditary_on_instances(top123, theta123, b123, grp8, ni8, quot1234):
    # cohereditary: every retraction of the base is final for the order
    for form, order in all_sweeps(top123, theta123, b123, grp8, ni8, quot1234):
        final = CheckContext(form, order).final
        assert all(final[f] for f, kind in enumerate(form.base.kinds) if kind.is_retraction)


def test_cohereditary_operator_equivalence(top123, theta123, grp8, ni8, quot1234):
    for form, order in ((top123.form, theta123), (grp8.form, ni8), (quot1234.form, leq_order(quot1234.form))):
        cls = classify_order(form, order)
        assert cls.is_TM
        closure = closure_from_order(form, order)
        assert cohereditary_operator_check(form, closure, CheckContext(form, order).final).ok


def test_classify_morphism_report(grp8, ni8):
    form = grp8.form
    sign = form.base.ids["S3->Z2:0.1.1.0.0.1"]
    ctx = CheckContext(form, ni8)
    d = classify_morphism(form, sign, ctx.strict_witness[sign], ctx.final_witness[sign])
    assert d["strict"] and d["final"] and d["thick"]
    assert d["kind"]["is_retraction"] and not d["kind"]["is_section"]
    assert d["witnesses"] == []
    doubling = "Z2->Z4:0.2"
    f = form.base.ids[doubling]
    d = classify_morphism(form, f, ctx.strict_witness[f], ctx.final_witness[f])
    assert not d["final"]
    assert d["witnesses"] == [list(ctx.final_witness[f])]
    assert d["morphism"] == doubling and d["kind"]["is_section"] is False


def test_strictness_invariant_under_fibre_relabeling():
    """Permuting fibre indices consistently must not change verdicts."""
    sf = build_grp_form([symmetric3(), cyclic(2)])
    form = sf.form
    order = normal_interval_order(sf)
    perm = [[0, 2, 1, 4, 3, 5], [1, 0]]  # S3, Z2
    inv = [[p.index(i) for i in range(len(p))] for p in perm]

    def relabel_lattice(x):
        fib = form.fibres[x]
        p = perm[x]
        rows = [
            [fib.leq(p[a], p[b]) for b in range(fib.size)]
            for a in range(fib.size)
        ]
        return FiniteLattice(rows)

    new_fibres = [relabel_lattice(x) for x in range(len(form.base.objects))]
    new_push = []
    new_pull = []
    for f, (x, y) in enumerate(zip(form.base.source, form.base.target)):
        push, pull = form.push[f], form.pull[f]
        new_push.append([inv[y][push[perm[x][a]]] for a in range(form.fibres[x].size)])
        new_pull.append([inv[x][pull[perm[y][b]]] for b in range(form.fibres[y].size)])
    relabeled = FormInstance(form.base, new_fibres, new_push, new_pull)
    assert relabeled.verify_laws().ok
    new_rel = []
    for x, fib in enumerate(form.fibres):
        rows = []
        for a in range(fib.size):
            row = 0
            for b in range(fib.size):
                if order.has(x, perm[x][a], perm[x][b]):
                    row |= 1 << b
            rows.append(row)
        new_rel.append(rows)
    relabeled_order = TopogenousOrder(new_rel)
    assert verify_order(relabeled, relabeled_order, pulled_table(relabeled, relabeled_order)).ok
    for f in range(len(form.base.names)):
        assert is_strict(form, order, f) == is_strict(relabeled, relabeled_order, f), f
        assert is_final(form, order, f) == is_final(relabeled, relabeled_order, f), f


def test_strict_morphisms_closed_under_composition(grp8, ni8):
    form = grp8.form
    names = form.base.names
    strict = {names[f] for f in range(len(names)) if is_strict(form, ni8, f)}
    final = {names[f] for f in range(len(names)) if is_final(form, ni8, f)}
    for g, f in composable_pairs(form.base):
        if f in strict and g in strict:
            assert compose(form.base, g, f) in strict
        if f in final and g in final:
            assert compose(form.base, g, f) in final

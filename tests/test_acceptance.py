"""Acceptance criteria, one test each, one printed status line each.

Run with `pytest tests/test_acceptance.py -v -s` (or via `make accept`).
All comparisons are exact table equalities; no tolerances are involved
anywhere in this suite.

The b-order finality clause of criterion 7 is expected RED: the property
it asserts (every function is b-order-final) is refuted by every
non-surjective function. Minimal counterexample: for the point inclusion
{0} -> {0,1}, the indiscrete topology and the Sierpinski topology both
pull back to the unique one-point topology, so the pulled pair is related,
but b(Sierpinski) = discrete is not contained in the indiscrete topology,
so the pair upstairs is not. The same counterexample is pinned in
test_morphisms.py::test_b_finality_counterexample_pinned. The criterion is
asserted as stated so the finding stays visible; the other two clauses of
criterion 7, and all other criteria, pass.
"""

import json

from cli_runner import CliRunner
from formkit.groups import normal_closure, preserves_normals
from formkit.checks import CheckContext
from formkit.morphisms import (
    final_thick_check,
    is_final,
    is_strict,
    strict_characterization,
)
from formkit.search import run_search
from formkit.topogenous import (
    Operator,
    check_T3_pull_form,
    classify_order,
    closure_from_order,
    interior_from_order,
    is_idempotent,
    leq_order,
    order_from_closure,
    order_from_interior,
    pulled_table,
    verify_closure,
    verify_interior,
)


def _line(num: int, ok: bool, desc: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")


def _sweeps(top123, theta123, b123, grp8, ni8, quot1234):
    return [
        ("top/leq", top123.form, leq_order(top123.form)),
        ("top/theta", top123.form, theta123),
        ("top/b", top123.form, b123),
        ("grp/leq", grp8.form, leq_order(grp8.form)),
        ("grp/normal-interval", grp8.form, ni8),
        ("quot/leq", quot1234.form, leq_order(quot1234.form)),
    ]


def test_criterion_1_form_law_suite(top123, grp8, quot1234):
    reports = {
        "top[1,2,3]": top123.form.verify_laws(),
        "grp[corpus<=8]": grp8.form.verify_laws(),
        "quot[1,2,3,4]": quot1234.form.verify_laws(),
    }
    ok = all(r.ok for r in reports.values())
    detail = ", ".join(f"{k}: {len(r.violations)} violations" for k, r in reports.items())
    _line(1, ok, f"form-law suite (Galois, functoriality, unit/counit): {detail}")
    assert ok, detail


def test_criterion_2_closure_roundtrip(top123, theta123, grp8, ni8):
    ok = True
    notes = []
    for name, form, order in (("theta", top123.form, theta123), ("normal-interval", grp8.form, ni8)):
        cls = classify_order(form, order)
        ok &= cls.is_TM
        clo = closure_from_order(form, order)
        back = order_from_closure(form, clo)
        same = back == order
        ok &= same
        notes.append(f"{name}: order->closure->order exact={same}")
        equiv = is_idempotent(clo) == cls.is_interpolative
        ok &= equiv
        notes.append(f"{name}: idempotent<->interpolative={equiv}")
    closures = {
        "identity/top": (top123.form, Operator("closure", [tuple(range(fib.size)) for fib in top123.form.fibres])),
        "theta/top": (top123.form, closure_from_order(top123.form, theta123)),
        "normal-closure/grp": (grp8.form, closure_from_order(grp8.form, ni8)),
        "identity/grp": (grp8.form, Operator("closure", [tuple(range(fib.size)) for fib in grp8.form.fibres])),
    }
    for name, (form, clo) in closures.items():
        valid = verify_closure(form, clo).ok
        derived = order_from_closure(form, clo)
        tm = classify_order(form, derived).is_TM
        same = closure_from_order(form, derived) == clo
        ok &= valid and tm and same
        notes.append(f"{name}: closure->order->closure exact={same}")
    # the group closure really is the normal closure, tied back to the oracle
    for x, g in enumerate(grp8.groups):
        masks = grp8.masks[x]
        expected = tuple(masks.index(normal_closure(g, m)) for m in masks)
        ok &= closures["normal-closure/grp"][1].maps[x] == expected
    _line(2, ok, "closure correspondence round trips, exact table equality")
    assert ok, notes


def test_criterion_3_interior_roundtrip(top123, b123):
    form = top123.form
    cls = classify_order(form, b123)
    intr = interior_from_order(form, b123)
    valid = verify_interior(form, intr).ok
    back = order_from_interior(form, intr)
    same_order = back == b123
    again = interior_from_order(form, back)
    same_intr = again == intr
    tj = classify_order(form, back).is_TJ
    equiv = is_idempotent(intr) == cls.is_interpolative
    ok = cls.is_TJ and valid and same_order and same_intr and tj and equiv
    _line(3, ok, f"interior correspondence round trip (b order, n<=3), exact: order={same_order} interior={same_intr}")
    assert ok


def test_criterion_4_transfer_axiom_pull_form_agreement(top123, theta123, b123, grp8, ni8, quot1234):
    bad = []
    for name, form, order in _sweeps(top123, theta123, b123, grp8, ni8, quot1234):
        rep = check_T3_pull_form(form, order, pulled_table(form, order))
        disagreements = [v for v in rep.violations if v.check == "pull-form-agrees-T3"]
        if disagreements:
            bad.append((name, disagreements[:2]))
    _line(4, not bad, f"pull-form <-> transfer-axiom verdicts agree on every morphism ({len(bad)} disagreements)")
    assert not bad, bad


def test_criterion_5_strict_iff_push_preserving(top123, theta123, b123, grp8, ni8, quot1234):
    bad = []
    total = 0
    for name, form, order in _sweeps(top123, theta123, b123, grp8, ni8, quot1234):
        rep = strict_characterization(form, order, CheckContext(form, order).strict_witness)
        total += rep.checks_run
        bad.extend((name, v.where) for v in rep.violations)
    _line(5, not bad, f"strictness <-> push preservation, {total} morphism checks, {len(bad)} disagreements")
    assert not bad, bad[:5]


def test_criterion_6_final_implies_thick(top123, theta123, b123, grp8, ni8, quot1234):
    bad = []
    for name, form, order in _sweeps(top123, theta123, b123, grp8, ni8, quot1234):
        rep = final_thick_check(form, order, classify_order(form, order), CheckContext(form, order).final)
        if not rep.ok:
            bad.append((name, rep.violations[:2]))
    _line(6, not bad, f"final morphisms are thick under the stated hypotheses ({len(bad)} violations)")
    assert not bad, bad


def test_criterion_7_topology_example_propositions(top123, theta123, b123):
    form = top123.form
    names = form.base.names
    theta_final_bad = [
        names[f] for f in range(len(names))
        if top123.functions[f].is_surjective() and not is_final(form, theta123, f)
    ]
    b_strict_bad = [names[f] for f in range(len(names)) if not is_strict(form, b123, f)]
    b_final_bad = [names[f] for f in range(len(names)) if not is_final(form, b123, f)]
    ok = not theta_final_bad and not b_strict_bad and not b_final_bad
    _line(
        7,
        ok,
        "example propositions on sets of size <= 3: "
        f"theta-final surjections ({len(theta_final_bad)} exceptions), "
        f"b-strict all ({len(b_strict_bad)} exceptions), "
        f"b-final all ({len(b_final_bad)} exceptions; expected red, refuted "
        "by every non-surjective function, see the module docstring)",
    )
    assert not theta_final_bad
    assert not b_strict_bad
    assert not b_final_bad, (
        "the b-order finality clause fails for every non-surjective function; "
        f"first witnesses: {b_final_bad[:3]}"
    )


def test_criterion_8_subgroup_characterizations(grp8, ni8):
    form = grp8.form
    strict_bad = []
    final_bad = []
    total = 0
    for f, name in enumerate(form.base.names):
        hom = grp8.homs[f]
        total += 1
        if is_strict(form, ni8, f) != preserves_normals(hom):
            strict_bad.append(name)
        if is_final(form, ni8, f) != hom.is_surjective():
            final_bad.append(name)
    ok = not strict_bad and not final_bad
    _line(
        8,
        ok,
        f"subgroup form over {total} homomorphisms: strict<->preserves-normals "
        f"({len(strict_bad)} exceptions), final<->surjective ({len(final_bad)} exceptions)",
    )
    assert ok, (strict_bad[:3], final_bad[:3])


def test_criterion_9_enumeration_oracles():
    from test_partitions import naive_partitions
    from test_topologies import naive_topologies

    runner = CliRunner()
    top_counts = []
    part_counts = []
    for n in (1, 2, 3, 4):
        res = runner.invoke(["enumerate", "topologies", "--n", str(n)])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)["payload"]
        top_counts.append(payload["count"])
        assert payload["count"] == len(naive_topologies(n))
        assert {tuple(t["opens"]) for t in payload["topologies"]} == {
            tuple(sorted(f)) for f in naive_topologies(n)
        }
        res = runner.invoke(["enumerate", "partitions", "--n", str(n)])
        payload = json.loads(res.stdout)["payload"]
        part_counts.append(payload["count"])
        assert {tuple(p["blocks"]) for p in payload["partitions"]} == naive_partitions(n)
    ok = top_counts == [1, 4, 29, 355] and part_counts == [1, 2, 5, 15]
    _line(9, ok, f"enumeration oracles: topologies {top_counts}, partitions {part_counts}")
    assert ok


def test_criterion_10_randomized_search_finds_nothing():
    claims = ("roundtrip-TM", "roundtrip-TJ", "strict-iff-push", "final-thick")
    found = {}
    for claim in claims:
        out = run_search(claim, budget=1000, seed=20260810)
        found[claim] = len(out["counterexamples"])
    runner = CliRunner()
    res = runner.invoke(
        ["--seed", "20260810", "search", "--claim", "strict-iff-push", "--budget", "100"],
    )
    cli_ok = res.exit_code == 0
    ok = all(v == 0 for v in found.values()) and cli_ok
    _line(10, ok, f"randomized search, 1000 forms per claim: {found} (cli exit {res.exit_code})")
    assert ok, found

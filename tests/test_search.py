"""Random-form generator validity, determinism, and the claim checkers'
ability to actually detect planted faults."""

import pytest

from formkit.morphisms import strict_characterization
from formkit.search import (
    CLAIMS,
    case_rng,
    random_form,
    random_order,
    run_case,
    run_search,
)
from formkit.topogenous import (
    classify_order,
    closure_from_order,
    order_from_closure,
    roundtrip_check,
    verify_order,
)


@pytest.mark.parametrize("seed", range(8))
def test_generated_forms_satisfy_all_laws(seed):
    form = random_form(case_rng(seed, 0))
    assert form.verify_laws().ok
    assert form.base.verify().ok


@pytest.mark.parametrize("seed", range(8))
def test_generated_orders_are_topogenous_and_classed(seed):
    rng = case_rng(seed, 1)
    form = random_form(rng)
    t_any = random_order(rng, form, "any")
    assert verify_order(form, t_any).ok
    t_tm = random_order(rng, form, "TM")
    assert classify_order(form, t_tm).is_TM
    t_tj = random_order(rng, form, "TJ")
    assert classify_order(form, t_tj).is_TJ


def test_generator_produces_varied_shapes():
    shapes = set()
    for i in range(60):
        form = random_form(case_rng(7, i))
        shapes.add((len(form.base.objects), sum(1 for _ in form.base.morphisms())))
    assert len(shapes) >= 4


def test_run_case_is_replayable():
    assert run_case("strict-iff-push", 5, 17) == run_case("strict-iff-push", 5, 17)


def test_unknown_claim_rejected():
    with pytest.raises(ValueError):
        run_case("no-such-claim", 0, 0)


@pytest.mark.parametrize("claim", sorted(CLAIMS))
def test_claims_find_nothing_on_valid_forms(claim):
    out = run_search(claim, 150, 3)
    assert out["counterexamples"] == []
    assert out["forms_checked"] == 150


def test_roundtrip_checker_detects_planted_fault():
    # break the derived closure and make sure the verifier complains
    rng = case_rng(11, 2)
    form = random_form(rng)
    order = random_order(rng, form, "TM")
    clo = closure_from_order(form, order)
    x = form.base.objects[0]
    fib = form.fibre(x)
    if fib.size < 2:
        pytest.skip("fibre too small to corrupt")
    t = list(clo.table(x))
    t[fib.top] = fib.bottom
    from formkit.topogenous import Operator, verify_closure

    bad = Operator("closure", dict(clo.maps, **{x: tuple(t)}))
    assert not verify_closure(form, bad).ok


def test_strict_characterization_detects_planted_fault():
    # corrupting the relation after closure must break some axiom or the
    # strictness agreement; both detectors looked at together always fire
    rng = case_rng(13, 4)
    form = random_form(rng)
    order = random_order(rng, form, "any")
    from formkit.topogenous import TopogenousOrder

    rel = {x: list(rows) for x, rows in order.rel.items()}
    x = form.base.objects[0]
    fib = form.fibre(x)
    changed = False
    for a in range(fib.size):
        free = fib.up[a] & ~rel[x][a] & ~(1 << a)
        if free:
            rel[x][a] |= free & -free
            changed = True
            break
    if not changed:
        pytest.skip("relation already full on this fibre")
    tampered = TopogenousOrder({k: tuple(v) for k, v in rel.items()})
    axioms = verify_order(form, tampered)
    if axioms.ok:
        bad = []
        for f in form.base.morphisms():
            bad.extend(strict_characterization(form, tampered, f).violations)
        trip = roundtrip_check(form, tampered)
        assert bad or not trip.ok or order_from_closure(
            form, closure_from_order(form, tampered)
        ) != tampered
    else:
        assert axioms.violations

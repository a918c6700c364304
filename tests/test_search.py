"""Random-form generator validity, determinism, the claim checkers'
ability to actually detect planted faults, the split search reporting
what the serial one does, and the memo of a search share."""

import json
import os
import signal

import pytest

from cli_runner import CliRunner
from formkit import search
from formkit.checks import WITNESS_SCHEMA, CheckContext
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
    pulled_table,
    roundtrip_check,
    verify_order,
)
from oracles import report_dict


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
    assert verify_order(form, t_any, pulled_table(form, t_any)).ok
    t_tm = random_order(rng, form, "TM")
    assert classify_order(form, t_tm).is_TM
    t_tj = random_order(rng, form, "TJ")
    assert classify_order(form, t_tj).is_TJ


def test_generator_produces_varied_shapes():
    shapes = set()
    for i in range(60):
        form = random_form(case_rng(7, i))
        shapes.add((len(form.base.objects), len(form.base.names)))
    assert len(shapes) >= 4


def test_run_case_is_replayable(planted):
    # the planted check fails on index 10 alone, so both runs must find the
    # same counterexample, and index 11 none
    first, again = run_case("strict-iff-push", 5, 10), run_case("strict-iff-push", 5, 10)
    assert first == again
    assert first is not again
    assert (first["seed"], first["index"], first["claim"]) == (5, 10, "strict-iff-push")
    assert first["violations"] == [{"check": "planted", "where": "index 10", "witness": [10], "detail": ""}]
    assert run_case("strict-iff-push", 5, 11) is None


def test_unknown_claim_rejected():
    with pytest.raises(ValueError):
        run_case("no-such-claim", 0, 0)


@pytest.mark.parametrize("claim", sorted(CLAIMS))
def test_claims_find_nothing_on_valid_forms(claim):
    out = run_search(claim, 150, 3)
    assert out["counterexamples"] == []
    assert out["forms_checked"] == 150


@pytest.mark.parametrize("claim", ["roundtrip-TM", "roundtrip-TJ", "cohereditary-operator"])
def test_claims_draw_orders_their_class_gate_admits(claim, monkeypatch):
    """run_case runs a claim's check without the registry's class gate, so
    every order it draws must have the class the check's ``stable`` names:
    the kernels assume it."""
    from formkit.checks import CHECKS

    drawn = []
    draw = search._random_context

    def recording(rng, form, want):
        drawn.append(draw(rng, form, want))
        return drawn[-1]

    monkeypatch.setattr(search, "_random_context", recording)
    check = CHECKS[CLAIMS[claim][0]]
    for index in range(500):
        run_case(claim, 7, index)
    assert len(drawn) == 500
    assert [i for i, ctx in enumerate(drawn) if not check.admits(ctx)] == []


def test_roundtrip_checker_detects_planted_fault():
    # break the derived closure and make sure the verifier complains
    rng = case_rng(11, 2)
    form = random_form(rng)
    order = random_order(rng, form, "TM")
    clo = closure_from_order(form, order)
    x = 0
    fib = form.fibres[x]
    if fib.size < 2:
        pytest.skip("fibre too small to corrupt")
    t = list(clo.maps[x])
    t[fib.top] = fib.bottom
    from formkit.topogenous import Operator, verify_closure

    bad = Operator("closure", [tuple(t), *clo.maps[1:]])
    assert not verify_closure(form, bad).ok


def test_strict_characterization_detects_planted_fault():
    # corrupting the relation after closure must break some axiom or the
    # strictness agreement; both detectors looked at together always fire
    rng = case_rng(13, 4)
    form = random_form(rng)
    order = random_order(rng, form, "any")
    from formkit.topogenous import TopogenousOrder

    rel = [list(rows) for rows in order.rel]
    x = 0
    fib = form.fibres[x]
    changed = False
    for a in range(fib.size):
        free = fib.up[a] & ~rel[x][a] & ~(1 << a)
        if free:
            rel[x][a] |= free & -free
            changed = True
            break
    if not changed:
        pytest.skip("relation already full on this fibre")
    tampered = TopogenousOrder(rel)
    axioms = verify_order(form, tampered, pulled_table(form, tampered))
    if axioms.ok:
        ctx = CheckContext(form, tampered)
        bad = strict_characterization(form, tampered, ctx.strict_witness).violations
        trip = roundtrip_check(form, tampered, ctx.cls, ctx.derived())
        assert bad or not trip.ok or order_from_closure(
            form, closure_from_order(form, tampered)
        ) != tampered
    else:
        assert axioms.violations


def case_payload(claim, seed, index):
    """Everything one generated case consists of, in canonical form: the
    fibres' up masks, the push and pull tables, then per order class drawn
    the order rows, the order's class and the claim check's report."""
    from formkit.checks import CHECKS

    check, classes = CLAIMS[claim]
    rng = case_rng(seed, index)
    form = random_form(rng)
    out = {
        "fibres": [list(fib.up) for fib in form.fibres],
        "maps": [
            [f, list(push), list(pull)]
            for f, push, pull in zip(form.base.names, form.push, form.pull)
        ],
        "orders": [],
    }
    for want in classes:
        order = random_order(rng, form, want)
        out["orders"].append([
            [list(rows) for rows in order.rel],
            classify_order(form, order).to_dict(),
            report_dict(CHECKS[check].run(CheckContext(form, order))),
        ])
    return out


# sha256 of the generated cases of each claim, seeds 3 and 7, indices
# 0..199, recorded before the generator moved onto mask tables: every
# search golden has no counterexample, so only this pins the generator.
PINNED_CASES = {
    "cohereditary-operator": "02b28fcdd65e6b5eb66808e269a465a54acb02cce60dc89c922accb15f645644",
    "final-thick": "69d3d491aae7f86bfcfd30bfd33693dcbf1ddcf1eceea9ebd12dab78aae5a7e0",
    "roundtrip-TJ": "960f950f8e0e79b7ab720d2548b3cd80f0f0bd60a2dd91a055ec31204898ac63",
    "roundtrip-TM": "d2c6df36da19909a4ea5a7381fdbf1575e0c0e12a0cd511bf536a2fcd052802d",
    "strict-iff-push": "715eb5ef551a3ac1d1deb64c301d08b6e78ffc1b8204ddff9609c3d7ccab6f0e",
    "transfer-laws": "329601d672fb710c41944e00164988e61d597d2bae4ea7597cbe8c50dfceb2d5",
}


@pytest.mark.parametrize("claim", sorted(CLAIMS))
def test_generated_cases_are_pinned(claim):
    import hashlib
    import json

    digest = hashlib.sha256()
    for seed in (3, 7):
        for index in range(200):
            text = json.dumps(case_payload(claim, seed, index), sort_keys=True, separators=(",", ":"))
            digest.update(text.encode())
    assert digest.hexdigest() == PINNED_CASES[claim]


# -- the search split over processes ----------------------------------------------


def _widths(monkeypatch, cpus):
    """Make the affinity set ``cpus`` CPUs wide."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


@pytest.fixture
def case_index(monkeypatch):
    """The index of the case being generated, kept current by wrapping
    case_rng; forked workers inherit the wrapper."""
    current = [None]
    real = search.case_rng

    def recording(seed, index):
        current[0] = index
        return real(seed, index)

    monkeypatch.setattr(search, "case_rng", recording)
    return current


# Indices the planted check fails on: in the parent's share and in workers'
# shares at every width tested, and at both ends of the largest budget.
PLANTED = {0, 1, 2, 3, 4, 6, 10, 501, 998, 999}


@pytest.fixture
def planted(monkeypatch, case_index):
    """strict-iff-push replaced by a check that fails exactly on PLANTED.
    A search share reuses the verdict of a memoised context, so the index
    is planted in the context: a PLANTED case draws its order as before,
    then is checked on a fresh context, outside the memo, whose recipe
    names the index."""
    from formkit.checks import CHECKS
    from formkit.report import Report

    real = search._random_context

    def marking(rng, form, want):
        ctx = real(rng, form, want)
        if case_index[0] in PLANTED:
            ctx = CheckContext(ctx.form, ctx.order, recipe={"planted": case_index[0]})
        return ctx

    def run(ctx):
        rep = Report()
        rep.count("planted")
        if "planted" in ctx.recipe:
            index = ctx.recipe["planted"]
            rep.add("planted", where=f"index {index}", witness=(index,))
        return rep

    monkeypatch.setattr(search, "_random_context", marking)
    monkeypatch.setitem(CHECKS, "strict-iff-push", CHECKS["strict-iff-push"]._replace(run=run))


@pytest.mark.parametrize("min_share", [1, search.MIN_CASES_PER_PROCESS])
@pytest.mark.parametrize("budget", [1, 4, 7, 1000])
def test_split_search_reports_what_the_serial_one_does(monkeypatch, planted, budget, min_share):
    monkeypatch.setattr(search, "MIN_CASES_PER_PROCESS", min_share)
    _widths(monkeypatch, 1)
    serial = run_search("strict-iff-push", budget, 7)
    assert [c["index"] for c in serial["counterexamples"]] == sorted(i for i in PLANTED if i < budget)

    real_fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    for cpus in (2, 3, 5):
        _widths(monkeypatch, cpus)
        forks.clear()
        assert run_search("strict-iff-push", budget, 7) == serial
        assert len(forks) == search.search_width(budget) - 1
    assert search.search_width(1000) == 5


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("failing", [{7}, {6, 7}, {11, 13}, {5, 7, 8, 9}])
def test_a_failing_case_raises_what_the_serial_search_raises(monkeypatch, case_index, cpus, failing):
    # index 7 lies in a worker's share at both widths, 6 in the parent's at
    # both; 11 and 13 lie in different workers' shares at width 3; in the
    # last set the parent fails at 8 or 9 after a worker failed at 5
    real = search._random_context

    def failing_context(rng, form, want):
        if case_index[0] in failing:
            raise RuntimeError(f"planted failure at index {case_index[0]}")
        return real(rng, form, want)

    monkeypatch.setattr(search, "_random_context", failing_context)
    _widths(monkeypatch, 1)
    with pytest.raises(RuntimeError) as serial:
        run_search("roundtrip-TM", 1000, 7)
    _widths(monkeypatch, cpus)
    assert search.search_width(1000) == cpus
    with pytest.raises(RuntimeError) as split:
        run_search("roundtrip-TM", 1000, 7)
    assert str(split.value) == str(serial.value) == f"planted failure at index {min(failing)}"
    _no_child_left()


def test_a_worker_that_dies_has_its_share_run_again(monkeypatch, planted):
    # the worker of the odd indices, four of them planted, is killed at
    # index 7; the parent runs that share itself
    parent, real = os.getpid(), search.run_case

    def dying(claim, seed, index):
        if index == 7 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(claim, seed, index)

    monkeypatch.setattr(search, "run_case", dying)
    _widths(monkeypatch, 1)
    serial = run_search("strict-iff-push", 1000, 7)
    _widths(monkeypatch, 2)
    assert run_search("strict-iff-push", 1000, 7) == serial
    _no_child_left()


def test_shares_left_without_a_worker_run_in_the_parent(monkeypatch, planted):
    # the second fork fails, as when the process limit is reached: shares
    # 2 and 3 run in the parent, share 1 in its worker
    real_fork, forks = os.fork, []

    def fork():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()

    _widths(monkeypatch, 1)
    serial = run_search("strict-iff-push", 1000, 7)
    monkeypatch.setattr(os, "fork", fork)
    _widths(monkeypatch, 4)
    assert run_search("strict-iff-push", 1000, 7) == serial
    assert len(forks) == 2
    _no_child_left()


def test_search_counterexamples_reach_the_report_and_replay(planted, tmp_path):
    # a budget below 2 * MIN_CASES_PER_PROCESS runs in this process, where
    # the planted check is in place; the report lists one counterexample per
    # planted index, its witness names the first, and the witness replays
    # to the same violations
    budget = 20
    assert search.search_width(budget) == 1
    runner = CliRunner()
    res = runner.invoke(["--seed", "7", "search", "--claim", "strict-iff-push", "--budget", str(budget)])
    assert res.exit_code == 1
    (check,) = json.loads(res.stdout)["checks"]
    assert check["name"] == "search:strict-iff-push" and check["status"] == "fail"
    found = {v["where"]: v for v in check["violations"]}
    assert sorted(found) == sorted(f"index {i}" for i in PLANTED if i < budget)
    for i in PLANTED & set(range(budget)):
        v = found[f"index {i}"]
        assert v["check"] == "counterexample" and v["witness"] == [7, i]
        assert json.loads(v["detail"]) == [{"check": "planted", "where": f"index {i}", "witness": [i], "detail": ""}]
    first = min(PLANTED)
    recipe = {"kind": "search", "claim": "strict-iff-push", "seed": 7, "index": first}
    assert check["witness"] == {"schema": WITNESS_SCHEMA, "check": "search", "recipe": recipe}
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(check["witness"]))
    res = runner.invoke(["replay", str(path)])
    assert res.exit_code == 1
    (replayed,) = json.loads(res.stdout)["checks"]
    assert replayed["name"] == "replay:search:strict-iff-push" and replayed["status"] == "fail"
    assert [(v["check"], v["where"]) for v in replayed["violations"]] == [("counterexample", f"index {first}")]
    assert [json.loads(v["detail"]) for v in replayed["violations"]] == json.loads(found[f"index {first}"]["detail"])


# -- the memo of a search share -----------------------------------------------------


def _form_tables(form):
    """A form's content: the fibres' up masks and the push and pull tables."""
    return tuple(tuple(fib.up) for fib in form.fibres), tuple(form.push), tuple(form.pull)


def _one_apart(a, b):
    """Whether two tables of tables of ints, shaped alike, differ in exactly
    one entry."""
    flat_a, flat_b = [x for row in a for x in row], [x for row in b for x in row]
    return len(flat_a) == len(flat_b) and sum(x != y for x, y in zip(flat_a, flat_b)) == 1


@pytest.fixture
def echoing(monkeypatch):
    """Every claim's check runs as before, then fails with what it was run
    on, so every case is a counterexample that names its form and order."""
    from formkit.checks import CHECKS

    for name in {check for check, _ in CLAIMS.values()}:
        def run(ctx, real=CHECKS[name].run):
            rep = real(ctx)
            rep.add("echo", where=repr((_form_tables(ctx.form), ctx.order.rel)))
            return rep

        monkeypatch.setitem(CHECKS, name, CHECKS[name]._replace(run=run))


@pytest.mark.parametrize("seed", [3, 7])
@pytest.mark.parametrize("claim", sorted(CLAIMS))
def test_memoised_search_reports_what_each_case_reports_alone(monkeypatch, echoing, claim, seed):
    # run_case called on its own runs without a memo; a search runs its
    # shares with one, serial or split, and reports every case as its own,
    # those whose form and orders repeat an earlier case's included
    budget = 200
    alone = [run_case(claim, seed, index) for index in range(budget)]
    assert [(c["seed"], c["index"]) for c in alone] == [(seed, index) for index in range(budget)]
    assert len({json.dumps(c["violations"]) for c in alone}) < budget
    monkeypatch.setattr(search, "MIN_CASES_PER_PROCESS", 1)
    for cpus in (1, 2):
        _widths(monkeypatch, cpus)
        assert run_search(claim, budget, seed)["counterexamples"] == alone


def test_a_share_builds_each_distinct_form_and_checks_each_distinct_order_once(monkeypatch):
    # the claim's check runs once per (form, closed order); forms that differ
    # in one push entry, and orders on one form that differ in one row, are
    # kept apart
    from formkit.checks import CHECKS

    budget, drawn, checked = 400, [], []
    draw_form, check = search.random_form, CHECKS["final-thick"]

    def run(ctx):
        checked.append((id(ctx.form), ctx.order.rel))
        return check.run(ctx)

    monkeypatch.setattr(search, "random_form", lambda rng: drawn.append(draw_form(rng)) or drawn[-1])
    monkeypatch.setitem(CHECKS, "final-thick", check._replace(run=run))
    monkeypatch.setattr(search, "MEMO_CAP", 10 * budget)  # never emptied here
    _widths(monkeypatch, 1)
    run_search("final-thick", budget, 7)

    forms = {_form_tables(form): form for form in drawn}
    assert [_form_tables(form) for form in drawn] == [_form_tables(draw_form(case_rng(7, i))) for i in range(budget)]
    assert all(form is forms[_form_tables(form)] for form in drawn)
    assert len(forms) < budget
    assert any(
        x[0] == y[0] and x[1] != y[1] and _one_apart(x[1], y[1]) for x in forms for y in forms
    )

    assert len(set(checked)) == len(checked) < 2 * budget
    orders = {}
    for form, rel in checked:
        orders.setdefault(form, []).append(rel)
    assert any(_one_apart(a, b) for rels in orders.values() for a in rels for b in rels)


def test_the_memo_lives_for_one_share_and_keeps_to_its_cap(monkeypatch, echoing, case_index):
    _widths(monkeypatch, 1)
    full = run_search("roundtrip-TM", 300, 7)
    assert not hasattr(search._SHARE, "memo")

    sizes, draw_form, draw_context = [], search.random_form, search._random_context

    def sizing(draw):
        def sized(*args):
            out = draw(*args)
            sizes.append(len(search._SHARE.memo))
            return out

        return sized

    monkeypatch.setattr(search, "random_form", sizing(draw_form))
    monkeypatch.setattr(search, "_random_context", sizing(draw_context))
    monkeypatch.setattr(search, "MEMO_CAP", 16)
    assert run_search("roundtrip-TM", 300, 7) == full
    assert max(sizes) == 16 and any(b < a for a, b in zip(sizes, sizes[1:]))  # emptied when full
    assert not hasattr(search._SHARE, "memo")

    def failing(rng, form, want):
        if case_index[0] == 250:
            raise RuntimeError("planted failure")
        return draw_context(rng, form, want)

    monkeypatch.setattr(search, "_random_context", failing)
    with pytest.raises(RuntimeError):
        run_search("roundtrip-TM", 300, 7)
    assert not hasattr(search._SHARE, "memo")

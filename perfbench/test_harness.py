"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/test_harness.py

Run from the root of the checkout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from tracer import self_times  # noqa: E402
from verdict import differences, verdict_of  # noqa: E402


def report(path: str = "/data/top4.json", checks_run: int = 3743) -> dict:
    return {
        "command": ["verify", "form", path],
        "version": "0.1.0",
        "inputs": {path: "sha256:abc"},
        "ok": False,
        "checks": [
            {"name": "order-axioms", "status": "pass", "checks_run": 1342, "violations": [], "notes": []},
            {
                "name": "transfer-laws",
                "status": "fail",
                "checks_run": checks_run,
                "violations": [
                    {"check": "section-strict-final", "where": "1pt->2pt:0", "witness": [[0, 1]], "detail": ""},
                    {"check": "section-strict-final", "where": "1pt->2pt:1", "witness": [[0, 2]], "detail": ""},
                ],
                "notes": ["a note"],
                "witness": {"schema": 1, "check": "transfer-laws", "recipe": {"form_file": path}},
            },
        ],
    }


REFERENCE = verdict_of(1, json.dumps(report()))


def test_comparator_accepts_identical_report():
    assert differences(verdict_of(1, json.dumps(report())), REFERENCE) == []


def test_comparator_ignores_counts_path_and_violation_order():
    other = report(path="/elsewhere/form.json", checks_run=99)
    other["checks"][1]["violations"].reverse()
    other["checks"][1]["notes"] = []
    assert differences(verdict_of(1, json.dumps(other)), REFERENCE) == []


def test_judge_ignores_elapsed_on_stderr():
    cmd = bench.Command("x", [])
    for stderr in ("elapsed: 0.258s\n", "elapsed: 12.000s\n"):
        res = {"exit": 1, "stdout": json.dumps(report()), "stderr": stderr}
        assert bench.judge(cmd, res, REFERENCE) == []


def test_comparator_rejects_changed_status():
    other = report()
    other["checks"][1]["status"] = "reported"
    assert differences(verdict_of(1, json.dumps(other)), REFERENCE)


def test_comparator_rejects_dropped_violation():
    other = report()
    other["checks"][1]["violations"].pop()
    assert differences(verdict_of(1, json.dumps(other)), REFERENCE)


def test_comparator_rejects_changed_witness():
    other = report()
    other["checks"][1]["violations"][0]["witness"] = [[0, 3]]
    assert differences(verdict_of(1, json.dumps(other)), REFERENCE)


def test_comparator_rejects_changed_exit_code():
    assert differences(verdict_of(0, json.dumps(report())), REFERENCE)


def test_comparator_rejects_missing_check():
    other = report()
    del other["checks"][0]
    assert differences(verdict_of(1, json.dumps(other)), REFERENCE)


def test_comparator_rejects_changed_emitted_form():
    ref = verdict_of(0, json.dumps({"checks": []}), {"objects": ["1pt"]})
    assert differences(verdict_of(0, json.dumps({"checks": []}), {"objects": ["1pt"]}), ref) == []
    assert differences(verdict_of(0, json.dumps({"checks": []}), {"objects": ["2pt"]}), ref)


def test_judge_fails_a_traceback_and_non_report_stdout():
    cmd = bench.Command("x", [])
    res = {"exit": 1, "stdout": json.dumps(report()), "stderr": "Traceback (most recent call last):\n"}
    assert bench.judge(cmd, res, REFERENCE)
    res = {"exit": 1, "stdout": "", "stderr": ""}
    assert bench.judge(cmd, res, REFERENCE)


def test_self_times_on_a_span_tree():
    spans = [
        ["cli", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["c", 5.0, 9.0, 0],
        ["d", 5.5, 6.0, 3],
        ["d", 7.0, 8.0, 3],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.5, 0.5, 1.0])


def test_self_times_count_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1], ["x", 1.0, 5.0, 0], ["y", 3.0, 7.0, 0], ["z", 9.0, 12.0, 0]]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_sum_self_times_and_counts():
    doc = {
        "spans": [["cli", 0.0, 2.0, -1], ["search.case", 0.5, 1.5, 0], ["search.random_form", 0.5, 1.0, 1]],
        "counts": {"lattice.leq.calls": 7},
        "generated_forms": 4,
        "distinct_forms": 3,
    }
    out = bench.layer_metrics([doc, doc])
    assert out["cli.self_s"] == pytest.approx(2.0)
    assert out["search.random_form.self_s"] == pytest.approx(1.0)
    assert out["lattice.leq.calls"] == 14
    assert out["search.case_samples"] == 2
    assert out["search.case_p50_ms"] == pytest.approx(1000.0)
    assert out["search.distinct_ratio"] == pytest.approx(0.75)


def test_benchmark_json_names_the_metrics_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["theorems", "verify", "build", "search"]


def test_every_benchmark_command_has_a_reference():
    refs = json.loads((HERE / "references.json").read_text())["commands"]
    ids = [c.id for w in ("theorems", "verify", "build", "search") for c in bench.workload_commands(w, Path("w"), 0)]
    assert sorted(ids) == sorted(refs)
    assert not any("--jobs" in c.args for w in ("theorems", "verify", "build", "search") for c in bench.workload_commands(w, Path("w"), 0))


def test_traced_child_wraps_names_imported_by_other_modules(tmp_path):
    spans_path = tmp_path / "spans.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    argv = ["check-theorems", "--instance", "top", "--sizes", "1,2", "--order", "theta"]
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--trace", str(spans_path), "--", *argv],
        env=env, capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert "Traceback" not in proc.stderr
    doc = json.loads(spans_path.read_text())
    names = [s[0] for s in doc["spans"]]
    assert names[0] == "cli" and names.count("cli") == 1
    parents = {s[0]: doc["spans"][s[3]][0] for s in doc["spans"] if s[3] >= 0}
    # cli imported these by name; topogenous calls verify_closure through its globals.
    assert parents["topologies.build"] == "cli"
    assert parents["setmaps.function_category"] == "topologies.build"
    assert parents["topogenous.verify_order"] in ("cli", "topogenous.roundtrip")
    assert parents["topogenous.verify_closure"] == "topogenous.roundtrip"
    assert doc["counts"]["lattice.leq.calls"] > 0
    assert doc["counts"]["morphisms.transfer_laws.checks"] > 0
    plain = subprocess.run(
        [sys.executable, "-m", "formkit.cli", *argv], env=env, capture_output=True, text=True, cwd=tmp_path, timeout=120
    )
    assert proc.returncode == plain.returncode
    assert differences(verdict_of(proc.returncode, proc.stdout), verdict_of(plain.returncode, plain.stdout)) == []


def test_missing_checkout_exits_nonzero_without_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "search", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_passes_are_scaled_by_the_calibrations_around_them():
    ref = bench.CALIBRATION_REFERENCE_S
    passes = [bench.Pass(False, [0.2], {"a": 3.0}), bench.Pass(False, [0.2], {"a": 3.0})]
    setup = bench.scale_to_reference(passes, [ref, 3 * ref, ref], [0.1])
    # Twice the reference time on average around each pass: half the time.
    assert [p.scale for p in passes] == pytest.approx([0.5, 0.5])
    assert setup == pytest.approx([0.1, 0.2, 0.2 / 3])


@pytest.mark.parametrize("q, want", [(0.5, 5), (0.99, 10), (0.0, 1)])
def test_quantile_is_nearest_rank(q, want):
    assert bench.quantile(list(range(1, 11)), q) == want

"""Byte-for-byte locks on CLI reports.

Each golden file under tests/golden/ holds the exit code of one fixed
invocation on its first line and the invocation's stdout after it. The
invocations run inside one isolated directory with relative file names, so
input paths and their digests are the same on every machine.

After an intended change to a report, regenerate with

    PYTHONPATH=src python tests/test_golden.py --regen

and record in CHANGES.md which goldens changed and why.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

from cli_runner import CliRunner
from formkit.jsonio import dump_json, form_to_dict, load_json, order_to_dict
from formkit.search import case_rng, random_form, random_order
from formkit.topologies import b_order, build_top_form

GOLDEN_DIR = Path(__file__).parent / "golden"

TOP12 = ["--instance", "top", "--sizes", "1,2"]
GRP4 = ["--instance", "grp", "--max-order", "4"]

CASES: dict[str, list[str]] = {
    # the theorem battery on each instance family
    "ct-top12-theta": ["check-theorems", *TOP12, "--order", "theta"],
    "ct-top12-b": ["check-theorems", *TOP12, "--order", "b"],
    "ct-grp4-normal-interval": ["check-theorems", *GRP4, "--order", "normal-interval"],
    "ct-quot123-leq": ["check-theorems", "--instance", "quot", "--sizes", "1,2,3"],
    "ct-files-top12-b": ["check-theorems", "--form", "top12.json", "--order", "b12.json"],
    "ct-files-top2-leq": ["check-theorems", "--form", "top2.json"],
    "ct-files-neither-class": ["check-theorems", "--form", "rand.json", "--order", "rand-order.json"],
    # push and pull of one morphism are no adjoint pair: exit 2, stdout empty
    "ct-files-broken-adjunction": ["check-theorems", "--form", "top12-broken.json"],
    # --check filters
    "ct-check-axioms-b-strict": [
        "check-theorems", *TOP12, "--order", "b", "--check", "order-axioms", "--check", "b-all-strict",
    ],
    "ct-check-theta-clopen": [
        "check-theorems", *TOP12, "--order", "theta",
        "--check", "theta-surjections-final",
        "--check", "theta-clopen-strict-literal",
        "--check", "theta-clopen-strict-per-pair",
    ],
    "ct-check-transfer-laws": ["check-theorems", *GRP4, "--order", "normal-interval", "--check", "transfer-laws"],
    "ct-check-disputed": [
        "check-theorems", *GRP4, "--order", "normal-interval", "--check", "transfer-laws-disputed-clauses",
    ],
    "ct-check-grp-props": [
        "check-theorems", *GRP4, "--order", "normal-interval",
        "--check", "strict-iff-preserves-normals", "--check", "final-iff-surjective",
    ],
    "ct-check-skipped-roundtrip": ["check-theorems", *TOP12, "--order", "b", "--check", "roundtrip",
                                   "--check", "cohereditary-operator", "--check", "order-class"],
    "ct-check-unselected-axioms-fail": [
        "check-theorems", "--form", "top2.json", "--order", "full2.json", "--check", "strict-iff-push",
    ],
    "ct-check-bogus": ["check-theorems", *TOP12, "--order", "theta", "--check", "bogus"],
    # verify
    "verify-form-top12": ["verify", "form", "--file", "top12.json"],
    "verify-order-theta2": ["verify", "order", "--form", "top2.json", "--order", "theta2.json"],
    "verify-order-full2": ["verify", "order", "--form", "top2.json", "--order", "full2.json"],
    "verify-closure": ["verify", "closure", "--form", "top2.json", "--operator", "clo2.json"],
    "verify-interior": ["verify", "interior", "--form", "top2.json", "--operator", "intr2.json"],
    "verify-lattice-ok": ["verify", "lattice", "--file", "lat.json"],
    "verify-lattice-bad": ["verify", "lattice", "--file", "badlat.json"],
    # derive
    "derive-closure": ["derive", "closure", "--form", "top2.json", "--order", "theta2.json"],
    "derive-interior": ["derive", "interior", "--form", "top2.json", "--order", "b2.json"],
    "derive-order-from-closure": ["derive", "order-from-closure", "--form", "top2.json", "--operator", "clo2.json"],
    "derive-order-from-interior": [
        "derive", "order-from-interior", "--form", "top2.json", "--operator", "intr2.json",
    ],
    "derive-theta": ["derive", "theta", "--n", "2"],
    "derive-b": ["derive", "b", "--n", "2"],
    "derive-theta-out": ["derive", "theta", "--n", "3", "--out", "theta3.json"],
    # classify
    "classify-grp4": ["classify", *GRP4, "--order-name", "normal-interval"],
    "classify-files-morphism": ["classify", "--form", "top12.json", "--order", "b12.json", "--morphism", "1pt->2pt:1"],
    # enumerate and instance
    "enumerate-partitions": ["enumerate", "partitions", "--n", "3"],
    "enumerate-subgroups": ["enumerate", "subgroups", "--group", "S3"],
    "instance-top12-emit": ["instance", "top", "--sizes", "1,2", "--emit", "top12-again.json"],
    "instance-quot12": ["instance", "quot", "--sizes", "1,2"],
    # replay
    "replay-instance": ["replay", "w-instance.json"],
    "replay-inline": ["replay", "w-inline.json"],
    "replay-search": ["replay", "w-search.json"],
    "replay-lattice-file": ["replay", "w-lattice.json"],
    "replay-closure": ["replay", "w-closure.json"],
    "replay-form-files": ["replay", "w-files.json"],
    "replay-disputed": ["replay", "w-disputed.json"],
    "replay-unknown-check": ["replay", "w-unknown.json"],
    # text layout
    "text-ct-top12-b": ["--format", "text", "check-theorems", *TOP12, "--order", "b"],
}

SEARCH_CLAIMS = (
    "roundtrip-TM", "roundtrip-TJ", "strict-iff-push", "final-thick", "transfer-laws", "cohereditary-operator",
)
for _claim in SEARCH_CLAIMS:
    CASES[f"search-{_claim}"] = ["search", "--claim", _claim, "--budget", "50"]


def _run(args: list[str]):
    return CliRunner().invoke(args)


def _witness_of(args: list[str], check: str) -> dict:
    report = json.loads(_run(args).stdout)
    return next(c["witness"] for c in report["checks"] if c["name"] == check)


def _write_inputs() -> None:
    """The input files every case reads, built in the current directory."""
    for args in (
        ["instance", "top", "--sizes", "1,2", "--emit", "top12.json"],
        ["instance", "top", "--sizes", "2", "--emit", "top2.json"],
        ["derive", "theta", "--n", "2", "--out", "theta2.json"],
        ["derive", "b", "--n", "2", "--out", "b2.json"],
        ["derive", "closure", "--form", "top2.json", "--order", "theta2.json", "--out", "clo2.json"],
        ["derive", "interior", "--form", "top2.json", "--order", "b2.json", "--out", "intr2.json"],
    ):
        assert _run(args).exit_code == 0, args
    broken = load_json("top12.json")
    broken["push"]["2pt->2pt:1.0"] = [3, 3, 3, 3]  # still monotone, but no longer left adjoint to pull
    dump_json(broken, "top12-broken.json")
    dump_json(order_to_dict(b_order(build_top_form([1, 2]))), "b12.json")
    dump_json({"form": None, "rel": {"2pt": [[True] * 4 for _ in range(4)]}}, "full2.json")
    rng = case_rng(1, 1)  # an order neither meet- nor join-stable: emits skipped checks
    form = random_form(rng)
    dump_json(form_to_dict(form), "rand.json")
    dump_json(order_to_dict(random_order(rng, form, "any")), "rand-order.json")
    dump_json({"size": 2, "leq": [[True, True], [False, True]]}, "lat.json")
    dump_json({"size": 2, "leq": [[True, False], [False, True]]}, "badlat.json")
    dump_json({"map": {"2pt": [0, 0, 0, 0]}}, "badclo2.json")

    dump_json(_witness_of(["check-theorems", *TOP12, "--order", "b"], "b-all-final"), "w-instance.json")
    dump_json(
        _witness_of(["verify", "order", "--form", "top2.json", "--order", "full2.json"], "order-axioms"),
        "w-inline.json",
    )
    dump_json(
        {"schema": 1, "check": "search", "recipe": {"kind": "search", "claim": "roundtrip-TM", "seed": 5, "index": 3}},
        "w-search.json",
    )
    dump_json(_witness_of(["verify", "lattice", "--file", "badlat.json"], "lattice-axioms"), "w-lattice.json")
    dump_json(
        _witness_of(["verify", "closure", "--form", "top2.json", "--operator", "badclo2.json"], "closure-axioms"),
        "w-closure.json",
    )
    dump_json(
        _witness_of(["check-theorems", "--form", "top12.json", "--order", "b12.json"], "transfer-laws"),
        "w-files.json",
    )
    dump_json(
        _witness_of(["check-theorems", *GRP4, "--order", "normal-interval"], "transfer-laws-disputed-clauses"),
        "w-disputed.json",
    )
    dump_json(
        {"schema": 1, "check": "no-such-check", "recipe": {"kind": "top", "sizes": [1, 2], "order": "b"}},
        "w-unknown.json",
    )


def _render(result) -> str:
    return f"exit {result.exit_code}\n{result.stdout}"


@pytest.fixture(scope="module")
def workdir():
    with CliRunner().isolated_filesystem():
        _write_inputs()
        yield os.getcwd()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    expected = (GOLDEN_DIR / f"{name}.golden").read_text()
    assert _render(_run(CASES[name])) == expected


def _regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with CliRunner().isolated_filesystem():
        _write_inputs()
        for name, args in sorted(CASES.items()):
            (GOLDEN_DIR / f"{name}.golden").write_text(_render(_run(args)))


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_golden.py --regen")
    _regenerate()

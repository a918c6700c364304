"""CLI surface: subcommands, exit codes, report determinism, witness
replay."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import formkit
from cli_runner import CliRunner
from formkit.checks import REGISTRY
from formkit.cli import main
from formkit.jsonio import dump_json, form_to_dict, operator_to_dict, order_to_dict
from formkit.topogenous import closure_from_order
from formkit.topologies import b_order, build_top_form, theta_order


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(args)


def parse(result):
    return json.loads(result.stdout)


def test_enumerate_topology_counts(runner):
    for n, count in [(1, 1), (2, 4), (3, 29), (4, 355)]:
        res = invoke(runner, ["enumerate", "topologies", "--n", str(n)])
        assert res.exit_code == 0
        assert parse(res)["payload"]["count"] == count


def test_enumerate_partitions(runner):
    res = invoke(runner, ["enumerate", "partitions", "--n", "4"])
    assert parse(res)["payload"]["count"] == 15


def test_enumerate_subgroups_corpus_and_file(runner, tmp_path):
    res = invoke(runner, ["enumerate", "subgroups", "--group", "S3"])
    assert res.exit_code == 0
    payload = parse(res)["payload"]
    assert payload["count"] == 6
    assert sum(1 for s in payload["subgroups"] if s["normal"]) == 3
    path = tmp_path / "s3.json"
    cayley = [[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 3, 0, 1, 5, 4],
              [3, 2, 5, 4, 0, 1], [4, 5, 1, 0, 3, 2], [5, 4, 3, 2, 1, 0]]
    dump_json({"order": 6, "cayley": cayley, "name": "S3"}, str(path))
    res2 = invoke(runner, ["enumerate", "subgroups", "--file", str(path)])
    assert parse(res2)["payload"]["count"] == 6
    res3 = invoke(runner, ["enumerate", "subgroups", "--group", "S3", "--file", str(path)])
    assert res3.exit_code == 2


def test_enumerate_cap_is_usage_error(runner):
    res = invoke(runner, ["enumerate", "topologies", "--n", "9"])
    assert res.exit_code == 2


def test_instance_emit_and_verify_roundtrip(runner, tmp_path):
    form_path = tmp_path / "top2.json"
    res = invoke(runner, ["instance", "top", "--sizes", "2", "--emit", str(form_path)])
    assert res.exit_code == 0
    res = invoke(runner, ["verify", "form", "--file", str(form_path)])
    assert res.exit_code == 0
    report = parse(res)
    assert report["ok"] is True
    names = {c["name"]: c["status"] for c in report["checks"]}
    assert names == {"base-category": "pass", "form-laws": "pass", "lifting-iso-laws": "pass"}
    assert str(form_path) in report["inputs"]


def test_instance_quot_and_grp_emit(runner, tmp_path):
    quot = tmp_path / "quot.json"
    res = invoke(runner, ["instance", "quot", "--sizes", "1,2,3", "--emit", str(quot)])
    assert res.exit_code == 0
    res = invoke(runner, ["verify", "form", "--file", str(quot)])
    assert res.exit_code == 0


def test_verify_lattice(runner, tmp_path):
    path = tmp_path / "lat.json"
    dump_json({"size": 2, "leq": [[True, True], [False, True]]}, str(path))
    res = invoke(runner, ["verify", "lattice", "--file", str(path)])
    assert res.exit_code == 0
    bad = tmp_path / "bad.json"
    dump_json({"size": 2, "leq": [[True, False], [False, True]]}, str(bad))
    res = invoke(runner, ["verify", "lattice", "--file", str(bad)])
    assert res.exit_code == 1
    assert any(v["check"].startswith("missing") for c in parse(res)["checks"] for v in c["violations"])


def test_verify_order_full_relation_fails_T1(runner, tmp_path):
    form_path = tmp_path / "top2.json"
    invoke(runner, ["instance", "top", "--sizes", "2", "--emit", str(form_path)])
    order_path = tmp_path / "full.json"
    dump_json({"form": None, "rel": {"2pt": [[True] * 4 for _ in range(4)]}}, str(order_path))
    res = invoke(runner, ["verify", "order", "--form", str(form_path), "--order", str(order_path)])
    assert res.exit_code == 1
    violations = [v for c in parse(res)["checks"] for v in c["violations"]]
    assert any(v["check"] == "T1" for v in violations)


def test_handwritten_form_json_verifies_like_generated(runner, tmp_path):
    # a two-chain fibre pushed into a three-chain, written out by hand
    chain2 = {"size": 2, "leq": [[True, True], [False, True]]}
    chain3 = {
        "size": 3,
        "leq": [[True, True, True], [False, True, True], [False, False, True]],
    }
    doc = {
        "objects": ["X", "Y"],
        "homs": {"X,X": ["idX"], "Y,Y": ["idY"], "X,Y": ["f"], "Y,X": []},
        "compose": {"idX;idX": "idX", "idY;idY": "idY", "f;idX": "f", "idY;f": "f"},
        "identities": {"X": "idX", "Y": "idY"},
        "fibres": {"X": chain2, "Y": chain3},
        "push": {"idX": [0, 1], "idY": [0, 1, 2], "f": [0, 2]},
        "pull": {"idX": [0, 1], "idY": [0, 1, 2], "f": [0, 0, 1]},
    }
    path = tmp_path / "hand.json"
    dump_json(doc, str(path))
    res = invoke(runner, ["verify", "form", "--file", str(path)])
    assert res.exit_code == 0
    # swap the two push entries: the report names the broken adjunction on f
    doc["push"]["f"] = [2, 0]
    dump_json(doc, str(path))
    res = invoke(runner, ["verify", "form", "--file", str(path)])
    assert res.exit_code == 1
    galois = [
        v
        for c in parse(res)["checks"]
        for v in c["violations"]
        if v["check"] in ("galois", "push-monotone")
    ]
    assert galois and all(v["where"] == "f" for v in galois)


def _top2_inputs(tmp_path):
    """top[2] with its theta order and derived closure, and a witness, as files."""
    paths = {name: str(tmp_path / f"{name}.json") for name in ("form", "order", "closure", "witness")}
    form = build_top_form([2])
    order = theta_order(form)
    dump_json(form_to_dict(form.form), paths["form"])
    objects = form.form.base.objects
    dump_json(order_to_dict(order, objects), paths["order"])
    dump_json(operator_to_dict(closure_from_order(form.form, order), objects), paths["closure"])
    witness = {"schema": 1, "check": "b-all-final", "recipe": {"kind": "top", "sizes": [1, 2], "order": "b"}}
    dump_json(witness, paths["witness"])
    return paths


def _write(tmp_path, doc, name="bad.json"):
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def _dir(tmp_path, name="adir"):
    path = tmp_path / name
    path.mkdir(exist_ok=True)
    return str(path)


def _with(doc, path, *value):
    """A copy of doc with the entry at path replaced, or deleted when no
    value is given."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value:
        target[path[-1]] = value[0]
    else:
        del target[path[-1]]
    return doc


def _witness(recipe):
    """A witness of order-axioms that replays from ``recipe``."""
    return {"schema": 1, "check": "order-axioms", "recipe": {"order": "leq", **recipe}}


def _good(paths, key):
    return json.loads(Path(paths[key]).read_text())


# Nested past the parser's recursion limit.
NESTED = "[" * 100_000 + "]" * 100_000

MALFORMED = {
    "invalid-json": lambda t, p: ["verify", "form", "--file", _write(t, "{not json")],
    "json-nested-too-deeply": lambda t, p: ["verify", "form", "--file", _write(t, NESTED)],
    "lattice-nested-too-deeply": lambda t, p: ["verify", "lattice", "--file", _write(t, NESTED)],
    "replay-nested-too-deeply": lambda t, p: ["replay", _write(t, NESTED)],
    "lattice-integer-too-long": lambda t, p: ["verify", "lattice", "--file", _write(t, '{"size": ' + "1" * 5000 + "}")],
    "form-missing-key": lambda t, p: ["verify", "form", "--file", _write(t, {"objects": ["X"]})],
    "operator-non-int-entry": lambda t, p: [
        "verify", "closure", "--form", p["form"],
        "--operator", _write(t, _with(_good(p, "closure"), ("map", "2pt", 0), "x")),
    ],
    "form-float-push-entry": lambda t, p: [
        "verify", "form", "--file", _write(t, _with(_good(p, "form"), ("push", "2pt->2pt:0.1", 0), 1.5)),
    ],
    "order-rel-not-rows": lambda t, p: [
        "verify", "order", "--form", p["form"], "--order", _write(t, {"form": None, "rel": {"2pt": 5}}),
    ],
    "order-extra-object": lambda t, p: [
        "verify", "order", "--form", p["form"],
        "--order", _write(t, _with(_good(p, "order"), ("rel", "ghost"), [[True]])),
    ],
    "order-from-closure-out-of-range": lambda t, p: [
        "derive", "order-from-closure", "--form", p["form"],
        "--operator", _write(t, {"map": {"2pt": [9, 9, 9, 9]}}),
    ],
    "witness-is-a-list": lambda t, p: ["replay", _write(t, [1, 2])],
    "lattice-non-bool-entries": lambda t, p: [
        "verify", "lattice", "--file", _write(t, {"size": 2, "leq": [["yes", "no"], [0, "true"]]}),
    ],
    "order-string-entry": lambda t, p: [
        "verify", "order", "--form", p["form"],
        "--order", _write(t, _with(_good(p, "order"), ("rel", "2pt", 1, 0), "false")),
    ],
    "group-string-order": lambda t, p: [
        "enumerate", "subgroups", "--file", _write(t, {"order": "2", "cayley": [[0, 1], [1, 0]]}),
    ],
    "group-list-name": lambda t, p: [
        "enumerate", "subgroups", "--file", _write(t, {"order": 2, "cayley": [[0, 1], [1, 0]], "name": ["Z2"]}),
    ],
    "check-theorems-form-and-instance": lambda t, p: [
        "check-theorems", "--form", p["form"], "--instance", "quot", "--sizes", "1",
    ],
    "classify-form-and-instance": lambda t, p: [
        "classify", "--form", p["form"], "--instance", "quot", "--sizes", "1",
    ],
    "check-theorems-grp-sizes": lambda t, p: ["check-theorems", "--instance", "grp", "--sizes", "3"],
    "check-theorems-top-corpus": lambda t, p: ["check-theorems", "--instance", "top", "--corpus", "other"],
    "check-theorems-form-sizes": lambda t, p: ["check-theorems", "--form", p["form"], "--sizes", "3"],
    "classify-quot-max-order": lambda t, p: ["classify", "--instance", "quot", "--max-order", "8"],
    "replay-unknown-kind": lambda t, p: ["replay", _write(t, _witness({"kind": "foo"}))],
    "replay-unknown-corpus": lambda t, p: ["replay", _write(t, _witness({"kind": "grp", "corpus": "other"}))],
    "replay-undefined-order": lambda t, p: [
        "replay", _write(t, _witness({"kind": "quot", "sizes": [1], "order": "theta"})),
    ],
    "replay-unusable-sizes": lambda t, p: ["replay", _write(t, _witness({"kind": "top", "sizes": "2"}))],
    "replay-empty-sizes": lambda t, p: ["replay", _write(t, _witness({"kind": "top", "sizes": [], "order": "theta"}))],
    "replay-top-over-cap": lambda t, p: ["replay", _write(t, _witness({"kind": "top", "sizes": [9]}))],
    "replay-max-order-zero": lambda t, p: ["replay", _write(t, _witness({"kind": "grp", "max_order": 0}))],
    "instance-grp-max-order-zero": lambda t, p: ["instance", "grp", "--max-order", "0"],
    "check-theorems-grp-max-order-negative": lambda t, p: ["check-theorems", "--instance", "grp", "--max-order", "-1"],
    "instance-top-over-cap": lambda t, p: ["instance", "top", "--sizes", "5"],
    "instance-quot-over-cap": lambda t, p: ["instance", "quot", "--sizes", "6"],
    "derive-theta-over-cap": lambda t, p: ["derive", "theta", "--n", "9"],
    "search-budget-negative": lambda t, p: ["search", "--claim", "roundtrip-TM", "--budget", "-3"],
    "check-theorems-sizes-not-ints": lambda t, p: ["check-theorems", "--instance", "top", "--sizes", "x"],
    "check-theorems-sizes-none": lambda t, p: ["check-theorems", "--instance", "top", "--sizes", ","],
    "check-theorems-sizes-trailing-comma": lambda t, p: ["check-theorems", "--instance", "top", "--sizes", "2,"],
    "instance-quot-sizes-empty": lambda t, p: ["instance", "quot", "--sizes", ""],
    "instance-quot-sizes-empty-item": lambda t, p: ["instance", "quot", "--sizes", "1,,2"],
    "check-theorems-no-form": lambda t, p: ["check-theorems"],
    "check-theorems-form-named-order": lambda t, p: ["check-theorems", "--form", p["form"], "--order", "theta"],
    "enumerate-unknown-group": lambda t, p: ["enumerate", "subgroups", "--group", "Nope"],
    "file-option-missing": lambda t, p: ["verify", "form", "--file", str(t / "missing.json")],
    "out-is-a-directory": lambda t, p: ["derive", "theta", "--n", "2", "--out", _dir(t)],
    "emit-is-a-directory": lambda t, p: ["instance", "top", "--sizes", "1", "--emit", _dir(t)],
    "lattice-negative-size": lambda t, p: ["verify", "lattice", "--file", _write(t, {"size": -1, "leq": []})],
    "operator-extra-object": lambda t, p: [
        "verify", "closure", "--form", p["form"],
        "--operator", _write(t, _with(_good(p, "closure"), ("map", "ghost"), [0])),
    ],
    "replay-form-file-is-a-directory": lambda t, p: ["replay", _write(t, _witness({"form_file": _dir(t)}))],
}

# A fragment of the message that locates the fault.
MALFORMED_WHERE = {
    "invalid-json": "bad.json:1:2",
    "json-nested-too-deeply": "bad.json: invalid JSON: nested too deeply",
    "lattice-nested-too-deeply": "bad.json: invalid JSON: nested too deeply",
    "replay-nested-too-deeply": "bad.json: invalid JSON: nested too deeply",
    "lattice-integer-too-long": "bad.json: invalid JSON: an integer literal longer than 4300 digits",
    "form-missing-key": "missing key 'homs'",
    "operator-non-int-entry": "map[2pt]",
    "form-float-push-entry": "push[2pt->2pt:0.1]",
    "order-rel-not-rows": "rel[2pt]",
    "order-extra-object": "bad.json: order relates object 'ghost'",
    "order-from-closure-out-of-range": "bad.json: operator table for '2pt'",
    "witness-is-a-list": "bad.json",
    "lattice-non-bool-entries": "leq[0]: expected booleans",
    "order-string-entry": "rel[2pt][1]: expected booleans",
    "group-string-order": "order: expected an integer",
    "group-list-name": "name: expected a string",
    "check-theorems-form-and-instance": "--form and --instance",
    "classify-form-and-instance": "--form and --instance",
    "check-theorems-grp-sizes": "--sizes does not apply to --instance grp",
    "check-theorems-top-corpus": "--corpus does not apply to --instance top",
    "check-theorems-form-sizes": "--sizes does not apply to --form",
    "classify-quot-max-order": "--max-order does not apply to --instance quot",
    "replay-unknown-kind": "bad.json: unknown instance kind 'foo'",
    "replay-unknown-corpus": "bad.json: unknown corpus 'other'",
    "replay-undefined-order": "bad.json: order 'theta' is not defined for instance kind 'quot'",
    "replay-unusable-sizes": "bad.json: recipe field 'sizes' has an unusable value '2'",
    "replay-empty-sizes": "bad.json: recipe field 'sizes' has an unusable value []",
    "replay-top-over-cap": "bad.json: carrier size 9 exceeds the cap of 4",
    "replay-max-order-zero": "bad.json: max_order 0 selects no group; the standard corpus starts at order 1",
    "instance-grp-max-order-zero": "instance: max_order 0 selects no group; the standard corpus starts at order 1",
    "check-theorems-grp-max-order-negative": "recipe: max_order -1 selects no group",
    "instance-top-over-cap": "carrier size 5",
    "instance-quot-over-cap": "ground size 6",
    "derive-theta-over-cap": "between 0 and 4, got 9",
    "search-budget-negative": "--budget",
    "check-theorems-sizes-not-ints": "--sizes expects comma-separated integers, got 'x'",
    "check-theorems-sizes-none": "--sizes expects comma-separated integers, got ','",
    "check-theorems-sizes-trailing-comma": "--sizes expects comma-separated integers, got '2,'",
    "instance-quot-sizes-empty": "--sizes expects comma-separated integers, got ''",
    "instance-quot-sizes-empty-item": "--sizes expects comma-separated integers, got '1,,2'",
    "check-theorems-no-form": "provide --form FILE (with --order FILE) or --instance KIND",
    "check-theorems-form-named-order": "named orders other than 'leq' need --instance; otherwise pass --order FILE",
    "enumerate-unknown-group": "unknown corpus group 'Nope'",
    "file-option-missing": "missing.json' does not exist",
    "out-is-a-directory": "argument --out: file",
    "emit-is-a-directory": "argument --emit: file",
    "lattice-negative-size": "bad.json.size: expected a nonnegative integer",
    "operator-extra-object": "bad.json: operator maps object 'ghost', which the form does not have",
    "replay-form-file-is-a-directory": "adir: Is a directory",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(runner, tmp_path, case):
    res = invoke(runner, MALFORMED[case](tmp_path, _top2_inputs(tmp_path)))
    assert res.exit_code == 2
    assert "Traceback" not in res.stderr
    assert MALFORMED_WHERE[case] in res.stderr


@pytest.mark.parametrize(
    "key, check, extra, message",
    [
        ("order", "order-axioms", {}, "order relates object 'ghost'"),
        ("operator", "closure-axioms", {"operator_kind": "closure"}, "operator table for '2pt' does not fit"),
    ],
)
def test_inline_shape_errors_name_the_recipe_entry(runner, tmp_path, key, check, extra, message):
    # an inline order or operator that does not fit the form is located by
    # the witness file and the recipe key
    paths = _top2_inputs(tmp_path)
    bad = {"order": _with(_good(paths, "order"), ("rel", "ghost"), [[True]]), "operator": {"map": {"2pt": [9] * 4}}}
    recipe = {"kind": "inline", "form": _good(paths, "form"), key: bad[key], **extra}
    witness = _write(tmp_path, {"schema": 1, "check": check, "recipe": recipe}, "wit.json")
    res = invoke(runner, ["replay", witness])
    assert res.exit_code == 2
    assert f"{witness}#{key}: {message}" in res.stderr


@pytest.mark.parametrize(
    "kind, flag, value",
    [("grp", "--sizes", "2"), ("top", "--corpus", "standard"), ("top", "--max-order", "8"),
     ("quot", "--corpus", "standard"), ("quot", "--max-order", "8")],
)
def test_flags_the_instance_kind_does_not_read_exit_2(runner, kind, flag, value):
    # given explicitly, even at their default values, the flags are refused
    res = runner.invoke(["check-theorems", "--instance", kind, flag, value])
    assert res.exit_code == 2
    assert f"{flag} does not apply to --instance {kind}" in res.stderr


def _paths_into(doc, prefix=()):
    """Every path to an entry of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths_into(value, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats(allow_nan=False, width=16) | st.text("2pt,;x", max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("2pt", max_size=3), inner, max_size=3),
    max_leaves=6,
)

FUZZED = {
    "form": lambda p, bad: [
        ["verify", "form", "--file", bad],
        ["check-theorems", "--form", bad],
    ],
    "order": lambda p, bad: [
        ["verify", "order", "--form", p["form"], "--order", bad],
        ["check-theorems", "--form", p["form"], "--order", bad],
    ],
    "closure": lambda p, bad: [
        ["verify", "closure", "--form", p["form"], "--operator", bad],
        ["derive", "order-from-closure", "--form", p["form"], "--operator", bad],
    ],
    "witness": lambda p, bad: [["replay", bad]],
}


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_input_files_never_crash(data):
    """Form, order, operator and witness files mutated at one entry exit
    0, 1 or 2, never with an uncaught exception."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        paths = _top2_inputs(Path("."))
        target = data.draw(st.sampled_from(sorted(FUZZED)))
        doc = _good(paths, target)
        path = data.draw(st.sampled_from(list(_paths_into(doc))))
        if data.draw(st.booleans()) and isinstance(path[-1], str):
            doc = _with(doc, path)
        else:
            doc = _with(doc, path, data.draw(JSON_VALUES))
        bad = _write(Path("."), doc, "mutated.json")
        for args in FUZZED[target](paths, bad):
            res = runner.invoke(args)
            assert res.exit_code in (0, 1, 2), args
            assert "Traceback" not in res.stderr


def test_unknown_subcommand_exits_2(runner):
    res = invoke(runner, ["definitely-not-a-command"])
    assert res.exit_code == 2


def test_main_exits_with_the_command_code(tmp_path, capsys):
    """The benchmark's child process runs a command as ``main.main(...)``
    and reads its exit code from SystemExit: 0 on a pass, 1 on a failed
    check, 2 on a usage error. Usage lines name the program `formkit`,
    also when the call gives no program name."""
    not_a_lattice = _write(tmp_path, {"size": 2, "leq": [[True, False], [False, True]]})
    for args, code in (
        (["enumerate", "partitions", "--n", "2"], 0),
        (["verify", "lattice", "--file", not_a_lattice], 1),
        (["search", "--claim", "roundtrip-TM", "--budget", "0"], 2),
    ):
        with pytest.raises(SystemExit) as exited:
            main.main(args=args, prog_name="formkit", standalone_mode=True)
        assert exited.value.code == code, args
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main.main(args=["search", "--claim", "roundtrip-TM", "--budget", "0"])
    assert capsys.readouterr().err.startswith("usage: formkit search ")


def test_abbreviated_options_exit_2(runner):
    for args in (
        ["search", "--claim", "roundtrip-TM", "--budg", "5"],
        ["--form", "text", "enumerate", "partitions", "--n", "2"],
        ["instance", "grp", "--max=4"],
    ):
        res = invoke(runner, args)
        assert res.exit_code == 2, args
    assert "--budg" in invoke(runner, ["search", "--claim", "roundtrip-TM", "--budg", "5"]).stderr


def _formkit_process(args: list[str], stdout) -> subprocess.Popen:
    """`formkit args` in a fresh interpreter whose stdout is block-buffered,
    as it is for a pipe unless PYTHONUNBUFFERED is set."""
    env = dict(os.environ, PYTHONPATH=str(Path(formkit.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "formkit.cli", *args], env=env, stdout=stdout, stderr=subprocess.PIPE)


def test_stdout_closed_early_exits_1_without_a_traceback():
    """A reader that stops early, as `formkit ... | head` does, ends the
    command with exit 1 and no traceback on stderr."""
    with _formkit_process(["instance", "quot", "--sizes", "1,2,3,4"], subprocess.PIPE) as proc:  # an 8 MB report
        proc.stdout.read(10)
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in stderr


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_stdout_closed_before_a_short_report_exits_1(fmt):
    """A report shorter than stdout's buffer meets the closed pipe only when
    it is flushed, as `formkit ... | true` does: exit 1 and no traceback,
    in either format, not a failed flush at interpreter exit."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        with _formkit_process(["--format", fmt, "enumerate", "partitions", "--n", "2"], write_end) as proc:
            stderr = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 1
    finally:
        os.close(write_end)
    assert "Traceback" not in stderr and "Exception ignored" not in stderr


def test_version_prints_the_program_and_version(runner):
    res = invoke(runner, ["--version"])
    assert (res.exit_code, res.stdout) == (0, "formkit, version 0.1.0\n")


def test_usage_lines_name_formkit(runner):
    assert invoke(runner, ["--help"]).stdout.startswith("usage: formkit ")
    assert invoke(runner, ["verify", "form", "--help"]).stdout.startswith("usage: formkit verify form ")
    res = invoke(runner, ["search", "--budget", "5"])
    assert res.exit_code == 2
    assert res.stderr.startswith("usage: formkit search ")
    assert "formkit search: error: the following arguments are required: --claim" in res.stderr


def test_derive_theta_then_verify(runner, tmp_path):
    form_path = tmp_path / "top2.json"
    invoke(runner, ["instance", "top", "--sizes", "2", "--emit", str(form_path)])
    order_path = tmp_path / "theta.json"
    res = invoke(runner, ["derive", "theta", "--n", "2", "--out", str(order_path)])
    assert res.exit_code == 0
    res = invoke(runner, ["verify", "order", "--form", str(form_path), "--order", str(order_path)])
    assert res.exit_code == 0
    cls = [c for c in parse(res)["checks"] if c["name"] == "order-class"][0]
    assert cls["data"]["is_TM"] is True


def test_derive_closure_chain(runner, tmp_path):
    form_path = tmp_path / "top2.json"
    invoke(runner, ["instance", "top", "--sizes", "2", "--emit", str(form_path)])
    theta_path = tmp_path / "theta.json"
    invoke(runner, ["derive", "theta", "--n", "2", "--out", str(theta_path)])
    clo_path = tmp_path / "clo.json"
    res = invoke(
        runner,
        ["derive", "closure", "--form", str(form_path), "--order", str(theta_path), "--out", str(clo_path)],
    )
    assert res.exit_code == 0
    res = invoke(runner, ["verify", "closure", "--form", str(form_path), "--operator", str(clo_path)])
    assert res.exit_code == 0
    back_path = tmp_path / "back.json"
    res = invoke(
        runner,
        ["derive", "order-from-closure", "--form", str(form_path), "--operator", str(clo_path), "--out", str(back_path)],
    )
    assert res.exit_code == 0
    assert json.loads(back_path.read_text())["rel"] == json.loads(theta_path.read_text())["rel"]


def test_derive_interior_roundtrip(runner, tmp_path):
    form_path = tmp_path / "top2.json"
    invoke(runner, ["instance", "top", "--sizes", "2", "--emit", str(form_path)])
    b_path = tmp_path / "b.json"
    invoke(runner, ["derive", "b", "--n", "2", "--out", str(b_path)])
    intr_path = tmp_path / "intr.json"
    res = invoke(
        runner,
        ["derive", "interior", "--form", str(form_path), "--order", str(b_path), "--out", str(intr_path)],
    )
    assert res.exit_code == 0
    res = invoke(runner, ["verify", "interior", "--form", str(form_path), "--operator", str(intr_path)])
    assert res.exit_code == 0
    back = tmp_path / "back.json"
    invoke(
        runner,
        ["derive", "order-from-interior", "--form", str(form_path), "--operator", str(intr_path), "--out", str(back)],
    )
    assert json.loads(back.read_text())["rel"] == json.loads(b_path.read_text())["rel"]


def test_check_theorems_instance_exit_zero(runner):
    res = invoke(runner, ["check-theorems", "--instance", "top", "--sizes", "2", "--order", "theta"])
    assert res.exit_code == 0
    report = parse(res)
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["strict-iff-push"] == "pass"
    assert statuses["final-thick"] == "pass"
    assert statuses["t3-pull-agreement"] == "pass"
    assert statuses["roundtrip"] == "pass"
    assert statuses["theta-surjections-final"] == "pass"


def test_check_theorems_reports_b_final_failure(runner):
    res = invoke(runner, ["check-theorems", "--instance", "top", "--sizes", "1,2", "--order", "b"])
    assert res.exit_code == 1
    statuses = {c["name"]: c["status"] for c in parse(res)["checks"]}
    assert statuses["b-all-strict"] == "pass"
    assert statuses["b-all-final"] == "fail"
    assert statuses["transfer-laws-disputed-clauses"] in ("pass", "reported")


def test_check_theorems_check_filter(runner):
    res = invoke(
        runner,
        ["check-theorems", "--instance", "top", "--sizes", "1,2", "--order", "b",
         "--check", "order-axioms", "--check", "b-all-strict"],
    )
    assert res.exit_code == 0
    names = [c["name"] for c in parse(res)["checks"]]
    assert names == ["order-axioms", "b-all-strict"]


def test_check_theorems_theta_clopen_readings_full_size(runner):
    res = invoke(
        runner,
        ["check-theorems", "--instance", "top", "--sizes", "1,2,3", "--order", "theta",
         "--check", "theta-surjections-final",
         "--check", "theta-clopen-strict-literal",
         "--check", "theta-clopen-strict-per-pair"],
    )
    assert res.exit_code == 0
    checks = {c["name"]: c for c in parse(res)["checks"]}
    assert checks["theta-surjections-final"]["status"] == "pass"
    assert checks["theta-clopen-strict-literal"]["status"] == "pass"
    # the literal all-pairs quantification qualifies almost no morphisms
    assert checks["theta-clopen-strict-literal"]["checks_run"] < checks[
        "theta-clopen-strict-per-pair"
    ]["checks_run"]
    assert checks["theta-clopen-strict-per-pair"]["status"] == "pass"


def test_check_theorems_grp_instance(runner):
    res = invoke(
        runner,
        ["check-theorems", "--instance", "grp", "--max-order", "4", "--order", "normal-interval",
         "--check", "strict-iff-preserves-normals", "--check", "final-iff-surjective"],
    )
    assert res.exit_code == 0
    statuses = {c["name"]: c["status"] for c in parse(res)["checks"]}
    assert statuses == {
        "strict-iff-preserves-normals": "pass",
        "final-iff-surjective": "pass",
    }


def test_classify_morphism(runner, tmp_path):
    res = invoke(
        runner,
        ["classify", "--instance", "grp", "--max-order", "4", "--order-name", "normal-interval",
         "--morphism", "Z2->Z4:0.2"],
    )
    assert res.exit_code == 0
    payload = parse(res)["payload"]["morphisms"]
    assert len(payload) == 1
    assert payload[0]["final"] is False
    res = invoke(
        runner,
        ["classify", "--instance", "grp", "--max-order", "4", "--order-name", "normal-interval",
         "--morphism", "nope"],
    )
    assert res.exit_code == 2


def test_report_determinism(runner):
    args = ["check-theorems", "--instance", "top", "--sizes", "2", "--order", "theta"]
    out1 = invoke(runner, args).stdout
    out2 = invoke(runner, args).stdout
    assert out1 == out2


def test_search_clean_and_seeded(runner):
    res = invoke(runner, ["--seed", "7", "search", "--claim", "roundtrip-TM", "--budget", "80"])
    assert res.exit_code == 0
    payload = parse(res)["payload"]
    assert payload == {"budget": 80, "claim": "roundtrip-TM", "forms_checked": 80, "seed": 7}
    res2 = invoke(runner, ["--seed", "7", "search", "--claim", "roundtrip-TM", "--budget", "80"])
    assert res.stdout == res2.stdout


def test_search_unknown_claim_exits_2(runner):
    res = invoke(runner, ["search", "--claim", "registry-typo", "--budget", "5"])
    assert res.exit_code == 2


def test_version_flag(runner):
    res = invoke(runner, ["--version"])
    assert res.exit_code == 0
    assert "formkit" in res.stdout


def test_unselected_failing_axioms_still_fail_the_run(runner, tmp_path):
    form_path = tmp_path / "top2.json"
    invoke(runner, ["instance", "top", "--sizes", "2", "--emit", str(form_path)])
    order_path = tmp_path / "full.json"
    dump_json({"form": None, "rel": {"2pt": [[True] * 4 for _ in range(4)]}}, str(order_path))
    res = invoke(
        runner,
        ["check-theorems", "--form", str(form_path), "--order", str(order_path),
         "--check", "strict-iff-push"],
    )
    assert res.exit_code == 1
    names = {c["name"]: c["status"] for c in parse(res)["checks"]}
    assert names.get("order-axioms") == "fail"


def test_broken_adjunction_exits_2_with_the_transfer_message(runner, tmp_path):
    # push of one morphism still monotone but no longer left adjoint to its
    # pull: the order axioms pass, the closure sweep meets the disagreement
    form_path = tmp_path / "top12.json"
    invoke(runner, ["instance", "top", "--sizes", "1,2", "--emit", str(form_path)])
    doc = json.loads(form_path.read_text())
    doc["push"]["2pt->2pt:1.0"] = [3, 3, 3, 3]
    form_path.write_text(json.dumps(doc))
    res = invoke(runner, ["check-theorems", "--form", str(form_path)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert (
        "transfer tests disagree for morphism '2pt->2pt:1.0' at (0, 0); "
        "push/pull tables are not an adjoint pair"
    ) in res.stderr
    assert invoke(runner, ["verify", "form", "--file", str(form_path)]).exit_code == 1


def test_witness_replay_roundtrip(runner, tmp_path):
    res = invoke(runner, ["check-theorems", "--instance", "top", "--sizes", "1,2", "--order", "b"])
    report = parse(res)
    witness = next(c["witness"] for c in report["checks"] if c["name"] == "b-all-final")
    wpath = tmp_path / "w.json"
    dump_json(witness, str(wpath))
    res = invoke(runner, ["replay", str(wpath)])
    assert res.exit_code == 1
    replayed = parse(res)
    assert replayed["checks"][0]["name"] == "replay:b-all-final"
    assert replayed["checks"][0]["violations"]


def test_witness_replay_inline_form(runner, tmp_path):
    form_path = tmp_path / "top2.json"
    invoke(runner, ["instance", "top", "--sizes", "2", "--emit", str(form_path)])
    order_path = tmp_path / "full.json"
    dump_json({"form": None, "rel": {"2pt": [[True] * 4 for _ in range(4)]}}, str(order_path))
    res = invoke(runner, ["verify", "order", "--form", str(form_path), "--order", str(order_path)])
    witness = next(c["witness"] for c in parse(res)["checks"] if c["name"] == "order-axioms")
    wpath = tmp_path / "w.json"
    dump_json(witness, str(wpath))
    res = invoke(runner, ["replay", str(wpath)])
    assert res.exit_code == 1
    assert any(v["check"] == "T1" for c in parse(res)["checks"] for v in c["violations"])


def test_search_witness_replay_path(runner, tmp_path):
    w = {
        "schema": 1,
        "check": "search",
        "recipe": {"kind": "search", "claim": "roundtrip-TM", "seed": 5, "index": 3},
    }
    wpath = tmp_path / "sw.json"
    dump_json(w, str(wpath))
    res = invoke(runner, ["replay", str(wpath)])
    assert res.exit_code == 0
    assert parse(res)["checks"][0]["name"] == "replay:search:roundtrip-TM"


def test_text_format(runner):
    res = invoke(runner, ["--format", "text", "enumerate", "partitions", "--n", "3"])
    assert res.exit_code == 0
    assert res.stdout.startswith("formkit")
    assert "OK" in res.stdout


def test_timing_goes_to_stderr_not_stdout(runner):
    res = invoke(runner, ["enumerate", "partitions", "--n", "3"])
    assert "elapsed" not in res.stdout
    assert "elapsed" in res.stderr


def test_unknown_check_name_exits_2(runner, tmp_path):
    res = invoke(runner, ["check-theorems", "--instance", "top", "--sizes", "1,2", "--order", "theta",
                          "--check", "bogus"])
    assert res.exit_code == 2
    assert "bogus" in res.stderr
    w = {"schema": 1, "check": "bogus", "recipe": {"kind": "top", "sizes": [1, 2], "order": "theta"}}
    wpath = tmp_path / "w.json"
    dump_json(w, str(wpath))
    res = invoke(runner, ["replay", str(wpath)])
    assert res.exit_code == 2
    assert "bogus" in res.stderr


def test_disputed_clauses_selectable_and_replayable(runner, tmp_path):
    res = invoke(runner, ["check-theorems", "--instance", "grp", "--max-order", "4", "--order", "normal-interval",
                          "--check", "transfer-laws-disputed-clauses"])
    assert res.exit_code == 0
    (check,) = parse(res)["checks"]
    assert check["name"] == "transfer-laws-disputed-clauses"
    assert check["status"] == "reported"
    assert len(check["violations"]) == 83
    wpath = tmp_path / "w.json"
    dump_json(check["witness"], str(wpath))
    res = invoke(runner, ["replay", str(wpath)])
    assert res.exit_code == 0
    (replayed,) = parse(res)["checks"]
    assert replayed["name"] == "replay:transfer-laws-disputed-clauses"
    assert replayed["status"] == "reported"
    assert replayed["violations"] == check["violations"]


def test_order_file_beside_an_instance(runner, tmp_path):
    # the battery on an instance with its order read from a file runs the
    # checks the named order runs, less the three theta propositions, which
    # apply to the named order only
    path = str(tmp_path / "theta2.json")
    assert invoke(runner, ["derive", "theta", "--n", "2", "--out", path]).exit_code == 0
    from_file = invoke(runner, ["check-theorems", "--instance", "top", "--sizes", "2", "--order", path])
    named = invoke(runner, ["check-theorems", "--instance", "top", "--sizes", "2", "--order", "theta"])
    assert from_file.exit_code == named.exit_code == 0
    theta_only = {"theta-surjections-final", "theta-clopen-strict-per-pair", "theta-clopen-strict-literal"}
    expected = [c for c in parse(named)["checks"] if c["name"] not in theta_only]
    assert len(expected) == len(parse(named)["checks"]) - 3
    assert parse(from_file)["checks"] == expected
    assert list(parse(from_file)["inputs"]) == [path]


def test_witness_of_file_inputs_replays(runner, tmp_path):
    form_path, order_path = tmp_path / "top12.json", tmp_path / "b12.json"
    top12 = build_top_form([1, 2])
    dump_json(form_to_dict(top12.form), str(form_path))
    dump_json(order_to_dict(b_order(top12), top12.form.base.objects), str(order_path))
    res = invoke(runner, ["check-theorems", "--form", str(form_path), "--order", str(order_path)])
    assert res.exit_code == 1
    failed = next(c for c in parse(res)["checks"] if c["name"] == "transfer-laws")
    assert failed["status"] == "fail"
    wpath = tmp_path / "w.json"
    dump_json(failed["witness"], str(wpath))
    res = invoke(runner, ["replay", str(wpath)])
    assert res.exit_code == 1
    (replayed,) = parse(res)["checks"]
    assert replayed["name"] == "replay:transfer-laws"
    assert replayed["violations"] == failed["violations"]


def test_witness_naming_an_operator_file_replays(runner, tmp_path):
    """A witness may name its operator by file, next to a form file or a
    built-in instance; one that names no order or operator exits 2."""
    paths = _top2_inputs(tmp_path)
    operator = {"operator_file": paths["closure"], "operator_kind": "closure"}
    for recipe in ({"form_file": paths["form"], **operator}, {"kind": "top", "sizes": [2], **operator}):
        wpath = _write(tmp_path, {"schema": 1, "check": "closure-axioms", "recipe": recipe}, "w.json")
        res = invoke(runner, ["replay", wpath])
        assert res.exit_code == 0
        assert [c["name"] for c in parse(res)["checks"]] == ["replay:closure-axioms"]
        assert paths["closure"] in parse(res)["inputs"]
    for check, needs in (("closure-axioms", "operator"), ("order-axioms", "order")):
        wpath = _write(tmp_path, {"schema": 1, "check": check, "recipe": {"form_file": paths["form"]}}, "w.json")
        res = invoke(runner, ["replay", wpath])
        assert res.exit_code == 2
        assert f"{wpath}: witness for {check!r} carries no {needs} to replay with" in res.stderr


def test_readme_names_every_registry_check():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    missing = [c.name for c in REGISTRY if f"`{c.name}`" not in readme]
    assert not missing

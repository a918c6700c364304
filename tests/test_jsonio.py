"""Serialization round trips and malformed-input diagnostics."""

import hashlib
import json
import os
import random
import subprocess
import sys
from copy import deepcopy
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import formkit
from cli_runner import CliRunner
from formkit import jsonio
from formkit.forms import FormInstance
from formkit.groups import symmetric3
from formkit.jsonio import (
    SchemaError,
    dump_json,
    dumps,
    form_from_dict,
    form_to_dict,
    group_from_dict,
    lattice_from_dict,
    lattice_to_dict,
    load_json,
    operator_from_dict,
    operator_to_dict,
    order_from_dict,
    order_to_dict,
    partition_to_dict,
    topology_to_dict,
)
from formkit.lattice import FiniteLattice
from formkit.partitions import Partition
from formkit.topogenous import Operator, closure_from_order, leq_order
from formkit.topologies import FiniteTopology
from oracles import lattice_from_rows, presentation


def test_lattice_roundtrip():
    lat = FiniteLattice.chain(3)
    doc = lattice_to_dict(lat)
    assert doc["size"] == 3
    assert lattice_from_dict(doc) == lat


def test_lattice_labels_preserved():
    lat = lattice_from_rows([[True, True], [False, True]], labels=["lo", "hi"])
    doc = lattice_to_dict(lat)
    again = lattice_from_dict(doc)
    assert again.labels == ("lo", "hi")


def test_lattice_schema_errors():
    with pytest.raises(SchemaError):
        lattice_from_dict({"size": 2})
    with pytest.raises(SchemaError):
        lattice_from_dict({"size": 2, "leq": [[True]]})
    with pytest.raises(SchemaError):
        lattice_from_dict({"size": 1, "leq": [[True]], "labels": ["a", "b"]})
    with pytest.raises(SchemaError, match=r"lattice.leq\[1\]: expected booleans"):
        lattice_from_dict({"size": 2, "leq": [[True, True], [0, 1]]})


def test_form_roundtrip(top12):
    doc = form_to_dict(top12.form)
    again = form_from_dict(doc)
    assert again.base.objects == top12.form.base.objects
    assert again.base.names == top12.form.base.names
    for f in range(len(again.base.names)):
        assert again.push[f] == top12.form.push[f]
        assert again.pull[f] == top12.form.pull[f]
    assert again.verify_laws().ok


def test_form_schema_errors(top12):
    doc = form_to_dict(top12.form)
    broken = dict(doc)
    broken.pop("push")
    with pytest.raises(SchemaError):
        form_from_dict(broken)
    broken = dict(doc, homs={"nokey": []})
    with pytest.raises(SchemaError):
        form_from_dict(broken)
    broken = dict(doc, objects=["a,b"])
    with pytest.raises(SchemaError):
        form_from_dict(broken)


ID1, A0, A1, ID2 = "1pt->1pt:0", "1pt->2pt:0", "1pt->2pt:1", "2pt->2pt:0.1"


def _drop(compose, *keys):
    for key in keys:
        del compose[key]


# Defects of a top[1,2] document, each with the exact message form_from_dict
# gave before the reader's compose checks were made cheaper, and, from
# "bad-key-after-undeclared-name" on, pairs of defects whose order of
# precedence matters, with the message the reader gave before it filled the
# composition table in one pass.
COMPOSE_DEFECTS = {
    "key-without-semicolon": (
        lambda d: d["compose"].update({ID1: ID1}),
        "form.compose['1pt->1pt:0']: key must be 'g;f' and the value a morphism name",
    ),
    "non-string-value": (
        lambda d: d["compose"].update({f"{ID1};{ID1}": 0}),
        "form.compose['1pt->1pt:0;1pt->1pt:0']: key must be 'g;f' and the value a morphism name",
    ),
    "undeclared-name": (
        lambda d: d["compose"].update({f"ghost;{ID1}": ID1}),
        "form.compose['ghost;1pt->1pt:0']: names an undeclared morphism",
    ),
    "undeclared-composite": (
        lambda d: d["compose"].update({f"{ID1};{ID1}": "ghost"}),
        "form.compose['1pt->1pt:0;1pt->1pt:0']: names an undeclared morphism",
    ),
    "wrong-composite": (
        lambda d: d["compose"].update({f"{ID1};{ID1}": A0}),
        "form.compose['1pt->1pt:0;1pt->1pt:0']: '1pt->2pt:0' is not a composite of '1pt->1pt:0' after '1pt->1pt:0'",
    ),
    "missing-pair": (
        lambda d: _drop(d["compose"], f"{A0};{ID1}"),
        "form.compose: '1pt->2pt:0' after '1pt->1pt:0' is undefined",
    ),
    "two-missing-pairs": (
        lambda d: _drop(d["compose"], f"{A1};{ID1}", f"{A0};{ID1}"),
        "form.compose: '1pt->2pt:0' after '1pt->1pt:0' is undefined",
    ),
    "non-composable-entry": (
        lambda d: d["compose"].update({f"{ID1};{A0}": ID1}),
        "form.compose['1pt->1pt:0;1pt->2pt:0']: '1pt->1pt:0' is not a composite of '1pt->1pt:0' after '1pt->2pt:0'",
    ),
    # As many entries as composable pairs, one of them at the wrong pair.
    "missing-pair-and-non-composable-entry": (
        lambda d: (_drop(d["compose"], f"{A0};{ID1}"), d["compose"].update({f"{ID1};{A0}": ID1})),
        "form.compose['1pt->1pt:0;1pt->2pt:0']: '1pt->1pt:0' is not a composite of '1pt->1pt:0' after '1pt->2pt:0'",
    ),
    # Every key is split before any name is looked up.
    "bad-key-after-undeclared-name": (
        lambda d: d["compose"].update({f"ghost;{ID1}": ID1, ID1: ID1}),
        "form.compose['1pt->1pt:0']: key must be 'g;f' and the value a morphism name",
    ),
    # The identities are typed before any compose entry is resolved.
    "non-string-identity-and-undeclared-name": (
        lambda d: (d["identities"].update({"1pt": 0}), d["compose"].update({f"ghost;{ID1}": ID1})),
        "form.identities: expected morphism names",
    ),
    "object-without-identity": (
        lambda d: d["identities"].pop("2pt"),
        "form.identities: object '2pt' has no identity",
    ),
    "object-without-identity-and-wrong-composite": (
        lambda d: (d["identities"].pop("2pt"), d["compose"].update({f"{ID1};{ID1}": A0})),
        "form.identities: object '2pt' has no identity",
    ),
    # An identity at fault is located under .identities, before the
    # objects without one and the compose entries are looked at.
    "undeclared-identity-key-and-wrong-composite": (
        lambda d: (d["identities"].update({"ghost": ID1}), d["compose"].update({f"{ID1};{ID1}": A0})),
        "form.identities: 'ghost' is not a declared object",
    ),
    "identity-not-an-endomorphism-and-object-without-identity": (
        lambda d: (d["identities"].update({"1pt": A0}), d["identities"].pop("2pt")),
        "form.identities: identity of '1pt' must be an endomorphism of '1pt'",
    ),
    "duplicate-objects-and-wrong-composite": (
        lambda d: (d["objects"].append("1pt"), d["compose"].update({f"{ID1};{ID1}": A0})),
        "form: duplicate object names",
    ),
    # A key holding a name with ';' does not split in two ...
    "semicolon-name-and-missing-pairs": (
        lambda d: (d["homs"]["2pt,2pt"].append("e;f"), d["compose"].update({f"{ID2};e;f": "e;f"})),
        "form.compose['2pt->2pt:0.1;e;f']: key must be 'g;f' and the value a morphism name",
    ),
    # ... and a name with ';' but no entry leaves its pairs undefined.
    "semicolon-name-left-out": (
        lambda d: d["homs"]["2pt,2pt"].append("e;f"),
        "form.compose: 'e;f' after '1pt->2pt:0' is undefined",
    ),
    # Fibres are read before the transfer tables, in object order.
    "non-lattice-fibre-and-bad-push": (
        lambda d: (d["fibres"]["2pt"]["leq"][0].__setitem__(slice(1, 3), [False, False]), d["push"].update({ID1: [True]})),
        "form.fibres[2pt]: not a lattice (missing-meet)",
    ),
    "non-order-fibre-and-missing-pull": (
        lambda d: (d["fibres"]["1pt"]["leq"][0].__setitem__(0, False), d["pull"].pop(ID1)),
        "form.fibres[1pt]: not a lattice (reflexive)",
    ),
}


@pytest.mark.parametrize("defect", sorted(COMPOSE_DEFECTS))
def test_compose_errors_are_pinned(defect, top12):
    doc = form_to_dict(top12.form)
    change, message = COMPOSE_DEFECTS[defect]
    change(doc)
    with pytest.raises(SchemaError) as exc:
        form_from_dict(doc)
    assert str(exc.value) == message


def test_keys_split_in_two_beside_an_empty_name():
    """With a morphism named "", the key "a" would resolve as "a;" does if
    the reader did not ask for the ';'."""
    doc = form_to_dict(_one_object(["", "a"]))
    doc["compose"]["a"] = doc["compose"].pop("a;")
    with pytest.raises(SchemaError) as exc:
        form_from_dict(doc)
    assert str(exc.value) == "form.compose['a']: key must be 'g;f' and the value a morphism name"


# What the seeded mutations below write in place of a leaf, beside the
# document's own object and morphism names.
ODD_VALUES = ["ghost", "", "a,b", "e;f", 0, True, None, [], {}]


def _mutate(doc, rng):
    """One leaf mutation of the ``objects``, ``homs``, ``identities`` or
    ``compose`` of ``doc``, in place: a value replaced, a key or list entry
    deleted or duplicated, or a compose entry moved to another key."""
    names = sorted(m for ms in doc["homs"].values() if isinstance(ms, list) for m in ms if isinstance(m, str))
    objects = [x for x in doc["objects"] if isinstance(x, str)]
    values = names + objects + ODD_VALUES
    section = rng.choice(["objects", "homs", "identities", "compose"])
    part = doc[section]
    lists = sorted(k for k, ms in part.items() if isinstance(ms, list)) if section == "homs" else []
    if lists and rng.randrange(2):
        part = part[rng.choice(lists)]  # one hom-set's list of names
    if isinstance(part, list):
        op = rng.choice(["replace", "delete", "duplicate"])
        if not part:
            op = "duplicate"
        if op == "duplicate":
            part.insert(rng.randrange(len(part) + 1), deepcopy(rng.choice(part or values)))
        else:
            i = rng.randrange(len(part))
            if op == "delete":
                del part[i]
            else:
                part[i] = deepcopy(rng.choice(values))
        return
    op = rng.choice(["replace", "delete", "duplicate", "rekey"])
    keys = sorted(part)
    if not keys:
        op = "duplicate"
    if section == "compose":
        new_key = rng.choice([f"{rng.choice(names)};{rng.choice(names)}", rng.choice(names), "a;b;c", "ghost;" + rng.choice(names)])
    elif section == "homs":
        new_key = rng.choice([f"{rng.choice(objects)},{rng.choice(objects)}", "ghost,ghost", rng.choice(objects)])
    else:
        new_key = rng.choice(objects + ["ghost"])
    if op == "duplicate":
        part[new_key] = deepcopy(part[rng.choice(keys)] if keys else rng.choice(values))
        return
    key = rng.choice(keys)
    if op == "delete":
        del part[key]
    elif op == "rekey":
        part[new_key] = part.pop(key)
    elif section == "homs":
        part[key] = deepcopy(rng.choice([rng.choice(ODD_VALUES), names[:2], []]))
    else:
        part[key] = deepcopy(rng.choice(values))


# sha256 of the outcomes of the seeded mutations below, each "ok" or the
# exact SchemaError text, recorded while a document the one-pass fill did not
# take whole was read again through a dict of name pairs, and recorded again
# when identity faults moved under ".identities": of the 300 outcomes per
# document, only those that read "form: identity of X must be an endomorphism
# of X" changed (top12: 33 now located, 15 now "X is not a declared object";
# top123: 40 and 10).
MUTATION_DIGESTS = {
    "top12": "2b6f11f03697aa4a95452e1a4df1f12a13039e0328c2ee600e073aac25f7cb09",
    "top123": "c810b062e2c6be4db5e6d2c5a4225c67dfe8c1b66db16176620a19dc61a51fc2",
}


@pytest.mark.parametrize("name", sorted(MUTATION_DIGESTS))
def test_mutated_base_sections_are_pinned(name, request):
    """One or two seeded leaf mutations per document give, one by one, the
    same outcome as when the digest was recorded."""
    doc = form_to_dict(request.getfixturevalue(name).form)
    rng = random.Random(f"mutations of {name}")
    outcomes = []
    for _ in range(300):
        mutated = dict(doc, objects=list(doc["objects"]), identities=dict(doc["identities"]), compose=dict(doc["compose"]))
        mutated["homs"] = {k: list(v) for k, v in doc["homs"].items()}
        for _ in range(rng.randrange(1, 3)):
            _mutate(mutated, rng)
        try:
            form_from_dict(mutated)
        except SchemaError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append("ok")
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == MUTATION_DIGESTS[name]


@pytest.mark.parametrize("entry", [True, 1.0, "1"])
def test_push_tables_hold_only_integers(entry, top12):
    doc = form_to_dict(top12.form)
    doc["push"] = dict(doc["push"], **{ID1: [entry]})
    with pytest.raises(SchemaError) as exc:
        form_from_dict(doc)
    assert str(exc.value) == f"form.push[{ID1}]: expected a list of integers"


def test_order_roundtrip(top12):
    order = leq_order(top12.form)
    doc = order_to_dict(order, top12.form.base.objects, form_id="top[1,2]")
    assert doc["form"] == "top[1,2]"
    assert order_from_dict(doc, top12.form) == order


def test_order_schema_error(top12):
    with pytest.raises(SchemaError):
        order_from_dict({"rel": {"X": [[True], [False]]}}, top12.form)
    with pytest.raises(SchemaError):
        order_from_dict({}, top12.form)


def test_operator_roundtrip(top12):
    clo = closure_from_order(top12.form, leq_order(top12.form))
    doc = operator_to_dict(clo, top12.form.base.objects)
    again = operator_from_dict(doc, "closure", top12.form)
    assert isinstance(again, Operator) and again.kind == "closure"
    assert again == clo
    intr = operator_from_dict(doc, "interior", top12.form)
    assert intr.maps == clo.maps
    with pytest.raises(ValueError):
        operator_from_dict(doc, "nonsense", top12.form)


def test_topology_roundtrip():
    t = FiniteTopology(2, frozenset({0, 2, 3}))
    doc = topology_to_dict(t)
    assert doc == {"n": 2, "opens": [0, 2, 3]}


def test_group_roundtrip():
    g = symmetric3()
    doc = {"order": g.n, "cayley": [list(row) for row in g.table], "name": "S3"}
    again = group_from_dict(doc)
    assert again.table == g.table
    assert again.name == "S3"
    with pytest.raises(SchemaError):
        group_from_dict({"order": 2, "cayley": [[0, 1]]})
    with pytest.raises(SchemaError):
        group_from_dict({"order": 2, "cayley": [[1, 1], [1, 1]]})
    with pytest.raises(SchemaError, match="group.order: expected an integer"):
        group_from_dict({"order": 2.0, "cayley": [[0, 1], [1, 0]]})


def test_partition_roundtrip():
    p = Partition.of([0, 0, 1])
    doc = partition_to_dict(p)
    assert doc == {"n": 3, "blocks": [0, 0, 1]}


# sha256 of the canonical JSON of each built-in form, recorded while push
# and pull were still computed one topology at a time and small group
# sources went through brute-force hom enumeration; perfbench/references.json
# holds the same digests for `instance ... --emit`.
EMITTED_DIGESTS = {
    "top4": "f0d5c1508bef06f052c83c556c4c326a87625e52718a50ce22b2abfb0ac674b7",
    "grp8": "cdfcb0c391fe29691fb3bf14c6ae1255bdd84e8a65ceab53b5b0b9f520f6f915",
    "quot1234": "8e4308fef51838e7f133025f8a803e7997b9c4f30d6426e48873c79d1b4fd463",
}


@pytest.mark.parametrize("name", sorted(EMITTED_DIGESTS))
def test_emitted_forms_are_pinned(name, request):
    form = request.getfixturevalue(name).form
    text = json.dumps(form_to_dict(form), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == EMITTED_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(EMITTED_DIGESTS))
def test_one_pass_reader_is_the_checked_reader(name, request):
    """On every built-in emitted document the one-pass reader fills the
    table that the name-pair builder ``presentation`` fills from the
    document's name pairs; each fibre is the relation ``lattice_from_rows``
    builds from its rows."""
    form = request.getfixturevalue(name).form
    doc = json.loads(dumps(form))
    read = form_from_dict(doc)
    homs = {tuple(key.split(",")): ms for key, ms in doc["homs"].items()}
    pairs = {tuple(key.split(";")): h for key, h in doc["compose"].items()}
    named = presentation(doc["objects"], homs, pairs, doc["identities"])
    assert read.base.names == named.names == form.base.names
    assert read.base.comp == named.comp == form.base.comp
    for x, fib in zip(form.base.objects, read.fibres):
        fibre = doc["fibres"][x]
        made = lattice_from_rows(fibre["leq"], fibre.get("labels"))
        assert fib.up == made.up
        assert fib.labels == made.labels
    for f in range(len(form.base.names)):
        assert read.push[f] == form.push[f]
        assert read.pull[f] == form.pull[f]


# sha256 of the bytes formkit writes, recorded from json.dump(indent=2,
# sort_keys=True): the --emit files and a check-theorems report on stdout.
WRITTEN_DIGESTS = {
    "top4": (["instance", "top", "--sizes", "4"], "d41d2af1adb4072dd94918030d9a427c27eed7785003ad757d417ee9d05f2c82"),
    "grp8": (["instance", "grp"], "065651b1ea57519c2137943f8806ffc0d27809e6fb7b2aadb3f5ee020233dd9d"),
    "quot1234": (["instance", "quot", "--sizes", "1,2,3,4"], "91e0359c66d3eb92a209a9a46c8c50a56074f5795a100c51333e6ca20236a554"),
}


@pytest.mark.parametrize("name", sorted(WRITTEN_DIGESTS))
def test_emitted_bytes_are_pinned(name, tmp_path):
    args, digest = WRITTEN_DIGESTS[name]
    path = tmp_path / f"{name}.json"
    result = CliRunner().invoke([*args, "--emit", str(path)])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_report_bytes_are_pinned():
    result = CliRunner().invoke(["check-theorems", "--instance", "quot", "--sizes", "1,2,3,4"])
    assert result.exit_code == 1
    digest = "796adce2a4d5c966c8b7138761b846b6e94bf8428e62599e21dafe7c3e115695"
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


def test_instance_report_bytes_are_pinned():
    """Without --emit the form document is the report's payload on stdout;
    digest recorded while the report was encoded as one string."""
    result = CliRunner().invoke(["instance", "quot", "--sizes", "1,2,3,4"])
    assert result.exit_code == 0
    digest = "20fafbc3192af71b0ba86639bc8c50f3847df92e7b400c47ebd449d90b455476"
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


# -- the indent-2 encoder --------------------------------------------------------

TEXT = st.text(st.characters(exclude_categories=()), max_size=8)  # non-ASCII, controls, lone surrogates
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | TEXT
KEYS = TEXT | st.integers() | st.floats(allow_nan=False) | st.booleans() | st.none()
# Runs of like values, the encoder's joined fast paths.
RUNS = st.lists(st.integers()) | st.lists(st.booleans()) | st.lists(TEXT) | st.dictionaries(TEXT, TEXT)
RECORDS = st.lists(KEYS, min_size=1, max_size=4, unique=True).flatmap(
    lambda keys: st.lists(st.fixed_dictionaries({k: SCALARS | RUNS | st.just([]) for k in keys}), min_size=1, max_size=4)
)
TREES = st.recursive(
    SCALARS | RUNS | RECORDS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(TEXT, children, max_size=4)
        | st.dictionaries(KEYS, children, max_size=4)
    ),
    max_leaves=24,
)


def _stdlib(doc):
    try:
        return json.dumps(doc, indent=2, sort_keys=True)
    except TypeError as exc:  # keys of mixed types do not sort
        return exc.__class__


def _ours(doc):
    try:
        return dumps(doc)
    except TypeError as exc:
        return exc.__class__


@settings(max_examples=200, deadline=None)
@given(TREES)
def test_dumps_is_the_stdlib_encoder(doc):
    assert _ours(doc) == _stdlib(doc)


def test_dumps_joins_long_runs_in_blocks():
    doc = {
        "compose": {f"k{i};k{i % 7}": f"v{i}é" for i in range(2500)},
        "empty": [{}, [], ()],
        "records": [{"%s": i, "b%": [i] * (i % 3), "c": {} if i % 2 else "x"} for i in range(40)],
        "not records": [{"a": 1}, {"b": 1}, {"a": [[1]]}],
        "int keys": [{1: "a", 2: [3]}, {1: "b", 2: []}],
    }
    assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.fixture
def fallbacks(monkeypatch):
    """Every value that reaches the stdlib encoder, while the test runs."""
    seen = []
    stdlib = jsonio._fallback
    monkeypatch.setattr(jsonio, "_fallback", lambda o, nl: seen.append(o) or stdlib(o, nl))
    return seen


@pytest.mark.parametrize("name", ["top12", "grp8", "quot123"])
def test_form_documents_skip_the_stdlib_encoder(name, request, fallbacks, tmp_path):
    form = request.getfixturevalue(name).form
    doc = form_to_dict(form)
    for written in (doc, form):  # the dict, and the form streamed from its tables
        dump_json(written, str(tmp_path / "form.json"))
        assert (tmp_path / "form.json").read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert fallbacks == []


def _hand_form(objects, homs, compose, identities):
    """A form over a hand-built presentation: every fibre the two-element
    chain, every transfer table the identity."""
    base = presentation(objects, homs, compose, identities)
    two = lattice_from_rows([[True, True], [False, True]])
    same = [(0, 1)] * len(base.names)
    return FormInstance(base, [two for _ in objects], same, same)


def _one_object(names):
    """One object whose first morphism is the identity and where g∘f = g
    otherwise (a left-zero semigroup)."""
    unit = names[0]
    compose = {(g, f): f if g == unit else g for g in names for f in names}
    return _hand_form(["X"], {("X", "X"): names}, compose, {"X": unit})


HAND_FORMS = {
    # non-ASCII, quote, backslash, control characters, a lone surrogate
    "escaping": lambda: _one_object(["id\u00e9", 'q"', "b\\s", "c\x01", "\n", "\ud800", "\u4e2d"]),
    # ';' sorts after the digits and ':' and before '<': "a1;" < "a:;" < "a;" < "a<;"
    "semicolon order": lambda: _one_object(["a", "a1", "a:", "a<", "a0", "a="]),
    # hom(X, Z) declared empty, and W with its identity alone
    "empty hom-sets": lambda: _hand_form(
        ["X", "Z", "W", "Y"],
        {("X", "X"): ["1X"], ("X", "Z"): [], ("Z", "Z"): ["1Z"], ("W", "W"): ["1W"], ("X", "Y"): ["v", "u"],
         ("Y", "Y"): ["1Y"]},
        {("1X", "1X"): "1X", ("1Z", "1Z"): "1Z", ("1W", "1W"): "1W", ("1Y", "1Y"): "1Y",
         ("v", "1X"): "v", ("u", "1X"): "u", ("1Y", "v"): "v", ("1Y", "u"): "u"},
        {"X": "1X", "Z": "1Z", "W": "1W", "Y": "1Y"},
    ),
    # every object has its identity, so only the empty category has none
    "no morphisms": lambda: _hand_form([], {}, {}, {}),
    "boolean table": lambda: _with_push(_one_object(["i", "a"]), "a", (False, True)),
}


def _with_push(form, f, table):
    """``form`` with the push table of ``f`` replaced by ``table``."""
    f = form.base.ids[f]
    form.push[f] = table
    return form


@pytest.mark.parametrize("name", ["top12", "top123", "top4", "grp8", "quot123", "quot1234", *HAND_FORMS])
def test_streamed_form_is_the_dict_encoding(name, request):
    """The form written from its integer tables is the text of its
    document dict, character for character."""
    form = HAND_FORMS[name]() if name in HAND_FORMS else request.getfixturevalue(name).form
    assert dumps(form) == dumps(form_to_dict(form))


@pytest.mark.parametrize("lat", [
    FiniteLattice([]),
    FiniteLattice.chain(1),
    lattice_from_rows([[True, True, True], [False, True, True], [False, False, True]], labels=['a"', "\u00e9", ""]),
    FiniteLattice([0b1111, 0b1010, 0b1100, 0b1000]),
], ids=["empty", "point", "labelled chain", "diamond"])
def test_lattice_written_from_masks_is_the_dict_encoding(lat):
    doc = {"fibres": {"X": lat}}
    assert dumps(doc) == dumps({"fibres": {"X": lattice_to_dict(lat)}})


def test_writer_refuses_names_with_semicolons(tmp_path):
    # ("a;b", "c") and ("a", "b;c") would both be written as the key "a;b;c"
    form = _one_object(["a", "a;b", "b;c", "c"])
    for write in (dumps, form_to_dict, lambda form: dump_json(form, str(tmp_path / "form.json"))):
        with pytest.raises(ValueError, match="morphism 'a;b': names may not contain ';'"):
            write(form)


def test_failed_write_leaves_the_target_as_it_was(tmp_path):
    form = _one_object(["a", "a;b"])
    old = tmp_path / "old.json"
    old.write_bytes(b"old bytes\n")
    old.chmod(0o640)
    for path in (old, tmp_path / "new.json"):
        with pytest.raises(ValueError, match="names may not contain ';'"):
            dump_json(form, str(path))
    assert old.read_bytes() == b"old bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json"]  # no new file, no temporary one
    dump_json({"a": 1}, str(old))
    assert old.read_text() == '{\n  "a": 1\n}\n'
    assert old.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json"]


def test_links_are_written_in_place(tmp_path):
    """A link, such as /dev/stdout, is written through, not replaced."""
    target = tmp_path / "target.json"
    target.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    dump_json([1], str(link))
    assert link.is_symlink()
    assert target.read_text() == "[\n  1\n]\n"


def test_emit_to_stdout_redirected_to_a_file(tmp_path):
    """``--emit /dev/stdout`` with stdout redirected to a regular file
    writes what a pipe gets: the whole document, then the report."""
    command = [sys.executable, "-m", "formkit.cli", "instance", "top", "--sizes", "1", "--emit", "/dev/stdout"]
    env = dict(os.environ, PYTHONPATH=str(Path(formkit.__file__).parents[1]))
    piped = subprocess.run(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True).stdout
    out = tmp_path / "out.json"
    with out.open("wb") as fh:
        subprocess.run(command, env=env, stdout=fh, stderr=subprocess.DEVNULL, check=True)
    assert out.read_bytes() == piped
    text = piped.decode()
    document, end = json.JSONDecoder().raw_decode(text)
    report = json.loads(text[end:])
    assert sorted(document) == ["compose", "fibres", "homs", "identities", "objects", "pull", "push"]
    assert report["payload"]["written"] == "/dev/stdout"


def test_reports_skip_the_stdlib_encoder(fallbacks):
    result = CliRunner().invoke(["check-theorems", "--instance", "quot", "--sizes", "1,2,3,4"])
    assert result.exit_code == 1
    assert fallbacks == []


# -- reading files -----------------------------------------------------------------


def test_load_json_reads_and_digests_once(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"a": [1, 2]}\n')
    digests = {}
    assert load_json(str(path), digests) == {"a": [1, 2]}
    assert digests == {str(path): "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()}


@pytest.mark.parametrize("content, message", [
    (None, "no such file"),
    (b"\xff\xfe{}", "not UTF-8 text"),
    (b'{\n  "a": nope}', "2:8: invalid JSON"),
])
def test_load_json_errors_are_located(content, message, tmp_path):
    path = tmp_path / "doc.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(SchemaError) as exc:
        load_json(str(path))
    sep = ":" if message[0].isdigit() else ": "
    assert str(exc.value) == f"{path}{sep}{message}"

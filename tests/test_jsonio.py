"""Serialization round trips and malformed-input diagnostics."""

import hashlib
import json

import pytest

from formkit.groups import symmetric3
from formkit.jsonio import (
    SchemaError,
    form_from_dict,
    form_to_dict,
    group_from_dict,
    group_to_dict,
    lattice_from_dict,
    lattice_to_dict,
    operator_from_dict,
    operator_to_dict,
    order_from_dict,
    order_to_dict,
    partition_from_dict,
    partition_to_dict,
    topology_from_dict,
    topology_to_dict,
)
from formkit.lattice import FiniteLattice
from formkit.partitions import Partition
from formkit.topogenous import Operator, closure_from_order, leq_order
from formkit.topologies import FiniteTopology


def test_lattice_roundtrip():
    lat = FiniteLattice.chain(3)
    doc = lattice_to_dict(lat)
    assert doc["size"] == 3
    assert lattice_from_dict(doc) == lat


def test_lattice_labels_preserved():
    lat = FiniteLattice([[True, True], [False, True]], labels=["lo", "hi"])
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


def test_form_roundtrip(top12):
    doc = form_to_dict(top12.form)
    again = form_from_dict(doc)
    assert again.base.objects == top12.form.base.objects
    assert list(again.base.morphisms()) == list(top12.form.base.morphisms())
    for f in again.base.morphisms():
        assert again.push_maps[f].table == top12.form.push_maps[f].table
        assert again.pull_maps[f].table == top12.form.pull_maps[f].table
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


def test_order_roundtrip(top12):
    order = leq_order(top12.form)
    doc = order_to_dict(order, form_id="top[1,2]")
    assert doc["form"] == "top[1,2]"
    assert order_from_dict(doc) == order


def test_order_schema_error():
    with pytest.raises(SchemaError):
        order_from_dict({"rel": {"X": [[True], [False]]}})
    with pytest.raises(SchemaError):
        order_from_dict({})


def test_operator_roundtrip(top12):
    clo = closure_from_order(top12.form, leq_order(top12.form))
    doc = operator_to_dict(clo)
    again = operator_from_dict(doc, "closure")
    assert isinstance(again, Operator) and again.kind == "closure"
    assert again == clo
    intr = operator_from_dict(doc, "interior")
    assert dict(intr.maps) == dict(clo.maps)
    with pytest.raises(ValueError):
        operator_from_dict(doc, "nonsense")


def test_topology_roundtrip():
    t = FiniteTopology(2, frozenset({0, 2, 3}))
    doc = topology_to_dict(t)
    assert doc == {"n": 2, "opens": [0, 2, 3]}
    assert topology_from_dict(doc) == t
    with pytest.raises(SchemaError):
        topology_from_dict({"n": 2, "opens": [0]})


def test_group_roundtrip():
    g = symmetric3()
    doc = group_to_dict(g)
    again = group_from_dict(doc)
    assert again.table == g.table
    assert again.name == "S3"
    with pytest.raises(SchemaError):
        group_from_dict({"order": 2, "cayley": [[0, 1]]})
    with pytest.raises(SchemaError):
        group_from_dict({"order": 2, "cayley": [[1, 1], [1, 1]]})


def test_partition_roundtrip():
    p = Partition.of([0, 0, 1])
    doc = partition_to_dict(p)
    assert doc == {"n": 3, "blocks": [0, 0, 1]}
    assert partition_from_dict(doc) == p
    with pytest.raises(SchemaError):
        partition_from_dict({"n": 2, "blocks": [0, 0, 1]})


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

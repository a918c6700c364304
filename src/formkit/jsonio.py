"""JSON schemas for lattices, forms, orders, operators, and instance data.

Generated instances and hand-written files share these schemas, so the CLI
verifies both identically. Composition keys are "g;f" (g after f); hom-set
keys are "X,Y", so object names may not contain commas and morphism names
may not contain semicolons.
"""

from __future__ import annotations

import json
from typing import Any

from .forms import CategoryPresentation, FormInstance
from .groups import FiniteGroup
from .lattice import FiniteLattice, MonotoneMap
from .partitions import Partition
from .report import InputError
from .topogenous import Operator, TopogenousOrder
from .topologies import FiniteTopology


class SchemaError(InputError):
    """Malformed input document; the message carries the offending path."""


_NAMES = {dict: "an object", list: "a list", str: "a string"}


def _need(doc: dict, key: str, where: str, kind: type | None = None) -> Any:
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError(f"{where}: missing key {key!r}")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(f"{where}.{key}: expected {_NAMES[kind]}")
    return value


def is_int(v: Any) -> bool:
    """A JSON integer; booleans excluded."""
    return isinstance(v, int) and not isinstance(v, bool)


def _ints(value: Any, where: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(is_int(v) for v in value):
        raise SchemaError(f"{where}: expected a list of integers")
    return tuple(value)


def _strs(value: Any, where: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise SchemaError(f"{where}: expected a list of strings")
    return value


# -- lattice ------------------------------------------------------------------


def lattice_to_dict(lat: FiniteLattice) -> dict:
    out = {"size": lat.size, "leq": lat.leq_matrix()}
    if lat.labels:
        out["labels"] = list(lat.labels)
    return out


def lattice_from_dict(doc: dict, where: str = "lattice") -> FiniteLattice:
    size = _need(doc, "size", where)
    if not is_int(size) or size < 0:
        raise SchemaError(f"{where}.size: expected a nonnegative integer")
    leq = _need(doc, "leq", where)
    if not isinstance(leq, list) or len(leq) != size:
        raise SchemaError(f"{where}.leq: expected {size} rows")
    for i, row in enumerate(leq):
        if not isinstance(row, list) or len(row) != size:
            raise SchemaError(f"{where}.leq[{i}]: expected {size} entries")
    labels = doc.get("labels")
    if labels is not None and len(_strs(labels, f"{where}.labels")) != size:
        raise SchemaError(f"{where}.labels: expected {size} names")
    return FiniteLattice([[bool(v) for v in row] for row in leq], labels)


# -- form ---------------------------------------------------------------------


def form_to_dict(form: FormInstance) -> dict:
    base = form.base
    return {
        "objects": list(base.objects),
        "homs": {f"{x},{y}": list(ms) for (x, y), ms in sorted(base.homs.items())},
        "compose": {f"{g};{f}": h for (g, f), h in sorted(base.compose_table.items())},
        "identities": dict(sorted(base.identities.items())),
        "fibres": {x: lattice_to_dict(form.fibre(x)) for x in base.objects},
        "push": {f: list(form.push_maps[f].table) for f in base.morphisms()},
        "pull": {f: list(form.pull_maps[f].table) for f in base.morphisms()},
    }


def form_from_dict(doc: dict, where: str = "form") -> FormInstance:
    """A form whose structure is sound: every fibre a lattice, every table
    typed and in range, every composite a declared morphism of the right
    hom-set. Its laws are left to the verifiers."""
    objects = _strs(_need(doc, "objects", where), f"{where}.objects")
    if any("," in x for x in objects):
        raise SchemaError(f"{where}.objects: names may not contain commas")
    homs: dict[tuple[str, str], list[str]] = {}
    for key, ms in _need(doc, "homs", where, dict).items():
        parts = key.split(",")
        if len(parts) != 2 or parts[0] not in objects or parts[1] not in objects:
            raise SchemaError(f"{where}.homs[{key!r}]: key must be 'X,Y' over declared objects")
        homs[(parts[0], parts[1])] = _strs(ms, f"{where}.homs[{key!r}]")
    compose: dict[tuple[str, str], str] = {}
    for key, h in _need(doc, "compose", where, dict).items():
        parts = key.split(";")
        if len(parts) != 2 or not isinstance(h, str):
            raise SchemaError(f"{where}.compose[{key!r}]: key must be 'g;f' and the value a morphism name")
        compose[(parts[0], parts[1])] = h
    identities = _need(doc, "identities", where, dict)
    if not all(isinstance(i, str) for i in identities.values()):
        raise SchemaError(f"{where}.identities: expected morphism names")
    try:
        base = CategoryPresentation(objects, homs, compose, identities)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    for x in objects:
        if x not in identities:
            raise SchemaError(f"{where}.identities: object {x!r} has no identity")
    for (g, f), h in compose.items():
        if not {g, f, h} <= base.dom.keys():
            raise SchemaError(f"{where}.compose[{g + ';' + f!r}]: names an undeclared morphism")
        if base.cod[f] != base.dom[g] or (base.dom[h], base.cod[h]) != (base.dom[f], base.cod[g]):
            raise SchemaError(f"{where}.compose[{g + ';' + f!r}]: {h!r} is not a composite of {g!r} after {f!r}")
    for g, f in base.composable_pairs():
        if (g, f) not in compose:
            raise SchemaError(f"{where}.compose: {g!r} after {f!r} is undefined")
    fibres_doc = _need(doc, "fibres", where, dict)
    fibres = {}
    for x in objects:
        at = f"{where}.fibres[{x}]"
        fib = lattice_from_dict(_need(fibres_doc, x, f"{where}.fibres"), at)
        bad = fib.verify()
        if fib.size == 0 or not bad.ok:
            raise SchemaError(f"{at}: not a lattice ({bad.violations[0].check if bad.violations else 'empty'})")
        fibres[x] = fib
    push_doc = _need(doc, "push", where, dict)
    pull_doc = _need(doc, "pull", where, dict)
    push = {}
    pull = {}
    for f in base.morphisms():
        x, y = base.dom[f], base.cod[f]
        try:
            push[f] = MonotoneMap(fibres[x], fibres[y], _ints(_need(push_doc, f, f"{where}.push"), f"{where}.push[{f}]"))
            pull[f] = MonotoneMap(fibres[y], fibres[x], _ints(_need(pull_doc, f, f"{where}.pull"), f"{where}.pull[{f}]"))
        except (ValueError, IndexError) as exc:
            raise SchemaError(f"{where}: morphism {f!r}: {exc}") from exc
    return FormInstance(base, fibres, push, pull)


# -- order and operators --------------------------------------------------------


def order_to_dict(order: TopogenousOrder, form_id: str | None = None) -> dict:
    rel = {}
    for x, rows in sorted(order.rel.items()):
        n = len(rows)
        rel[x] = [[bool((rows[a] >> b) & 1) for b in range(n)] for a in range(n)]
    return {"form": form_id, "rel": rel}


def order_from_dict(doc: dict, where: str = "order") -> TopogenousOrder:
    rel = {}
    for x, rows in _need(doc, "rel", where, dict).items():
        if not isinstance(rows, list):
            raise SchemaError(f"{where}.rel[{x}]: expected a list of rows")
        n = len(rows)
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n:
                raise SchemaError(f"{where}.rel[{x}][{i}]: expected {n} entries")
        rel[x] = tuple(
            sum(1 << b for b in range(n) if rows[a][b]) for a in range(n)
        )
    return TopogenousOrder(rel)


def operator_to_dict(op: Operator) -> dict:
    return {"map": {x: list(t) for x, t in sorted(op.maps.items())}}


def operator_from_dict(doc: dict, kind: str, where: str = "operator") -> Operator:
    maps = {x: _ints(t, f"{where}.map[{x}]") for x, t in _need(doc, "map", where, dict).items()}
    return Operator(kind, maps)


# -- instance payloads ----------------------------------------------------------


def topology_to_dict(t: FiniteTopology) -> dict:
    return {"n": t.n, "opens": sorted(t.opens)}


def topology_from_dict(doc: dict, where: str = "topology") -> FiniteTopology:
    n = _need(doc, "n", where)
    opens = _need(doc, "opens", where)
    try:
        return FiniteTopology(n, frozenset(opens))
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def group_to_dict(g: FiniteGroup) -> dict:
    return {"order": g.n, "cayley": [list(row) for row in g.table], "name": g.name}


def group_from_dict(doc: dict, where: str = "group") -> FiniteGroup:
    order = _need(doc, "order", where)
    cayley = [_ints(row, f"{where}.cayley[{i}]") for i, row in enumerate(_need(doc, "cayley", where, list))]
    if len(cayley) != order:
        raise SchemaError(f"{where}.cayley: expected {order} rows")
    try:
        return FiniteGroup(cayley, doc.get("name", "G"))
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def partition_to_dict(p: Partition) -> dict:
    return {"n": p.n, "blocks": list(p.blocks)}


def partition_from_dict(doc: dict, where: str = "partition") -> Partition:
    _need(doc, "n", where)
    blocks = _need(doc, "blocks", where)
    if len(blocks) != doc["n"]:
        raise SchemaError(f"{where}.blocks: expected {doc['n']} entries")
    return Partition.of(blocks)


# -- files ----------------------------------------------------------------------


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"{path}: no such file") from None
    except OSError as exc:
        raise SchemaError(f"{path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON") from exc
    except UnicodeDecodeError:
        raise SchemaError(f"{path}: not UTF-8 text") from None


def dump_json(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

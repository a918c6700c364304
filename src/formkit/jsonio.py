"""JSON schemas for lattices, forms, orders, operators, and instance data.

Generated instances and hand-written files share these schemas, so the CLI
verifies both identically. Composition keys are "g;f" (g after f); hom-set
keys are "X,Y", so object names may not contain commas and morphism names
may not contain semicolons.

Documents name objects and morphisms; the program numbers them (see
:class:`formkit.forms.CategoryPresentation`). The readers here turn names
into numbers, and check that an order or operator fits its form while they
do; the writers turn numbers back into names.
"""

from __future__ import annotations

import json
import os
import stat
import sys
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from itertools import compress
from typing import Any, Callable, Iterator, Sequence, TextIO

from .forms import CategoryPresentation, FormInstance, IdentityError, check_tables, fill_composites
from .groups import FiniteGroup
from .lattice import FiniteLattice
from .partitions import Partition
from .report import InputError
from .topogenous import Operator, TopogenousOrder
from .topologies import FiniteTopology


class SchemaError(InputError):
    """Malformed input document; the message carries the offending path."""


_NAMES = {dict: "an object", list: "a list", str: "a string"}
_INT = {int}
_BOOL = {bool}


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
    if not isinstance(value, list) or not _INT.issuperset(map(type, value)):
        raise SchemaError(f"{where}: expected a list of integers")
    return tuple(value)


def _bool_rows(rows: list, n: int, where: str) -> None:
    """Check that every row is a list of ``n`` booleans."""
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"{where}[{i}]: expected {n} entries")
        if not _BOOL.issuperset(map(type, row)):
            raise SchemaError(f"{where}[{i}]: expected booleans")


def _up_masks(rows: list) -> tuple[int, ...]:
    """Each row of a square boolean matrix as the mask of its true columns."""
    powers = [1 << b for b in range(len(rows))]
    return tuple(sum(compress(powers, row)) for row in rows)


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
    _bool_rows(leq, size, f"{where}.leq")
    labels = doc.get("labels")
    if labels is not None and len(_strs(labels, f"{where}.labels")) != size:
        raise SchemaError(f"{where}.labels: expected {size} names")
    return FiniteLattice.from_up_masks(_up_masks(leq), labels)


# -- form ---------------------------------------------------------------------


def form_to_dict(form: FormInstance) -> dict:
    """The form document as a dict. Files and reports, inline witness
    recipes included, are written by :func:`_form_chunks` instead, from the
    integer tables; this dict serves the tests and the benchmark tracer."""
    names = form.base.names
    _escaped(names)  # raises on a name holding ';'
    sections = _sections(form)
    sections["fibres"] = {x: lattice_to_dict(lat) for x, lat in sections["fibres"].items()}
    return {
        "compose": {f"{g};{f}": h for (g, f), h in form.base.compose_table.items()},
        **sections,
        "push": {f: list(t) for f, t in zip(names, form.push)},
        "pull": {f: list(t) for f, t in zip(names, form.pull)},
    }


def _sections(form: FormInstance) -> dict:
    """The small sections of the form document, in key order: all but
    compose, push and pull, with each fibre as its lattice."""
    base = form.base
    return {
        "fibres": dict(zip(base.objects, form.fibres)),
        "homs": {f"{x},{y}": list(ms) for (x, y), ms in sorted(base.homs.items())},
        "identities": dict(sorted(base.identities.items())),
        "objects": list(base.objects),
    }


def _escaped(names: tuple[str, ...]) -> list[str]:
    """Each morphism name's JSON text without its quotes. A name holding
    ';' raises ValueError: its "g;f" keys could not be split back, and two
    pairs could share one key."""
    for name in names:
        if ";" in name:
            raise ValueError(f"morphism {name!r}: names may not contain ';'")
    return [encode_basestring_ascii(name)[1:-1] for name in names]


def form_from_dict(doc: dict, where: str = "form") -> FormInstance:
    """A form whose structure is sound: every fibre a lattice, every table
    typed and in range, every composite a declared morphism of the right
    hom-set. Its laws are left to the verifiers.

    The base category is read in one pass over ``compose``
    (:func:`~formkit.forms.fill_composites`), and the first defect is
    named in this order: a key or value of the wrong shape, the identities'
    types, the presentation (an object without an identity included), the
    first entry that is not a composite at a composable pair, and the first
    composable pair left undefined."""
    objects = _strs(_need(doc, "objects", where), f"{where}.objects")
    if any("," in x for x in objects):
        raise SchemaError(f"{where}.objects: names may not contain commas")
    homs: dict[tuple[str, str], list[str]] = {}
    for key, ms in _need(doc, "homs", where, dict).items():
        parts = key.split(",")
        if len(parts) != 2 or parts[0] not in objects or parts[1] not in objects:
            raise SchemaError(f"{where}.homs[{key!r}]: key must be 'X,Y' over declared objects")
        homs[(parts[0], parts[1])] = _strs(ms, f"{where}.homs[{key!r}]")
    compose = _need(doc, "compose", where, dict)
    base = _base(doc, objects, homs, compose, where)
    fibres_doc = _need(doc, "fibres", where, dict)
    fibres = []
    for x in objects:
        at = f"{where}.fibres[{x}]"
        fib = lattice_from_dict(_need(fibres_doc, x, f"{where}.fibres"), at)
        # A finite order with a top and all pairwise meets is a lattice, so
        # verify() agrees with is_lattice(); it runs only to name a defect.
        if not fib.is_lattice():
            bad = fib.verify()
            if fib.size == 0 or not bad.ok:
                raise SchemaError(f"{at}: not a lattice ({bad.violations[0].check if bad.violations else 'empty'})")
        fibres.append(fib)
    push_doc = _need(doc, "push", where, dict)
    pull_doc = _need(doc, "pull", where, dict)
    push, pull, defect = [], [], None
    for f in base.names:
        try:
            push.append(_ints(_need(push_doc, f, f"{where}.push"), f"{where}.push[{f}]"))
            pull.append(_ints(_need(pull_doc, f, f"{where}.pull"), f"{where}.pull[{f}]"))
        except SchemaError as exc:
            defect = exc
            break
    try:
        if defect is None:
            return FormInstance(base, fibres, push, pull)
        check_tables(base, fibres, push, pull)  # a table before the defect may miss its fibres first
    except (ValueError, IndexError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    raise defect


def _base(doc: dict, objects: list[str], homs: dict, compose: dict, where: str) -> CategoryPresentation:
    """The base category with its composition table filled from
    ``compose``, or the SchemaError of the document's first defect."""
    identities = doc.get("identities")
    typed = isinstance(identities, dict) and all(isinstance(i, str) for i in identities.values())
    base = problem = None
    if typed:
        try:
            base = CategoryPresentation(objects, homs, None, identities)
        except ValueError as exc:
            problem = exc
    shapeless, bad = fill_composites(base, compose)
    if shapeless is not None:
        raise SchemaError(f"{where}.compose[{shapeless!r}]: key must be 'g;f' and the value a morphism name")
    if not typed:
        _need(doc, "identities", where, dict)
        raise SchemaError(f"{where}.identities: expected morphism names")
    if problem is not None:
        at = f"{where}.identities" if isinstance(problem, IdentityError) else where
        raise SchemaError(f"{at}: {problem}") from problem
    if bad is not None:
        g, f = bad.split(";")
        h = compose[bad]
        if not {g, f, h} <= base.dom.keys():
            raise SchemaError(f"{where}.compose[{bad!r}]: names an undeclared morphism")
        raise SchemaError(f"{where}.compose[{bad!r}]: {h!r} is not a composite of {g!r} after {f!r}")
    # Each entry now sits at its own composable pair, so all pairs are
    # defined exactly when there are as many entries as pairs.
    if len(compose) != sum(len(i) * len(o) for i, o in zip(base.by_target, base.by_source)):
        names = base.names
        g, f = next((g, f) for f in range(len(names)) for g, h in base.after(f) if h < 0)
        raise SchemaError(f"{where}.compose: {names[g]!r} after {names[f]!r} is undefined")
    return base


# -- order and operators --------------------------------------------------------


def order_to_dict(order: TopogenousOrder, objects: Sequence[str], form_id: str | None = None) -> dict:
    """The order document, each object's rows under its name in ``objects``."""
    rel = {}
    for x, rows in sorted(zip(objects, order.rel)):
        n = len(rows)
        rel[x] = [[bool((rows[a] >> b) & 1) for b in range(n)] for a in range(n)]
    return {"form": form_id, "rel": rel}


def order_from_dict(doc: dict, form: FormInstance, where: str = "order") -> TopogenousOrder:
    """The order of a document, checked to fit ``form``: it relates exactly
    the form's objects, each by rows that fit its fibre. Its relations are
    numbered by the form's objects."""
    rel = {}
    for x, rows in _need(doc, "rel", where, dict).items():
        if not isinstance(rows, list):
            raise SchemaError(f"{where}.rel[{x}]: expected a list of rows")
        n = len(rows)
        _bool_rows(rows, n, f"{where}.rel[{x}]")
        rel[x] = _up_masks(rows)
    objects = form.base.objects
    for x in rel:
        if x not in objects:
            raise SchemaError(f"{where}: order relates object {x!r}, which the form does not have")
    for x, fib in zip(objects, form.fibres):
        rows = rel.get(x)
        if rows is None:
            raise SchemaError(f"{where}: order has no relation for object {x!r}")
        if len(rows) != fib.size:
            raise SchemaError(f"{where}: relation rows for {x!r} do not match the fibre size")
    return TopogenousOrder(map(rel.__getitem__, objects))


def operator_to_dict(op: Operator, objects: Sequence[str]) -> dict:
    """The operator document, each object's table under its name in ``objects``."""
    return {"map": {x: list(t) for x, t in sorted(zip(objects, op.maps))}}


def operator_from_dict(doc: dict, kind: str, form: FormInstance, where: str = "operator") -> Operator:
    """The operator of a document, checked to fit ``form``: one table per
    object of the form, each mapping its fibre into itself. Its tables are
    numbered by the form's objects."""
    maps = {x: _ints(t, f"{where}.map[{x}]") for x, t in _need(doc, "map", where, dict).items()}
    objects = form.base.objects
    for x in maps:
        if x not in objects:
            raise SchemaError(f"{where}: operator maps object {x!r}, which the form does not have")
    for x, fib in zip(objects, form.fibres):
        t = maps.get(x)
        if t is None:
            raise SchemaError(f"{where}: operator has no table for object {x!r}")
        if len(t) != fib.size or any(not 0 <= v < fib.size for v in t):
            raise SchemaError(f"{where}: operator table for {x!r} does not fit the fibre")
    return Operator(kind, map(maps.__getitem__, objects))


# -- instance payloads ----------------------------------------------------------


def topology_to_dict(t: FiniteTopology) -> dict:
    return {"n": t.n, "opens": sorted(t.opens)}


def group_from_dict(doc: dict, where: str = "group") -> FiniteGroup:
    order = _need(doc, "order", where)
    if not is_int(order):
        raise SchemaError(f"{where}.order: expected an integer")
    name = doc.get("name", "G")
    if not isinstance(name, str):
        raise SchemaError(f"{where}.name: expected a string")
    cayley = [_ints(row, f"{where}.cayley[{i}]") for i, row in enumerate(_need(doc, "cayley", where, list))]
    if len(cayley) != order:
        raise SchemaError(f"{where}.cayley: expected {order} rows")
    try:
        return FiniteGroup(cayley, name)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def partition_to_dict(p: Partition) -> dict:
    return {"n": p.n, "blocks": list(p.blocks)}


# -- files ----------------------------------------------------------------------


def load_json(path: str, digests: dict[str, str] | None = None) -> Any:
    """The JSON document in the file at ``path``, read once; its sha256,
    as ``"sha256:<hex>"``, goes into ``digests[path]`` when given. Text
    the parser refuses is a SchemaError naming the file: besides a syntax
    error (located by line and column), nesting deeper than the parser's
    recursion allows, and an integer literal longer than the interpreter
    converts (``sys.get_int_max_str_digits``)."""
    text = _read_text(path, digests)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON") from exc
    except RecursionError:
        raise SchemaError(f"{path}: invalid JSON: nested too deeply") from None
    except ValueError:  # the only other refusal: an integer literal past the conversion limit
        limit = sys.get_int_max_str_digits()
        raise SchemaError(f"{path}: invalid JSON: an integer literal longer than {limit} digits") from None


def _read_text(path: str, digests: dict[str, str] | None) -> str:
    """The file's UTF-8 text; its bytes are gone before the parse."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise SchemaError(f"{path}: no such file") from None
    except OSError as exc:
        raise SchemaError(f"{path}: {exc.strerror}") from None
    if digests is not None:
        from hashlib import sha256  # loaded only by commands that record an input digest
        digests[path] = "sha256:" + sha256(data).hexdigest()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        raise SchemaError(f"{path}: not UTF-8 text") from None


def dump_json(doc: Any, path: str) -> None:
    """Write ``doc`` to the file at ``path``, as :func:`write_json` does.

    The file open on descriptor 1 (``/dev/stdout``, or the file stdout is
    redirected to) is written through ``sys.stdout``, at its offset, so
    text written there after it follows it. A new file, or another regular
    one, is written under a temporary name beside it and renamed over it
    once the whole text is written, so a writer error leaves the old file
    as it was, or no file. Any other path (a link, a pipe), and one whose
    directory takes no new file, is written in place."""
    if _is_stdout(path):
        write_json(doc, sys.stdout)
        sys.stdout.flush()
        return
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    temp = None
    if mode is None or stat.S_ISREG(mode):
        head, tail = os.path.split(path)
        temp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except OSError:
            temp = None
    if temp is None:
        with open(path, "w") as fh:
            write_json(doc, fh)
        return
    try:
        with open(fd, "w") as fh:
            if mode is not None:
                os.chmod(fh.fileno(), stat.S_IMODE(mode))
            write_json(doc, fh)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def _is_stdout(path: str) -> bool:
    """Whether ``path`` names the file open on descriptor 1."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(1))
    except OSError:
        return False


def write_json(doc: Any, fh: TextIO) -> None:
    """Write ``dumps(doc)`` and a newline to ``fh`` in pieces, as they are
    encoded, so a large document is never held as one string."""
    fh.writelines(_chunks(doc, "\n"))
    fh.write("\n")


# How each scalar type is written, for exact types only: a subclass (an
# IntEnum, a str subclass) is written by the stdlib, which knows its rules.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda v: "null",
}
_STR = {str}
_DICT = {dict}


def dumps(doc: Any) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, character for
    character, for a tree of JSON values (a cycle raises RecursionError).

    The stdlib encoder runs in pure Python whenever it indents, one call
    per token. Here each run of like values is written by one ``join``:
    a list of scalars of one type, and a list of objects that share their
    keys (a report's violations), column by column. Floats, non-string
    keys and subclasses go to the stdlib, re-indented to their depth. A :class:`FormInstance` anywhere in the
    tree is written as ``form_to_dict`` of it would be, from its tables,
    and a :class:`FiniteLattice` as ``lattice_to_dict`` of it would be,
    from its ``up`` masks."""
    return "".join(_chunks(doc, "\n"))


def _chunks(o: Any, nl: str) -> Iterator[str]:
    """The text of ``o`` at the depth whose newline and indent is ``nl``,
    in pieces: :func:`write_json` writes them as they come, so a large
    document is never held as one string."""
    text = _flat(o, nl)
    if text is not None:
        yield text
        return
    t = type(o)
    inner = nl + "  "
    sep = "," + inner
    if t is list or t is tuple:
        records = _records(o, inner)
        if records is not None:
            yield "[" + inner + sep.join(records) + nl + "]"
            return
        prefix = "[" + inner
        for v in o:
            text = _flat(v, inner)
            if text is None:
                yield prefix
                yield from _chunks(v, inner)
            else:
                yield prefix + text
            prefix = sep
        yield nl + "]"
    elif t is dict and _STR.issuperset(map(type, o)):
        prefix = "{" + inner
        for k in sorted(o):
            v = o[k]
            text = _flat(v, inner)
            if text is None:
                yield prefix + encode_basestring_ascii(k) + ": "
                yield from _chunks(v, inner)
            else:
                yield prefix + encode_basestring_ascii(k) + ": " + text
            prefix = sep
        yield nl + "}"
    elif t is FormInstance:
        yield from _form_chunks(o, nl)
    elif t is FiniteLattice:
        yield _lattice_text(o, nl)
    else:
        yield _fallback(o, nl)


def _form_chunks(form: FormInstance, nl: str) -> Iterator[str]:
    """The text of ``form_to_dict(form)``, written from the integer tables
    without building the dict: compose one block per morphism g, push and
    pull one entry per morphism, each name escaped once."""
    base = form.base
    names = base.names
    escaped = _escaped(names)
    inner = nl + "  "
    sep = "," + inner
    yield "{" + inner + '"compose": '
    yield from _compose_chunks(base, escaped, inner)
    for key, value in _sections(form).items():
        yield sep + '"' + key + '": '
        yield from _chunks(value, inner)
    digits = list(map(str, range(max((fib.size for fib in form.fibres), default=0))))
    for key, tables in (("pull", form.pull), ("push", form.push)):
        yield sep + '"' + key + '": '
        yield from _table_chunks(names, escaped, tables, digits, inner)
    yield nl + "}"


def _compose_chunks(base: CategoryPresentation, escaped: list[str], nl: str) -> Iterator[str]:
    """The compose object, one chunk per morphism g. With no ';' in a name,
    the key "g;f" sorts as the pair (g + ";", f), so sorting the morphisms
    twice, once by g + ";" and once by name for each object f is into,
    replaces sorting a key per composable pair."""
    names = base.names
    inner = nl + "  "
    sep = "," + inner
    # an entry is '"' + escaped g + ';' + tails[f] + texts[g∘f]
    tails = [e + '": "' for e in escaped]
    texts = [e + '"' for e in escaped]
    into = [sorted(fs, key=names.__getitem__) for fs in base.by_target]
    into_tails = [[tails[f] for f in fs] for fs in into]
    prefix = "{" + inner
    for g in sorted(range(len(names)), key=lambda g: names[g] + ";"):
        x = base.source[g]
        hs = list(map(base.before(g).__getitem__, into[x]))  # never empty: the identity of x is one of the f
        head = '"' + escaped[g] + ";"
        # tail, text and separator per entry, joined once
        pieces = [sep + head] * (3 * len(hs))
        pieces[0::3] = into_tails[x]
        pieces[1::3] = map(texts.__getitem__, hs)
        pieces.pop()
        yield prefix + head + "".join(pieces)
        prefix = sep
    yield nl + "}" if prefix is sep else "{}"


# The text of each binary digit of a row's mask, lowest bit first.
_WORDS = {"0": "false", "1": "true"}.__getitem__


def _lattice_text(lat: FiniteLattice, nl: str) -> str:
    """The text of ``lattice_to_dict(lat)``, each ``leq`` row written from
    its ``up`` mask with no list of booleans."""
    inner = nl + "  "
    row_nl = inner + "  "
    leq = "[]"
    if lat.size:
        n, sep = lat.size, "," + row_nl + "  "
        rows = ("[" + row_nl + "  " + sep.join(map(_WORDS, format(m, "b").zfill(n)[::-1])) + row_nl + "]" for m in lat.up)
        leq = "[" + row_nl + ("," + row_nl).join(rows) + inner + "]"
    members = ['"leq": ' + leq, '"size": ' + str(lat.size)]
    if lat.labels:
        members.insert(0, '"labels": ' + "".join(_chunks(list(lat.labels), inner)))
    return "{" + inner + ("," + inner).join(members) + nl + "}"


def _table_chunks(
    names: tuple[str, ...], escaped: list[str], tables: Sequence[Sequence[int]], digits: list[str], nl: str
) -> Iterator[str]:
    """The push or pull object, one chunk per morphism (``tables`` by
    number), an integer table written through ``digits``, the texts of the
    fibre elements."""
    inner = nl + "  "
    sep = "," + inner
    element = inner + "  "
    prefix = "{" + inner
    for f in sorted(range(len(names)), key=names.__getitem__):
        table = tables[f]
        key = prefix + '"' + escaped[f] + '": '
        if table and _INT.issuperset(map(type, table)):
            yield key + "[" + element + ("," + element).join(map(digits.__getitem__, table)) + inner + "]"
        else:
            yield key
            yield from _chunks(list(table), inner)
        prefix = sep
    yield nl + "}" if prefix is sep else "{}"


def _flat(o: Any, nl: str) -> str | None:
    """The text of ``o`` if it is a scalar, an empty list or object, or a
    list of scalars of one type; None otherwise."""
    t = type(o)
    scalar = _SCALARS.get(t)
    if scalar is not None:
        return scalar(o)
    if t is list or t is tuple:
        if not o:
            return "[]"
        scalar = _one_scalar(o)
        if scalar is not None:
            inner = nl + "  "
            return "[" + inner + ("," + inner).join(map(scalar, o)) + nl + "]"
    elif t is dict and not o:
        return "{}"
    return None


def _records(rows: list | tuple, nl: str) -> Iterator[str] | None:
    """The texts of ``rows`` if they are objects with the same string keys
    and :func:`_flat` values, filled into one template; None otherwise."""
    if set(map(type, rows)) != _DICT or len(set(map(frozenset, rows))) != 1:
        return None
    keys = sorted(rows[0])
    if not keys or not _STR.issuperset(map(type, keys)):
        return None
    inner = nl + "  "
    columns = []
    for k in keys:
        texts = _column(list(map(itemgetter(k), rows)), inner)
        if texts is None:
            return None
        columns.append(texts)
    members = (encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys)
    template = "{" + inner + ("," + inner).join(members) + nl + "}"
    return map(template.__mod__, zip(*columns))


def _column(values: list, nl: str) -> list[str] | None:
    """The texts of ``values`` if each is :func:`_flat`; None otherwise."""
    scalar = _one_scalar(values)
    if scalar is not None:
        return list(map(scalar, values))
    texts = [_flat(v, nl) for v in values]
    return None if None in texts else texts


def _one_scalar(values: list | tuple) -> Callable[[Any], str] | None:
    """The writer of ``values`` if they are scalars of one type."""
    types = set(map(type, values))
    return _SCALARS.get(types.pop()) if len(types) == 1 else None


def _fallback(o: Any, nl: str) -> str:
    return json.dumps(o, indent=2, sort_keys=True).replace("\n", nl)

"""Finite sets and all functions between them, presented as a category.

Shared by the topology and partition instances, whose base is the same:
objects are finite carriers {0..n-1}, morphisms are all value tables. The
group instance builds its base, all homomorphisms as value tables, with
the same :func:`concrete_category`.
"""

from __future__ import annotations

from itertools import product, repeat
from typing import Callable, Iterable, Sequence

from .forms import CategoryPresentation, MorphismKind
from .report import InputError, Record

MORPHISM_BUDGET = 5000
# Value tables are bytes, and a table padded to 256 bytes translates them.
MAX_CARRIER = 256


class SetFunction(Record):
    __slots__ = ("dom_size", "cod_size", "table")

    def __init__(self, dom_size: int, cod_size: int, table: tuple[int, ...]):
        self.dom_size, self.cod_size, self.table = dom_size, cod_size, table
        if len(self.table) != self.dom_size:
            raise ValueError("table length must equal domain size")
        for v in self.table:
            if not 0 <= v < self.cod_size:
                raise ValueError(f"value {v} outside codomain of size {self.cod_size}")

    def __call__(self, x: int) -> int:
        return self.table[x]

    def preimage_mask(self, subset_mask: int) -> int:
        out = 0
        for x, v in enumerate(self.table):
            if (subset_mask >> v) & 1:
                out |= 1 << x
        return out

    def image_mask(self, subset_mask: int) -> int:
        out = 0
        for x, v in enumerate(self.table):
            if (subset_mask >> x) & 1:
                out |= 1 << v
        return out

    def is_surjective(self) -> bool:
        return len(set(self.table)) == self.cod_size


def all_functions(m: int, n: int) -> list[SetFunction]:
    """Every function {0..m-1} -> {0..n-1}, in lexicographic table order."""
    return [SetFunction(m, n, t) for t in product(range(n), repeat=m)]


def morphism_name(src: str, dst: str, table: Sequence[int]) -> str:
    return f"{src}->{dst}:" + ".".join(str(v) for v in table)


def distinct_names(labels: Sequence[str]) -> list[str]:
    """The labels in order, the k-th repeat of a label suffixed ``_k``."""
    seen: dict[str, int] = {}
    names = []
    for label in labels:
        k = seen.get(label, 0)
        seen[label] = k + 1
        names.append(label if k == 0 else f"{label}_{k}")
    return names


def concrete_category(
    carriers: dict[str, int], arrows: Callable[[int, int], Iterable]
) -> tuple[CategoryPresentation, list]:
    """The category on the named carriers whose morphisms x -> y are
    ``arrows(x, y)``, x and y object numbers, each given by its value table
    ``.table`` and named ``x->y:t0.t1...``; composites compose the tables
    and identities are the identity tables. Returns the presentation and
    the arrows by morphism number.
    When every hom-set holds every function between its carriers, the
    morphism kinds are read off the value tables (:func:`_full_kinds`);
    otherwise the presentation scans for them.

    Value tables are held as bytes, so a carrier has at most
    :data:`MAX_CARRIER` points. The composites are filled a hom-block at a
    time (see :class:`CategoryPresentation`): for g: y -> z and the
    hom-set hom(x, y), g's table padded to a 256-byte translation table
    turns each table f of the block into the table ``f.translate(g)`` of
    g∘f, and one ``map`` looks them up in hom(x, z)."""
    for x, size in carriers.items():
        if size > MAX_CARRIER:
            raise InputError(f"carrier {x!r} has {size} points; value tables hold at most {MAX_CARRIER}")
    objects = list(carriers)
    homs: dict[tuple[str, str], list[str]] = {}
    # By morphism number, as the presentation numbers them: hom-set by
    # hom-set in object order. number[x][y] maps a table of hom(x, y) to
    # its morphism.
    arrows_by_number: list = []
    tables: list[bytes] = []
    source: list[int] = []
    target: list[int] = []
    number: list[list[dict[bytes, int]]] = [[{} for _ in objects] for _ in objects]
    for xi, x in enumerate(objects):
        for yi, y in enumerate(objects):
            ms = homs[(x, y)] = []
            for arrow in arrows(xi, yi):
                ms.append(morphism_name(x, y, arrow.table))
                arrows_by_number.append(arrow)
                table = bytes(arrow.table)
                number[xi][yi][table] = len(tables)
                tables.append(table)
                source.append(xi)
                target.append(yi)

    def compose(g: int, fs: range) -> list[int]:
        into = number[source[fs.start]][target[g]]
        pad = tables[g].ljust(256, b"\0")
        return list(map(into.__getitem__, map(bytes.translate, tables[fs.start : fs.stop], repeat(pad))))

    identities = {x: morphism_name(x, x, range(n)) for x, n in carriers.items()}
    sizes = [carriers[x] for x in objects]
    full = all(len(number[x][y]) == sizes[y] ** sizes[x] for x in range(len(objects)) for y in range(len(objects)))
    kinds = _full_kinds(sizes, tables, source, target, number) if full else None
    return CategoryPresentation(objects, homs, compose, identities, kinds), arrows_by_number


def _full_kinds(
    sizes: list[int], tables: list[bytes], source: list[int], target: list[int], number: list[list[dict[bytes, int]]]
) -> list[MorphismKind]:
    """The kinds of :func:`concrete_category`'s morphisms, by number, when
    its hom-sets hold every function: one pass over each value table.
    ``sizes`` holds the carrier sizes by object number. f: X -> Y has a
    left inverse iff it is injective and X is nonempty or Y is empty (from
    an empty X there is a map back only when Y is empty too), and a right
    inverse iff it is surjective; a bijection's inverse is its inverted
    table, looked up in hom(Y, X)."""
    kinds = []
    for f, table in enumerate(tables):
        x, y = source[f], target[f]
        values, cod = len(set(table)), sizes[y]
        section = values == len(table) and (values > 0 or cod == 0)
        retraction = values == cod
        inverse = None
        if section and retraction:
            inverted = bytearray(cod)
            for a, v in enumerate(table):
                inverted[v] = a
            inverse = number[y][x][bytes(inverted)]
        kinds.append(MorphismKind(section, retraction, inverse is not None, inverse))
    return kinds


def function_category(sizes: Sequence[int]) -> tuple[CategoryPresentation, list[SetFunction]]:
    """The full subcategory of finite sets on the given carrier sizes:
    object i has ``sizes[i]`` points and is named ``<n>pt``, disambiguated
    when sizes repeat. Returns the presentation and the functions by
    morphism number.
    """
    for n in sizes:
        if n < 0:
            raise InputError(f"carrier sizes must be nonnegative, got {n}")
    total = sum(m ** n if n > 0 else 1 for n in sizes for m in sizes)
    if total > MORPHISM_BUDGET:
        raise InputError(f"{total} morphisms exceed the budget of {MORPHISM_BUDGET}")
    carriers = dict(zip(distinct_names([f"{n}pt" for n in sizes]), sizes))
    return concrete_category(carriers, lambda x, y: all_functions(sizes[x], sizes[y]))

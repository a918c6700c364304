"""Finite sets and all functions between them, presented as a category.

Shared by the topology and partition instances, whose base is the same:
objects are finite carriers {0..n-1}, morphisms are all value tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .forms import CategoryPresentation
from .report import InputError

MORPHISM_BUDGET = 5000


@dataclass(frozen=True)
class SetFunction:
    dom_size: int
    cod_size: int
    table: tuple[int, ...]

    def __post_init__(self):
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


def function_category(sizes: Sequence[int]) -> tuple[CategoryPresentation, dict[str, int], dict[str, SetFunction]]:
    """The full subcategory of finite sets on the given carrier sizes.

    Returns the presentation, object name -> size, morphism name -> function.
    Object names are disambiguated when sizes repeat.
    """
    names: list[str] = []
    seen: dict[int, int] = {}
    for n in sizes:
        if n < 0:
            raise InputError(f"carrier sizes must be nonnegative, got {n}")
        k = seen.get(n, 0)
        seen[n] = k + 1
        names.append(f"{n}pt" if k == 0 else f"{n}pt_{k}")
    size_of = dict(zip(names, sizes))

    total = sum(size_of[y] ** size_of[x] if size_of[x] > 0 else 1 for x in names for y in names)
    if total > MORPHISM_BUDGET:
        raise InputError(f"{total} morphisms exceed the budget of {MORPHISM_BUDGET}")

    homs: dict[tuple[str, str], list[str]] = {}
    fn_of: dict[str, SetFunction] = {}
    by_key: dict[tuple[str, str, tuple[int, ...]], str] = {}
    for x in names:
        for y in names:
            ms = []
            for fn in all_functions(size_of[x], size_of[y]):
                name = morphism_name(x, y, fn.table)
                ms.append(name)
                fn_of[name] = fn
                by_key[(x, y, fn.table)] = name
            homs[(x, y)] = ms

    compose: dict[tuple[str, str], str] = {}
    for x in names:
        for y in names:
            for f in homs[(x, y)]:
                tf = fn_of[f].table
                for z in names:
                    for g in homs[(y, z)]:
                        tg = fn_of[g].table
                        composed = tuple(tg[v] for v in tf)
                        compose[(g, f)] = by_key[(x, z, composed)]

    identities = {x: by_key[(x, x, tuple(range(size_of[x])))] for x in names}
    base = CategoryPresentation(names, homs, compose, identities)
    return base, size_of, fn_of

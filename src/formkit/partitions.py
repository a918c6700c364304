"""Partitions of finite sets under refinement, pushout/kernel transfer, and
the quotient form over finite sets.

A partition is stored as a block id per point, canonicalized so block ids
are first-occurrence ordinals; equality is then plain tuple equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .forms import FormInstance
from .lattice import FiniteLattice, MonotoneMap
from .report import InputError
from .setmaps import SetFunction, function_category

MAX_GROUND = 5


def canonical_blocks(blocks: Sequence[int]) -> tuple[int, ...]:
    relabel: dict[int, int] = {}
    out = []
    for b in blocks:
        if b not in relabel:
            relabel[b] = len(relabel)
        out.append(relabel[b])
    return tuple(out)


@dataclass(frozen=True)
class Partition:
    blocks: tuple[int, ...]

    def __post_init__(self):
        if self.blocks != canonical_blocks(self.blocks):
            raise ValueError("block ids must be first-occurrence ordinals")

    @property
    def n(self) -> int:
        return len(self.blocks)

    @classmethod
    def of(cls, blocks: Sequence[int]) -> "Partition":
        return cls(canonical_blocks(blocks))

    def same_block(self, a: int, b: int) -> bool:
        return self.blocks[a] == self.blocks[b]

    def refines(self, other: "Partition") -> bool:
        if self.n != other.n:
            raise ValueError("partitions of different ground sets")
        seen: dict[int, int] = {}
        for mine, theirs in zip(self.blocks, other.blocks):
            if mine in seen:
                if seen[mine] != theirs:
                    return False
            else:
                seen[mine] = theirs
        return True


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of {0..n-1} as restricted growth strings, in
    lexicographic order."""
    if not 0 <= n <= MAX_GROUND:
        raise InputError(f"ground size must be between 0 and {MAX_GROUND}, got {n}")
    if n == 0:
        return [Partition(())]
    out: list[Partition] = []

    def grow(prefix: list[int], top: int) -> None:
        if len(prefix) == n:
            out.append(Partition(tuple(prefix)))
            return
        for b in range(top + 2):
            grow(prefix + [b], max(top, b))

    grow([0], 0)
    return out


def partition_lattice(n: int) -> tuple[FiniteLattice, list[Partition]]:
    """Partitions ordered by refinement: all singletons at the bottom, one
    block at the top."""
    parts = enumerate_partitions(n)
    rows = [[p.refines(q) for q in parts] for p in parts]
    labels = ["|".join(map(str, p.blocks)) for p in parts]
    return FiniteLattice(rows, labels), parts


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def push_partition(f: SetFunction, e: Partition) -> Partition:
    """Pushout along f: the smallest equivalence on the codomain gluing the
    images of glued points."""
    if f.dom_size != e.n:
        raise ValueError("function domain does not match the partition ground set")
    uf = _UnionFind(f.cod_size)
    reps: dict[int, int] = {}
    for x, b in enumerate(e.blocks):
        if b in reps:
            uf.union(f(reps[b]), f(x))
        else:
            reps[b] = x
    return Partition.of([uf.find(y) for y in range(f.cod_size)])


def pull_partition(f: SetFunction, d: Partition) -> Partition:
    """Kernel of the composite: points are glued when their images are."""
    if f.cod_size != d.n:
        raise ValueError("function codomain does not match the partition ground set")
    return Partition.of([d.blocks[f(x)] for x in range(f.dom_size)])


@dataclass
class PartitionForm:
    form: FormInstance
    sizes: dict[str, int]
    partitions: dict[str, list[Partition]]
    index: dict[str, dict[tuple[int, ...], int]]
    functions: dict[str, SetFunction]

    def element(self, obj: str, p: Partition) -> int:
        return self.index[obj][p.blocks]


def build_quot_form(sizes: Sequence[int]) -> PartitionForm:
    """The quotient form over finite sets: fibres are partition lattices,
    push is the pushout, pull the kernel of the composite."""
    for n in sizes:
        if n > MAX_GROUND:
            raise InputError(f"ground size {n} exceeds the cap of {MAX_GROUND}")
    base, size_of, fn_of = function_category(sizes)
    fibres = {}
    parts = {}
    index = {}
    for x in base.objects:
        fibres[x], parts[x] = partition_lattice(size_of[x])
        index[x] = {p.blocks: i for i, p in enumerate(parts[x])}
    push = {}
    pull = {}
    for f in base.morphisms():
        fn = fn_of[f]
        x, y = base.dom[f], base.cod[f]
        push[f] = MonotoneMap(
            fibres[x], fibres[y],
            [index[y][push_partition(fn, p).blocks] for p in parts[x]],
        )
        pull[f] = MonotoneMap(
            fibres[y], fibres[x],
            [index[x][pull_partition(fn, p).blocks] for p in parts[y]],
        )
    form = FormInstance(base, fibres, push, pull)
    return PartitionForm(form, size_of, parts, index, fn_of)

"""Partitions of finite sets under refinement, pushout/kernel transfer, and
the quotient form over finite sets.

A partition is stored as a block id per point, canonicalized so block ids
are first-occurrence ordinals; equality is then plain tuple equality.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from .forms import FormInstance
from .lattice import FiniteLattice, lower_adjoint
from .report import InputError, Record
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


class Partition(Record):
    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple[int, ...]):
        self.blocks = blocks
        if self.blocks != canonical_blocks(self.blocks):
            raise ValueError("block ids must be first-occurrence ordinals")

    @property
    def n(self) -> int:
        return len(self.blocks)

    @classmethod
    def of(cls, blocks: Sequence[int]) -> "Partition":
        return cls(canonical_blocks(blocks))

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
    stack = [((0,), 0)]  # (prefix, its largest block); children pushed last-first
    while stack:
        prefix, top = stack.pop()
        if len(prefix) == n:
            out.append(Partition(prefix))
        else:
            stack.extend((prefix + (b,), max(top, b)) for b in range(top + 1, -1, -1))
    return out


def partition_lattice(n: int) -> tuple[FiniteLattice, list[Partition]]:
    """Partitions ordered by refinement: all singletons at the bottom, one
    block at the top."""
    parts = enumerate_partitions(n)
    up = [sum(1 << j for j, q in enumerate(parts) if p.refines(q)) for p in parts]
    labels = ["|".join(map(str, p.blocks)) for p in parts]
    return FiniteLattice(up, labels), parts


class PartitionForm:
    """The quotient form and its tables: ``sizes``, ``partitions`` (in
    fibre order) and ``index`` (a partition's blocks to its fibre element)
    by object number, ``functions`` by morphism number."""

    def __init__(
        self,
        form: FormInstance,
        sizes: list[int],
        partitions: list[list[Partition]],
        index: list[dict[tuple[int, ...], int]],
        functions: list[SetFunction],
    ):
        self.form, self.sizes, self.partitions, self.index, self.functions = form, sizes, partitions, index, functions


def build_quot_form(sizes: Sequence[int]) -> PartitionForm:
    """The quotient form over finite sets: fibres are partition lattices,
    pull is the kernel of the composite, push the pushout.

    Each object x gets one dict from every label word of its length over
    ``range(w)``, w the largest size, to the element of the partition the
    word's blocks form. Pull translates the function's value table through
    the codomain partition's block ids, padded to a translation table, and
    looks the word up. Push is the lower adjoint of pull
    (:func:`formkit.lattice.lower_adjoint`). ``push_partition`` and
    ``pull_partition`` in ``tests/oracles.py`` compute the same entries
    one partition at a time and are the oracle the tables are tested
    against."""
    for n in sizes:
        if n > MAX_GROUND:
            raise InputError(f"ground size {n} exceeds the cap of {MAX_GROUND}")
    base, functions = function_category(sizes)
    width = max(sizes, default=0)
    # by object number
    fibres, parts, index = [], [], []
    element: list[dict[bytes, int]] = []  # label word -> element
    blocks: list[list[bytes]] = []  # [p]: the block ids of p, padded to 256 bytes
    for n in sizes:
        fib, ps = partition_lattice(n)
        fibres.append(fib)
        parts.append(ps)
        index.append({p.blocks: i for i, p in enumerate(ps)})
        element.append({bytes(word): index[-1][canonical_blocks(word)] for word in product(range(width), repeat=n)})
        blocks.append([bytes(p.blocks).ljust(256, b"\0") for p in ps])
    pull = [
        tuple(map(element[x].__getitem__, map(bytes(fn.table).translate, blocks[y])))
        for fn, x, y in zip(functions, base.source, base.target)
    ]
    push = [lower_adjoint(t, fibres[y], fibres[x]) for t, x, y in zip(pull, base.source, base.target)]
    form = FormInstance(base, fibres, push, pull)
    return PartitionForm(form, list(sizes), parts, index, functions)

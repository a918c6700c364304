"""Finite complete lattices given extensionally, monotone maps, Galois pairs.

Elements are dense indices 0..size-1; instance modules own the bijection
between indices and semantic objects (topologies, subgroups, partitions).
The order relation is a dense boolean matrix packed one int bitmask per row.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .report import Report


def bits(mask: int):
    """Iterate set-bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FiniteLattice:
    """A finite poset with all meets and joins (checked by :meth:`verify`).

    ``up[a]`` is the bitmask of every b with a <= b; ``down[b]`` the dual.
    Immutable after construction; safe to share between workers.
    """

    def __init__(self, leq_rows: Sequence[Sequence[bool]], labels: Optional[Sequence[str]] = None):
        n = len(leq_rows)
        for row in leq_rows:
            if len(row) != n:
                raise ValueError("leq matrix must be square")
        if labels is not None and len(labels) != n:
            raise ValueError("labels length must match size")
        self.size = n
        self.up = tuple(
            sum(1 << b for b in range(n) if leq_rows[a][b]) for a in range(n)
        )
        self.down = tuple(
            sum(1 << a for a in range(n) if leq_rows[a][b]) for b in range(n)
        )
        self.labels = tuple(labels) if labels is not None else None
        self._full = (1 << n) - 1
        self._is_order: Optional[bool] = None
        self._covers: Optional[tuple[tuple[int, ...], ...]] = None

    @classmethod
    def from_up_masks(cls, up: Sequence[int], labels: Optional[Sequence[str]] = None) -> "FiniteLattice":
        n = len(up)
        rows = [[bool((up[a] >> b) & 1) for b in range(n)] for a in range(n)]
        return cls(rows, labels)

    @classmethod
    def chain(cls, n: int) -> "FiniteLattice":
        return cls([[a <= b for b in range(n)] for a in range(n)])

    def leq(self, a: int, b: int) -> bool:
        self._check(a)
        self._check(b)
        return bool((self.up[a] >> b) & 1)

    def _check(self, a: int) -> None:
        if not 0 <= a < self.size:
            raise IndexError(f"element {a} out of range for lattice of size {self.size}")

    def label(self, a: int) -> str:
        return self.labels[a] if self.labels else str(a)

    @property
    def bottom(self) -> int:
        for a in range(self.size):
            if self.up[a] == self._full:
                return a
        raise ValueError("lattice has no bottom element")

    @property
    def top(self) -> int:
        for a in range(self.size):
            if self.down[a] == self._full:
                return a
        raise ValueError("lattice has no top element")

    def meet(self, elems: Iterable[int]) -> int:
        """Greatest lower bound; top for the empty family."""
        common = self._full
        for a in elems:
            self._check(a)
            common &= self.down[a]
        for c in bits(common):
            if common & ~self.down[c] == 0:
                return c
        raise ValueError("no greatest lower bound; not a lattice")

    def join(self, elems: Iterable[int]) -> int:
        """Least upper bound; bottom for the empty family."""
        common = self._full
        for a in elems:
            self._check(a)
            common &= self.up[a]
        for c in bits(common):
            if common & ~self.up[c] == 0:
                return c
        raise ValueError("no least upper bound; not a lattice")

    def bound(self, kind: str, elems: Iterable[int]) -> int:
        if kind == "meet":
            return self.meet(elems)
        if kind == "join":
            return self.join(elems)
        raise ValueError(f"kind must be 'meet' or 'join', got {kind!r}")

    def verify(self) -> Report:
        """Check the poset axioms and existence of all bounds."""
        rep = Report()
        n = self.size
        rep.count("reflexive", n)
        for a in range(n):
            if not (self.up[a] >> a) & 1:
                rep.add("reflexive", witness=(a,))
        for a in range(n):
            above = self.up[a] & ~(1 << a)
            rep.count("antisymmetric", above.bit_count())
            rep.count("transitive", above.bit_count())
            for b in bits(above):
                if (self.up[b] >> a) & 1:
                    rep.add("antisymmetric", witness=(a, b))
                if self.up[b] & ~self.up[a]:
                    c = next(bits(self.up[b] & ~self.up[a]))
                    rep.add("transitive", witness=(a, b, c))
        if rep.violations:
            return rep
        for a in range(n):
            rep.count("bounds", 2 * (n - a))
            for b in range(a, n):
                if not self._has_bound(self.down[a] & self.down[b], self.down):
                    rep.add("missing-meet", witness=(a, b))
                if not self._has_bound(self.up[a] & self.up[b], self.up):
                    rep.add("missing-join", witness=(a, b))
        if n > 0:
            rep.count("global-bounds", 2)
            if not self._has_bound(self._full, self.down):
                rep.add("missing-top")
            if not self._has_bound(self._full, self.up):
                rep.add("missing-bottom")
        return rep

    def is_partial_order(self) -> bool:
        """Reflexive, antisymmetric and transitive; memoised. Fast paths
        that reason along covers or chain inequalities rely on it."""
        if self._is_order is None:
            up = self.up
            self._is_order = all(
                (up[a] >> a) & 1
                and not any((up[b] >> a) & 1 or up[b] & ~up[a] for b in bits(up[a] & ~(1 << a)))
                for a in range(self.size)
            )
        return self._is_order

    def covers(self) -> tuple[tuple[int, ...], ...]:
        """``covers()[a]``: every b > a with nothing strictly between, in
        increasing order; memoised. On a finite partial order, a <= b iff a
        chain of covers leads from a to b."""
        if self._covers is None:
            out = []
            for a in range(self.size):
                above = self.up[a] & ~(1 << a)
                out.append(tuple(b for b in bits(above) if not above & self.down[b] & ~(1 << b)))
            self._covers = tuple(out)
        return self._covers

    @staticmethod
    def _has_bound(common: int, cones: tuple) -> bool:
        return any(common & ~cones[c] == 0 for c in bits(common))

    def leq_matrix(self) -> list[list[bool]]:
        return [[bool((self.up[a] >> b) & 1) for b in range(self.size)] for a in range(self.size)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteLattice)
            and self.size == other.size
            and self.up == other.up
        )

    def __hash__(self) -> int:
        return hash((self.size, self.up))

    def __repr__(self) -> str:
        return f"FiniteLattice(size={self.size})"


class MonotoneMap:
    """A table-backed map between lattices, expected order-preserving."""

    def __init__(self, source: FiniteLattice, target: FiniteLattice, table: Sequence[int]):
        if len(table) != source.size:
            raise ValueError("table length must match source size")
        for v in table:
            if not 0 <= v < target.size:
                raise IndexError(f"table value {v} out of range for target of size {target.size}")
        self.source = source
        self.target = target
        self.table = tuple(table)

    def __call__(self, a: int) -> int:
        self.source._check(a)
        return self.table[a]

    def monotone_violation(self) -> Optional[tuple[int, int]]:
        """First pair a <= b with table[a] !<= table[b], or None.

        Only the cover pairs of the source are tested: when source and
        target are partial orders, every a <= b is a chain of covers, so a
        map that preserves each cover is monotone by transitivity of the
        target. When a cover fails, or either side is not a partial order,
        this falls back to :meth:`monotone_violation_dense`, so the pair
        returned is the first one of the full scan."""
        if self.source.is_partial_order() and self.target.is_partial_order() and self._preserves_covers():
            return None
        return self.monotone_violation_dense()

    def _preserves_covers(self) -> bool:
        up, t = self.target.up, self.table
        for a, above in enumerate(self.source.covers()):
            fa = up[t[a]]
            for b in above:
                if not (fa >> t[b]) & 1:
                    return False
        return True

    def monotone_violation_dense(self) -> Optional[tuple[int, int]]:
        """The full scan over every pair a <= b of the source: the oracle
        that :meth:`monotone_violation` is cross-checked against."""
        for a in range(self.source.size):
            fa = self.table[a]
            for b in bits(self.source.up[a]):
                if not (self.target.up[fa] >> self.table[b]) & 1:
                    return (a, b)
        return None

    def is_monotone(self) -> bool:
        return self.monotone_violation() is None

    def preserves_joins(self) -> bool:
        """Empty and binary joins (hence all joins, the lattice is finite)."""
        src, tgt, t = self.source, self.target, self.table
        if t[src.bottom] != tgt.bottom:
            return False
        for a in range(src.size):
            for b in range(a, src.size):
                if t[src.join((a, b))] != tgt.join((t[a], t[b])):
                    return False
        return True

    def preserves_meets(self) -> bool:
        src, tgt, t = self.source, self.target, self.table
        if t[src.top] != tgt.top:
            return False
        for a in range(src.size):
            for b in range(a, src.size):
                if t[src.meet((a, b))] != tgt.meet((t[a], t[b])):
                    return False
        return True

    def compose(self, inner: "MonotoneMap") -> "MonotoneMap":
        """self after inner."""
        if inner.target is not self.source and inner.target != self.source:
            raise ValueError("composition mismatch: inner.target != self.source")
        return MonotoneMap(inner.source, self.target, tuple(self.table[v] for v in inner.table))

    @classmethod
    def identity(cls, lattice: FiniteLattice) -> "MonotoneMap":
        return cls(lattice, lattice, tuple(range(lattice.size)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonotoneMap)
            and self.table == other.table
            and self.source == other.source
            and self.target == other.target
        )

    def __hash__(self) -> int:
        return hash((self.table, self.source.size, self.target.size))

    def __repr__(self) -> str:
        return f"MonotoneMap({self.source.size}->{self.target.size}, {self.table})"


class GaloisPair:
    """An adjoint pair: left(A) <= B iff A <= right(B)."""

    def __init__(self, left: MonotoneMap, right: MonotoneMap):
        if left.source != right.target or left.target != right.source:
            raise ValueError("left/right must connect the same two lattices in opposite directions")
        self.left = left
        self.right = right

    @classmethod
    def from_left_adjoint(cls, left: MonotoneMap) -> "GaloisPair":
        """Derive the upper adjoint of a join-preserving map:
        right(B) = join of every A with left(A) <= B."""
        src, tgt = left.source, left.target
        table = tuple(
            src.join([a for a in range(src.size) if tgt.leq(left.table[a], b)])
            for b in range(tgt.size)
        )
        return cls(left, MonotoneMap(tgt, src, table))

    def check(self) -> Report:
        """List every (A, B) where exactly one side of the adjunction holds."""
        rep = Report()
        left, right = self.left, self.right
        for a in range(left.source.size):
            fa = left.table[a]
            for b in range(left.target.size):
                rep.count("galois")
                if left.target.leq(fa, b) != left.source.leq(a, right.table[b]):
                    rep.add("galois", witness=(a, b))
        return rep

    def is_valid(self) -> bool:
        return self.check().ok

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


def low_bit(mask: int) -> int:
    """The least set-bit position of a non-zero ``mask``."""
    return (mask & -mask).bit_length() - 1


def columns(rows: Sequence[int]) -> list[int]:
    """The transpose of a square relation given by row masks: column b is
    the mask of every a whose row has bit b."""
    cols = [0] * len(rows)
    for a, row in enumerate(rows):
        bit = 1 << a
        for b in bits(row):
            cols[b] |= bit
    return cols


class FiniteLattice:
    """A finite poset with all meets and joins (checked by :meth:`verify`).

    ``up[a]`` is the bitmask of every b with a <= b; ``down[b]`` the dual.
    Immutable after construction, apart from facts memoised on first use
    (partial order, lattice, covers, cone index); safe to share between
    workers.
    """

    def __init__(self, leq_rows: Sequence[Sequence[bool]], labels: Optional[Sequence[str]] = None):
        n = len(leq_rows)
        for row in leq_rows:
            if len(row) != n:
                raise ValueError("leq matrix must be square")
        self._init(tuple(sum(1 << b for b in range(n) if leq_rows[a][b]) for a in range(n)), labels)

    def _init(
        self, up: tuple[int, ...], labels: Optional[Sequence[str]], down: Optional[tuple[int, ...]] = None
    ) -> None:
        n = len(up)
        if labels is not None and len(labels) != n:
            raise ValueError("labels length must match size")
        self.size = n
        self.up = up
        self.down = tuple(columns(up)) if down is None else down
        self._cones = (self.down, self.up)  # by side: 0 for meets, 1 for joins
        self.labels = tuple(labels) if labels is not None else None
        self._full = (1 << n) - 1
        self._is_order: Optional[bool] = None
        self._covers: Optional[tuple[tuple[int, ...], ...]] = None
        self._is_lattice: Optional[bool] = None
        self._by_cone: Optional[tuple[dict[int, int], dict[int, int]]] = None

    @classmethod
    def from_up_masks(
        cls, up: Sequence[int], labels: Optional[Sequence[str]] = None, down: Optional[Sequence[int]] = None
    ) -> "FiniteLattice":
        """The relation with ``up[a]`` as the mask of every b with a <= b;
        bits at or beyond ``len(up)`` are dropped. A caller that has the
        transpose passes it as ``down`` (``down[b]``, every a with a <= b),
        which is then taken as given instead of derived by :func:`columns`."""
        lat = cls.__new__(cls)
        full = (1 << len(up)) - 1
        lat._init(tuple(m & full for m in up), labels, None if down is None else tuple(m & full for m in down))
        return lat

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

    @property
    def bottom(self) -> int:
        return self._extreme(self.up, "bottom")

    @property
    def top(self) -> int:
        return self._extreme(self.down, "top")

    def _extreme(self, cones: tuple, name: str) -> int:
        """The first element whose cone is everything."""
        for a, cone in enumerate(cones):
            if cone == self._full:
                return a
        raise ValueError(f"lattice has no {name} element")

    def meet(self, elems: Iterable[int]) -> int:
        """Greatest lower bound; top for the empty family."""
        return self._bound(elems, 0)

    def join(self, elems: Iterable[int]) -> int:
        """Least upper bound; bottom for the empty family."""
        return self._bound(elems, 1)

    def _bound(self, elems: Iterable[int], side: int) -> int:
        """The meet (side 0, on ``down`` masks) or the join (side 1, on
        ``up`` masks) of ``elems``: :meth:`_scan` of the AND of their cones."""
        cones = self._cones[side]
        common = self._full
        for a in elems:
            self._check(a)
            common &= cones[a]
        return self._scan(common, side)

    def _scan(self, common: int, side: int) -> int:
        """The first c in ``common`` whose cone contains all of ``common``."""
        for c in bits(common):
            if common & ~self._cones[side][c] == 0:
                return c
        raise ValueError(("no greatest lower bound; not a lattice", "no least upper bound; not a lattice")[side])

    def meet_mask(self, mask: int) -> int:
        """:meth:`meet` of the members of ``mask``, without range checks.

        The lower bounds of the members are the AND of their ``down``
        masks. On a partial order the meet, when it exists, is the one
        element whose ``down`` mask equals that AND (its down-set is all
        of them, and antisymmetry makes it unique), so a dict from down
        masks to elements, built once per lattice, finds it in one lookup.
        When the relation is not a partial order, or the lookup misses,
        :meth:`meet`'s scan runs on the same AND and returns or raises as
        :meth:`meet` does."""
        return self._bound_mask(mask, 0)

    def join_mask(self, mask: int) -> int:
        """:meth:`join` of the members of ``mask``, the dual of
        :meth:`meet_mask` on ``up`` masks."""
        return self._bound_mask(mask, 1)

    def _bound_mask(self, mask: int, side: int) -> int:
        cones = self._cones[side]
        common = self._full
        for b in bits(mask):
            common &= cones[b]
        out = self._cone_index()[side].get(common)
        return self._scan(common, side) if out is None else out

    def _cone_index(self) -> tuple[dict[int, int], dict[int, int]]:
        """(down mask -> element, up mask -> element), the lowest index
        winning; both empty unless this is a partial order."""
        if self._by_cone is None:
            by_down: dict[int, int] = {}
            by_up: dict[int, int] = {}
            if self.is_partial_order():
                for c in range(self.size - 1, -1, -1):
                    by_down[self.down[c]] = c
                    by_up[self.up[c]] = c
            self._by_cone = (by_down, by_up)
        return self._by_cone

    def up_closure(self, mask: int) -> int:
        """The mask of every element above some member of ``mask``."""
        out = 0
        for b in bits(mask):
            out |= self.up[b]
        return out

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

    def is_lattice(self) -> bool:
        """A partial order with a top in which every pair has a meet, hence
        one in which every family has a meet and a join; memoised. One
        lookup per pair (see :meth:`meet_mask`), so :meth:`verify`'s
        witnesses are not needed to take a fast path that relies on it."""
        if self._is_lattice is None:
            by_down, down, n = self._cone_index()[0], self.down, self.size
            self._is_lattice = (
                self.is_partial_order()
                and self._full in by_down
                and all(down[a] & down[b] in by_down for a in range(n) for b in range(a + 1, n))
            )
        return self._is_lattice

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
        table = tuple(table)
        if len(table) != source.size:
            raise ValueError("table length must match source size")
        if table and (min(table) < 0 or max(table) >= target.size):
            v = next(v for v in table if not 0 <= v < target.size)
            raise IndexError(f"table value {v} out of range for target of size {target.size}")
        self.source = source
        self.target = target
        self.table = table

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

    def preimages(self, masks: Iterable[int]) -> list[int]:
        """Per mask of ``masks``, the mask of every source element the map
        sends into it.

        The fibres ``{a : table[a] = v}`` are built once per call, as masks
        indexed by v; each preimage then ORs the fibres of the values in
        its mask that the map takes (the bit loop of :func:`bits`, inline),
        so it costs the popcount of the mask, not the source size."""
        fibres, image = [0] * self.target.size, 0
        for a, v in enumerate(self.table):
            fibres[v] |= 1 << a
            image |= 1 << v
        out = []
        for mask in masks:
            pre, mask = 0, mask & image
            while mask:
                low = mask & -mask
                pre |= fibres[low.bit_length() - 1]
                mask ^= low
            out.append(pre)
        return out

    def is_monotone(self) -> bool:
        return self.monotone_violation() is None

    def preserves_joins(self) -> bool:
        """Empty and binary joins (hence all joins, the lattice is finite)."""
        return self._preserves("bottom", "join")

    def preserves_meets(self) -> bool:
        """Empty and binary meets, the dual of :meth:`preserves_joins`."""
        return self._preserves("top", "meet")

    def _preserves(self, empty: str, kind: str) -> bool:
        src, tgt, t = self.source, self.target, self.table
        if t[getattr(src, empty)] != getattr(tgt, empty):
            return False
        return all(
            t[src.bound(kind, (a, b))] == tgt.bound(kind, (t[a], t[b]))
            for a in range(src.size)
            for b in range(a, src.size)
        )

    def compose(self, inner: "MonotoneMap") -> "MonotoneMap":
        """self after inner."""
        if inner.target is not self.source and inner.target != self.source:
            raise ValueError("composition mismatch: inner.target != self.source")
        return MonotoneMap(inner.source, self.target, tuple(self.table[v] for v in inner.table))

    @classmethod
    def identity(cls, lattice: FiniteLattice) -> "MonotoneMap":
        return cls(lattice, lattice, tuple(range(lattice.size)))

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
        right(B) = join of every A with left(A) <= B, that is, of the
        preimage of ``down[B]`` (:meth:`MonotoneMap.preimages`,
        :meth:`FiniteLattice.join_mask`)."""
        src, tgt = left.source, left.target
        return cls(left, MonotoneMap(tgt, src, tuple(src.join_mask(p) for p in left.preimages(tgt.down))))

    @classmethod
    def from_right_adjoint(cls, right: MonotoneMap) -> "GaloisPair":
        """Derive the lower adjoint of a meet-preserving map: the B with
        A <= right(B) are the up-set of left(A), so the preimage of
        ``up[A]`` (:meth:`MonotoneMap.preimages`) is the ``up`` mask of
        left(A), one lookup in the cone index. A preimage that is no
        element's up-set means ``right`` has no lower adjoint: ValueError,
        naming that A."""
        src, tgt = right.target, right.source
        table = list(map(tgt._cone_index()[1].get, right.preimages(src.up)))
        if None in table:
            a = table.index(None)
            raise ValueError(f"no least B with element {a} <= right(B); not a right adjoint")
        return cls(MonotoneMap(src, tgt, table), right)

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

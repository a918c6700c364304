"""Finite complete lattices given extensionally, and the algorithms on
the int tables of maps between them: range check, monotonicity,
preimages and adjoints.

Elements are dense indices 0..size-1; instance modules own the bijection
between indices and semantic objects (topologies, subgroups, partitions).
The order relation is a dense boolean matrix packed one int bitmask per row.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .report import Report


# Masks below 1 << TABLE_BITS (256, written out in :func:`bits`), and
# lattices of at most TABLE_BITS elements, are served from tables indexed by
# mask.
TABLE_BITS = 8


def _bit_table() -> tuple[tuple[int, ...], ...]:
    """The set-bit positions of every mask below ``1 << TABLE_BITS``, by
    mask. The masks with top bit b are those below it with b appended, so
    the table doubles from ``[()]`` one bit at a time."""
    table: list[tuple[int, ...]] = [()]
    for b in range(TABLE_BITS):
        table += [t + (b,) for t in table]
    return tuple(table)


_BITS = _bit_table()


def bits(mask: int) -> Iterable[int]:
    """The set-bit positions of a non-negative ``mask``, in increasing
    order: a tuple from a table built at import for a mask below
    ``1 << TABLE_BITS``, else a generator. Callers only iterate it."""
    return _BITS[mask] if mask < 256 else _bits_of_large(mask)


def _bits_of_large(mask: int) -> Iterator[int]:
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
    bits_of = _BITS.__getitem__ if len(rows) <= TABLE_BITS else bits
    for a, row in enumerate(rows):
        bit = 1 << a
        for b in bits_of(row):
            cols[b] |= bit
    return cols


class cached_fact:
    """A fact of an immutable object, computed on first read and stored in
    the instance's ``__dict__`` under the method's name, where later reads
    find it without calling the descriptor: the semantics of
    :class:`functools.cached_property`, less the per-class lock that
    Python 3.11 takes on each first read."""

    def __init__(self, fn: Callable[[Any], Any]):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj: Any, owner: Optional[type] = None) -> Any:
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class FiniteLattice:
    """A finite poset with all meets and joins (checked by :meth:`verify`).

    ``up[a]`` is the bitmask of every b with a <= b; ``down[b]`` the dual.
    Immutable after construction, apart from facts memoised on first use:
    partial order, lattice, covers, the cone index and, on a lattice of at
    most TABLE_BITS elements, the tables :attr:`up_closure_table`,
    :attr:`meet_table` and :attr:`join_table`. Safe to share between
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

        On a lattice of at most TABLE_BITS elements this reads
        :attr:`meet_table`; the scan below runs where the table holds None.

        The lower bounds of the members are the AND of their ``down``
        masks. On a partial order the meet, when it exists, is the one
        element whose ``down`` mask equals that AND (its down-set is all
        of them, and antisymmetry makes it unique), so a dict from down
        masks to elements, built once per lattice, finds it in one lookup.
        When the relation is not a partial order, or the lookup misses,
        :meth:`meet`'s scan runs on the same AND and returns or raises as
        :meth:`meet` does."""
        table = self.meet_table
        out = None if table is None else table[mask]
        return self._bound_mask(mask, 0) if out is None else out

    def join_mask(self, mask: int) -> int:
        """:meth:`join` of the members of ``mask``, the dual of
        :meth:`meet_mask` on ``up`` masks and :attr:`join_table`."""
        table = self.join_table
        out = None if table is None else table[mask]
        return self._bound_mask(mask, 1) if out is None else out

    def _bound_mask(self, mask: int, side: int) -> int:
        cones = self._cones[side]
        common = self._full
        for b in bits(mask):
            common &= cones[b]
        return self._bound_of_common(common, side)

    def _bound_of_common(self, common: int, side: int) -> int:
        """The bound whose cone is ``common``, the AND of the members'
        cones: one cone-index lookup, else :meth:`_scan`."""
        out = self._cone_index()[side].get(common)
        return self._scan(common, side) if out is None else out

    def _bound_table(self, side: int) -> Optional[tuple[Optional[int], ...]]:
        """Per mask, :meth:`_bound_mask` on ``side``, or None where it
        raises; None for a lattice of more than TABLE_BITS elements. The
        AND of the cones of a mask's members is that of the mask less its
        top bit, ANDed with the top bit's cone, so the ANDs double from
        ``[full]`` one element at a time."""
        if self.size > TABLE_BITS:
            return None
        common = [self._full]
        for cone in self._cones[side]:
            common += [c & cone for c in common]
        table = []
        for c in common:
            try:
                table.append(self._bound_of_common(c, side))
            except ValueError:
                table.append(None)
        return tuple(table)

    @cached_fact
    def meet_table(self) -> Optional[tuple[Optional[int], ...]]:
        """``meet_table[mask]``: :meth:`meet_mask` for every mask of this
        lattice, None where no meet exists; the table is None itself on a
        lattice of more than TABLE_BITS elements. Built on first read."""
        return self._bound_table(0)

    @cached_fact
    def join_table(self) -> Optional[tuple[Optional[int], ...]]:
        """The dual of :attr:`meet_table`: :meth:`join_mask` per mask."""
        return self._bound_table(1)

    @cached_fact
    def up_closure_table(self) -> Optional[tuple[int, ...]]:
        """``up_closure_table[mask]``: :meth:`up_closure` for every mask of
        this lattice, by the doubling of :meth:`_bound_table`; None on a
        lattice of more than TABLE_BITS elements. Built on first read."""
        if self.size > TABLE_BITS:
            return None
        table = [0]
        for up in self.up:
            table += [m | up for m in table]
        return tuple(table)

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
        """The mask of every element above some member of ``mask``: one
        read of :attr:`up_closure_table` on a lattice that has it."""
        table = self.up_closure_table
        if table is not None:
            return table[mask]
        out = 0
        for b in bits(mask):
            out |= self.up[b]
        return out

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
                    c = low_bit(self.up[b] & ~self.up[a])
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

    def __repr__(self) -> str:
        return f"FiniteLattice(size={self.size})"


def check_table(table: Sequence[int], source: FiniteLattice, target: FiniteLattice) -> None:
    """ValueError unless ``table`` has one entry per element of ``source``;
    IndexError, naming the first stray value, unless every entry is an
    element of ``target``."""
    if len(table) != source.size:
        raise ValueError("table length must match source size")
    if table and (min(table) < 0 or max(table) >= target.size):
        v = next(v for v in table if not 0 <= v < target.size)
        raise IndexError(f"table value {v} out of range for target of size {target.size}")


def monotone_violation(table: Sequence[int], source: FiniteLattice, target: FiniteLattice) -> Optional[tuple[int, int]]:
    """First pair a <= b of ``source`` with table[a] !<= table[b] in
    ``target``, or None.

    Only the cover pairs of the source are tested: when source and target
    are partial orders, every a <= b is a chain of covers, so a table that
    preserves each cover is monotone by transitivity of the target. When a
    cover fails, or either side is not a partial order, this falls back to
    :func:`monotone_violation_dense`, so the pair returned is the first one
    of the full scan."""
    if source.is_partial_order() and target.is_partial_order():
        up = target.up
        for a, above in enumerate(source.covers()):
            fa = up[table[a]]
            for b in above:
                if not (fa >> table[b]) & 1:
                    return monotone_violation_dense(table, source, target)
        return None
    return monotone_violation_dense(table, source, target)


def monotone_violation_dense(table: Sequence[int], source: FiniteLattice, target: FiniteLattice) -> Optional[tuple]:
    """The full scan over every pair a <= b of the source: the oracle that
    :func:`monotone_violation` is cross-checked against."""
    for a in range(source.size):
        fa = target.up[table[a]]
        for b in bits(source.up[a]):
            if not (fa >> table[b]) & 1:
                return (a, b)
    return None


def preimages(table: Sequence[int], target: FiniteLattice, masks: Iterable[int]) -> list[int]:
    """Per mask of ``masks`` (sets of ``target`` elements), the mask of every
    source element that ``table`` sends into it.

    The fibres ``{a : table[a] = v}`` are built once per call, as masks
    indexed by v; each preimage then ORs the fibres of the values in its
    mask that the table takes (the bit loop of :func:`bits`, inline), so it
    costs the popcount of the mask, not the source size. An image below
    ``1 << TABLE_BITS`` reads the bit table instead."""
    fibres, image = [0] * target.size, 0
    for a, v in enumerate(table):
        fibres[v] |= 1 << a
        image |= 1 << v
    out = []
    if image < 256:
        for mask in masks:
            pre = 0
            for b in _BITS[mask & image]:
                pre |= fibres[b]
            out.append(pre)
        return out
    for mask in masks:
        pre, mask = 0, mask & image
        while mask:
            low = mask & -mask
            pre |= fibres[low.bit_length() - 1]
            mask ^= low
        out.append(pre)
    return out


def upper_adjoint(left: Sequence[int], source: FiniteLattice, target: FiniteLattice) -> tuple[int, ...]:
    """The table of the upper adjoint of a join-preserving ``left``:
    ``source`` -> ``target``, the ``right`` with left(A) <= B iff
    A <= right(B): right(B) = join of every A with left(A) <= B, that is,
    of the preimage of ``down[B]`` (:func:`preimages`,
    :meth:`FiniteLattice.join_mask`)."""
    return tuple(map(source.join_mask, preimages(left, target, target.down)))


def lower_adjoint(right: Sequence[int], source: FiniteLattice, target: FiniteLattice) -> tuple[int, ...]:
    """The table of the lower adjoint of a meet-preserving ``right``:
    ``source`` -> ``target``. The B with A <= right(B) are the up-set of
    left(A), so the preimage of ``up[A]`` (:func:`preimages`) is the ``up``
    mask of left(A), one lookup in the cone index. A preimage that is no
    element's up-set means ``right`` has no lower adjoint: ValueError,
    naming that A."""
    table = tuple(map(source._cone_index()[1].get, preimages(right, target, target.up)))
    if None in table:
        a = table.index(None)
        raise ValueError(f"no least B with element {a} <= right(B); not a right adjoint")
    return table

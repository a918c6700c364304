"""Finite groups as Cayley tables, subgroup lattices, homomorphism
enumeration, and the subgroup form with its normal-interval order.

Subgroups are bit vectors over element indices; element 0 is always the
identity. Push along a homomorphism is the image subgroup, pull the
preimage.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple, Sequence

from .forms import FormInstance
from .lattice import FiniteLattice, bits, cached_fact, lower_adjoint
from .report import Report
from .setmaps import SetFunction, concrete_category, distinct_names
from .topogenous import TopogenousOrder

MAX_GROUP_ORDER = 24
MAX_HOM_ORDER = 12


class FiniteGroup:
    def __init__(self, cayley: Sequence[Sequence[int]], name: str = "G"):
        n = len(cayley)
        self.n = n
        self.name = name
        self.table = tuple(tuple(row) for row in cayley)
        for row in self.table:
            if len(row) != n or any(not 0 <= v < n for v in row):
                raise ValueError("cayley table must be square over 0..n-1")
        self.inverse = tuple(self._find_inverse(a) for a in range(n))

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    @cached_fact
    def _subgroups(self) -> tuple[int, ...]:
        """All subgroups as bit vectors, sorted by (order, mask)."""
        found = {1}
        frontier = [1]
        while frontier:
            h = frontier.pop()
            for a in range(self.n):
                if (h >> a) & 1:
                    continue
                bigger = close_subset(self, h | (1 << a))
                if bigger not in found:
                    found.add(bigger)
                    frontier.append(bigger)
        return tuple(sorted(found, key=lambda m: (m.bit_count(), m)))

    @cached_fact
    def _normals(self) -> tuple[int, ...]:
        """The normal subgroups in :attr:`_subgroups` order."""
        return tuple(m for m in subgroup_masks(self) if is_normal(self, m))

    def _find_inverse(self, a: int) -> int:
        for b in range(self.n):
            if self.table[a][b] == 0 and self.table[b][a] == 0:
                return b
        raise ValueError(f"element {a} has no inverse; not a group")

    def verify(self) -> Report:
        """Associativity, identity at index 0, two-sided inverses."""
        rep = Report()
        n = self.n
        t = self.table
        rep.count("identity", 2 * n)
        for a in range(n):
            if t[0][a] != a or t[a][0] != a:
                rep.add("identity", where=self.name, witness=(a,))
        for a in range(n):
            for b in range(n):
                ab, ta, tb = t[t[a][b]], t[a], t[b]
                for c in range(n):
                    if ab[c] != ta[tb[c]]:
                        rep.count("associative", c + 1)
                        rep.add("associative", where=self.name, witness=(a, b, c))
                        return rep
                rep.count("associative", n)
        return rep

    def conjugate(self, g: int, a: int) -> int:
        return self.op(self.op(g, a), self.inverse[g])

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.n})"


def cyclic(n: int) -> FiniteGroup:
    return FiniteGroup([[(a + b) % n for b in range(n)] for a in range(n)], f"Z{n}")


def _perm_group(generators: Sequence[tuple[int, ...]], name: str) -> FiniteGroup:
    """The group of permutations the generators generate, its elements in
    sorted order (the identity first) and p·q the permutation p after q."""
    identity = tuple(range(len(generators[0])))
    elems = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for g in generators:
            q = tuple(g[i] for i in p)
            if q not in elems:
                elems.add(q)
                frontier.append(q)
    perms = sorted(elems)
    idx = {p: i for i, p in enumerate(perms)}
    return FiniteGroup([[idx[tuple(p[i] for i in q)] for q in perms] for p in perms], name)


def klein_four() -> FiniteGroup:
    # the translations of Z2 x Z2, element 2a + b
    return _perm_group([(1, 0, 3, 2), (2, 3, 0, 1)], "V4")


def symmetric3() -> FiniteGroup:
    return _perm_group([(1, 0, 2), (1, 2, 0)], "S3")


def dihedral4() -> FiniteGroup:
    # the rotation and a reflection of the square, on its corners
    return _perm_group([(1, 2, 3, 0), (0, 3, 2, 1)], "D4")


def quaternion8() -> FiniteGroup:
    # left multiplication by i and by j on 1, -1, i, -i, j, -j, k, -k
    return _perm_group([(2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)], "Q8")


def standard_corpus(max_order: int = 8) -> list[FiniteGroup]:
    """The built-in corpus up to max_order: cyclics Z1..Z8, and V4, S3, D4,
    Q8 as permutation groups generated by two permutations."""
    groups = [cyclic(n) for n in range(1, 9)]
    groups += [klein_four(), symmetric3(), dihedral4(), quaternion8()]
    return [g for g in groups if g.n <= max_order]


# -- subgroups ----------------------------------------------------------------


def close_subset(g: FiniteGroup, mask: int) -> int:
    """Smallest subgroup containing the masked elements."""
    mask |= 1  # identity
    while True:
        new = mask
        for a in bits(mask):
            new |= 1 << g.inverse[a]
            for b in bits(mask):
                new |= 1 << g.op(a, b)
        if new == mask:
            return mask
        mask = new


def subgroup_masks(g: FiniteGroup) -> list[int]:
    """All subgroups as bit vectors, sorted by (order, mask); computed once
    per group."""
    if g.n > MAX_GROUP_ORDER:
        raise ValueError(f"group order {g.n} exceeds the cap of {MAX_GROUP_ORDER}")
    return list(g._subgroups)


def is_subgroup(g: FiniteGroup, mask: int) -> bool:
    if not mask & 1:
        return False
    for a in bits(mask):
        if not (mask >> g.inverse[a]) & 1:
            return False
        for b in bits(mask):
            if not (mask >> g.op(a, b)) & 1:
                return False
    return True


def is_normal(g: FiniteGroup, mask: int) -> bool:
    return all(
        (mask >> g.conjugate(x, a)) & 1
        for x in range(g.n)
        for a in bits(mask)
    )


def normal_subgroup_masks(g: FiniteGroup) -> list[int]:
    """The normal subgroups in :func:`subgroup_masks` order; computed once
    per group."""
    return list(g._normals)


def subgroup_lattice(g: FiniteGroup) -> tuple[FiniteLattice, list[int]]:
    """Subgroups under inclusion; meet is intersection, join the generated
    subgroup (both realized by the generic lattice bounds)."""
    masks = subgroup_masks(g)
    up = [sum(1 << j for j, m2 in enumerate(masks) if m1 & ~m2 == 0) for m1 in masks]
    labels = ["{" + ",".join(map(str, bits(m))) + "}" for m in masks]
    return FiniteLattice(up, labels), masks


def normal_closure(g: FiniteGroup, mask: int) -> int:
    """Smallest normal subgroup containing the masked elements: the closure
    of all conjugates. Cross-checked in tests against the meet of normal
    subgroups above, and against the order-derived closure."""
    conjugates = 0
    for x in range(g.n):
        for a in bits(mask):
            conjugates |= 1 << g.conjugate(x, a)
    return close_subset(g, conjugates)


# -- homomorphisms ------------------------------------------------------------


class GroupHom(NamedTuple):
    source: FiniteGroup
    target: FiniteGroup
    table: tuple[int, ...]

    # SetFunction's value-table methods read only table and cod_size
    @property
    def cod_size(self) -> int:
        return self.target.n

    __call__ = SetFunction.__call__
    image_mask = SetFunction.image_mask
    preimage_mask = SetFunction.preimage_mask
    is_surjective = SetFunction.is_surjective

    def is_hom(self) -> bool:
        return all(
            self.table[self.source.op(a, b)] == self.target.op(self.table[a], self.table[b])
            for a in range(self.source.n)
            for b in range(self.source.n)
        )


def generating_sequence(g: FiniteGroup) -> list[int]:
    gens: list[int] = []
    span = 1
    for a in range(g.n):
        if not (span >> a) & 1:
            gens.append(a)
            span = close_subset(g, span | (1 << a))
    return gens


def _words(g: FiniteGroup, gens: list[int]) -> list[tuple[int, int, int]]:
    """Breadth-first from the identity by right multiplication: one
    (element, parent element, generator index) per non-identity element,
    every parent listed before its children."""
    seen = [True] + [False] * (g.n - 1)
    steps = []
    frontier = [0]
    while frontier:
        x = frontier.pop(0)
        for k, gen in enumerate(gens):
            y = g.op(x, gen)
            if not seen[y]:
                seen[y] = True
                steps.append((y, x, k))
                frontier.append(y)
    if len(steps) != g.n - 1:
        raise ValueError("generators do not span the group")
    return steps


def enumerate_homs(g: FiniteGroup, h: FiniteGroup) -> list[GroupHom]:
    """All homomorphisms between groups within the cap, sorted by table,
    found by assigning generator images.

    Each assignment of images to :func:`generating_sequence` extends along
    the words of :func:`_words` to one table t with t[0] = 0 and
    t[x·s] = t[x]·t[s] whenever x·s was reached from x by s. The law is then
    checked for every other x and generator s; it is enough: with
    y = s1⋯sk, t[x·y] = t[x]·t[s1]⋯t[sk] and t[y] = t[s1]⋯t[sk], so t is a
    homomorphism. Distinct assignments give distinct tables.
    ``enumerate_homs_bruteforce`` in ``tests/oracles.py`` is its test
    oracle."""
    if g.n > MAX_HOM_ORDER or h.n > MAX_HOM_ORDER:
        raise ValueError(f"hom enumeration capped at order {MAX_HOM_ORDER}")
    gens = generating_sequence(g)
    steps = _words(g, gens)
    tree = {(x, k) for _, x, k in steps}
    gt, ht = g.table, h.table
    checks = [
        (x, gt[x][s], k)
        for x in range(g.n)
        for k, s in enumerate(gens)
        if (x, k) not in tree
    ]
    homs = []
    for images in product(range(h.n), repeat=len(gens)):
        table = [0] * g.n
        for x, px, k in steps:
            table[x] = ht[table[px]][images[k]]
        if all(table[xs] == ht[table[x]][images[k]] for x, xs, k in checks):
            homs.append(GroupHom(g, h, tuple(table)))
    homs.sort(key=lambda m: m.table)
    return homs


def preserves_normals(h: GroupHom) -> bool:
    """Images of normal subgroups of the source are normal in the target.

    An image of a subgroup is a subgroup, so it is normal iff it is among
    the target's normal subgroups (memoised per group); :func:`is_normal`'s
    conjugation scan is the oracle this is tested against."""
    normals = set(normal_subgroup_masks(h.target))
    return all(h.image_mask(m) in normals for m in normal_subgroup_masks(h.source))


# -- the subgroup form --------------------------------------------------------


class SubgroupForm:
    """The subgroup form and its tables: ``groups``, ``masks`` (the
    subgroups in fibre order) and ``index`` (a subgroup's mask to its fibre
    element) by object number, ``homs`` by morphism number."""

    def __init__(
        self,
        form: FormInstance,
        groups: list[FiniteGroup],
        masks: list[list[int]],
        index: list[dict[int, int]],
        homs: list[GroupHom],
    ):
        self.form, self.groups, self.masks, self.index, self.homs = form, groups, masks, index, homs

    def element(self, obj: int, mask: int) -> int:
        return self.index[obj][mask]


def build_grp_form(groups: Sequence[FiniteGroup]) -> SubgroupForm:
    """Objects are the given groups, hom-sets all homomorphisms, fibres the
    subgroup lattices, pull the preimage and push the image: the lower
    adjoint of pull (:func:`formkit.lattice.lower_adjoint`). ``image_mask``
    computes the same entries one subgroup at a time and is the oracle the
    push tables are tested against."""
    groups = list(groups)
    lattices = [subgroup_lattice(g) for g in groups]
    fibres, masks = [lat for lat, _ in lattices], [ms for _, ms in lattices]
    index = [{m: i for i, m in enumerate(ms)} for ms in masks]
    carriers = dict(zip(distinct_names([g.name for g in groups]), (g.n for g in groups)))
    base, homs = concrete_category(carriers, lambda x, y: enumerate_homs(groups[x], groups[y]))
    pull = [
        tuple(index[x][hom.preimage_mask(m)] for m in masks[y])
        for hom, x, y in zip(homs, base.source, base.target)
    ]
    push = [lower_adjoint(t, fibres[y], fibres[x]) for t, x, y in zip(pull, base.source, base.target)]
    form = FormInstance(base, fibres, push, pull)
    return SubgroupForm(form, groups, masks, index, homs)


def normal_interval_relation(g: FiniteGroup) -> list[int]:
    """Row a has bit b set when some normal subgroup sits between subgroup a
    and subgroup b (inclusion-wise)."""
    masks = subgroup_masks(g)
    normals = normal_subgroup_masks(g)
    rows = []
    for ma in masks:
        row = 0
        for j, mb in enumerate(masks):
            if any(ma & ~n == 0 and n & ~mb == 0 for n in normals):
                row |= 1 << j
        rows.append(row)
    return rows


def normal_interval_order(sf: SubgroupForm) -> TopogenousOrder:
    return TopogenousOrder(map(normal_interval_relation, sf.groups))

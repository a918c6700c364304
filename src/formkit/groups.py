"""Finite groups as Cayley tables, subgroup lattices, homomorphism
enumeration, and the subgroup form with its normal-interval order.

Subgroups are bit vectors over element indices; element 0 is always the
identity. Push along a homomorphism is the image subgroup, pull the
preimage.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from .forms import CategoryPresentation, FormInstance
from .lattice import FiniteLattice, MonotoneMap, bits
from .report import Report
from .topogenous import TopogenousOrder

MAX_GROUP_ORDER = 24
MAX_HOM_ORDER = 12
BRUTE_FORCE_ORDER = 6


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
        self._subgroups: Optional[tuple[int, ...]] = None
        self._normals: Optional[tuple[int, ...]] = None

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

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


def klein_four() -> FiniteGroup:
    # pairs over Z2 x Z2, index = 2*a + b
    def op(x, y):
        return 2 * ((x // 2) ^ (y // 2)) + ((x % 2) ^ (y % 2))

    return FiniteGroup([[op(a, b) for b in range(4)] for a in range(4)], "V4")


def _perm_group(perms: list[tuple[int, ...]], name: str) -> FiniteGroup:
    perms = sorted(set(perms))
    idx = {p: i for i, p in enumerate(perms)}
    table = [
        [idx[tuple(p[q[i]] for i in range(len(q)))] for q in perms]
        for p in perms
    ]
    return FiniteGroup(table, name)


def symmetric3() -> FiniteGroup:
    from itertools import permutations

    return _perm_group([tuple(p) for p in permutations(range(3))], "S3")


def dihedral4() -> FiniteGroup:
    # symmetries of the square as permutations of its corners
    r = (1, 2, 3, 0)
    s = (0, 3, 2, 1)
    elems = {(0, 1, 2, 3)}
    frontier = [(0, 1, 2, 3)]
    while frontier:
        p = frontier.pop()
        for g in (r, s):
            q = tuple(g[p[i]] for i in range(4))
            if q not in elems:
                elems.add(q)
                frontier.append(q)
    return _perm_group(list(elems), "D4")


def quaternion8() -> FiniteGroup:
    # elements 1,-1,i,-i,j,-j,k,-k encoded as (unit, sign) with unit in 1,i,j,k
    units = "1ijk"
    mul = {
        ("1", "1"): ("1", 1), ("1", "i"): ("i", 1), ("1", "j"): ("j", 1), ("1", "k"): ("k", 1),
        ("i", "1"): ("i", 1), ("j", "1"): ("j", 1), ("k", "1"): ("k", 1),
        ("i", "i"): ("1", -1), ("j", "j"): ("1", -1), ("k", "k"): ("1", -1),
        ("i", "j"): ("k", 1), ("j", "k"): ("i", 1), ("k", "i"): ("j", 1),
        ("j", "i"): ("k", -1), ("k", "j"): ("i", -1), ("i", "k"): ("j", -1),
    }

    def idx(unit: str, sign: int) -> int:
        return 2 * units.index(unit) + (0 if sign == 1 else 1)

    def op(a: int, b: int) -> int:
        ua, sa = units[a // 2], 1 if a % 2 == 0 else -1
        ub, sb = units[b // 2], 1 if b % 2 == 0 else -1
        uc, sc = mul[(ua, ub)]
        return idx(uc, sa * sb * sc)

    return FiniteGroup([[op(a, b) for b in range(8)] for a in range(8)], "Q8")


def standard_corpus(max_order: int = 8) -> list[FiniteGroup]:
    """The built-in corpus: cyclics Z1..Z8, V4, S3, D4, Q8 up to max_order."""
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
    if g._subgroups is None:
        g._subgroups = _find_subgroups(g)
    return list(g._subgroups)


def _find_subgroups(g: FiniteGroup) -> tuple[int, ...]:
    found = {1}
    frontier = [1]
    while frontier:
        h = frontier.pop()
        for a in range(g.n):
            if (h >> a) & 1:
                continue
            bigger = close_subset(g, h | (1 << a))
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return tuple(sorted(found, key=lambda m: (m.bit_count(), m)))


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
    if g._normals is None:
        g._normals = tuple(m for m in subgroup_masks(g) if is_normal(g, m))
    return list(g._normals)


def subgroup_lattice(g: FiniteGroup) -> tuple[FiniteLattice, list[int]]:
    """Subgroups under inclusion; meet is intersection, join the generated
    subgroup (both realized by the generic lattice bounds)."""
    masks = subgroup_masks(g)
    rows = [[m1 & ~m2 == 0 for m2 in masks] for m1 in masks]
    labels = ["{" + ",".join(map(str, bits(m))) + "}" for m in masks]
    return FiniteLattice(rows, labels), masks


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


@dataclass(frozen=True)
class GroupHom:
    source: FiniteGroup
    target: FiniteGroup
    table: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.table[a]

    def is_hom(self) -> bool:
        return all(
            self.table[self.source.op(a, b)] == self.target.op(self.table[a], self.table[b])
            for a in range(self.source.n)
            for b in range(self.source.n)
        )

    def image_mask(self, mask: int) -> int:
        out = 0
        for a in bits(mask):
            out |= 1 << self.table[a]
        return out

    def preimage_mask(self, mask: int) -> int:
        out = 0
        for a, v in enumerate(self.table):
            if (mask >> v) & 1:
                out |= 1 << a
        return out

    def is_surjective(self) -> bool:
        return len(set(self.table)) == self.target.n


def image_subgroup(h: GroupHom, mask: int) -> int:
    """h of a subgroup is a subgroup; no closing needed."""
    return h.image_mask(mask)


def preimage_subgroup(h: GroupHom, mask: int) -> int:
    return h.preimage_mask(mask)


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


def enumerate_homs_generators(g: FiniteGroup, h: FiniteGroup) -> list[GroupHom]:
    """All homomorphisms, found by assigning generator images.

    Each assignment of images to :func:`generating_sequence` extends along
    the words of :func:`_words` to one table t with t[0] = 0 and
    t[x·s] = t[x]·t[s] whenever x·s was reached from x by s. The law is then
    checked for every other x and generator s; it is enough: with
    y = s1⋯sk, t[x·y] = t[x]·t[s1]⋯t[sk] and t[y] = t[s1]⋯t[sk], so t is a
    homomorphism. Distinct assignments give distinct tables."""
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


def enumerate_homs_bruteforce(g: FiniteGroup, h: FiniteGroup) -> list[GroupHom]:
    """Filter all value tables with the identity pinned: the independent
    oracle :func:`enumerate_homs_generators` is tested against on sources
    of order at most BRUTE_FORCE_ORDER."""
    if g.n > BRUTE_FORCE_ORDER:
        raise ValueError(f"brute force capped at source order {BRUTE_FORCE_ORDER}")
    homs = []
    for rest in product(range(h.n), repeat=g.n - 1):
        table = (0,) + rest
        ok = True
        for a in range(g.n):
            for b in range(g.n):
                if table[g.op(a, b)] != h.op(table[a], table[b]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            homs.append(GroupHom(g, h, table))
    homs.sort(key=lambda m: m.table)
    return homs


def enumerate_homs(g: FiniteGroup, h: FiniteGroup) -> list[GroupHom]:
    """All homomorphisms between groups within the cap, sorted by table.

    Every source goes through :func:`enumerate_homs_generators`;
    :func:`enumerate_homs_bruteforce` is kept as its test oracle."""
    if g.n > MAX_HOM_ORDER or h.n > MAX_HOM_ORDER:
        raise ValueError(f"hom enumeration capped at order {MAX_HOM_ORDER}")
    return enumerate_homs_generators(g, h)


def preserves_normals(h: GroupHom) -> bool:
    """Images of normal subgroups of the source are normal in the target."""
    return all(
        is_normal(h.target, h.image_mask(m))
        for m in normal_subgroup_masks(h.source)
    )


# -- the subgroup form --------------------------------------------------------


@dataclass
class SubgroupForm:
    form: FormInstance
    groups: dict[str, FiniteGroup]
    masks: dict[str, list[int]]
    index: dict[str, dict[int, int]]
    homs: dict[str, GroupHom]

    def element(self, obj: str, mask: int) -> int:
        return self.index[obj][mask]


def build_grp_form(groups: Sequence[FiniteGroup]) -> SubgroupForm:
    """Objects are the given groups, hom-sets all homomorphisms, fibres the
    subgroup lattices, push the image and pull the preimage."""
    names = []
    seen: dict[str, int] = {}
    for g in groups:
        k = seen.get(g.name, 0)
        seen[g.name] = k + 1
        names.append(g.name if k == 0 else f"{g.name}_{k}")
    by_name = dict(zip(names, groups))

    fibres = {}
    masks = {}
    index = {}
    for x, g in by_name.items():
        fibres[x], masks[x] = subgroup_lattice(g)
        index[x] = {m: i for i, m in enumerate(masks[x])}

    homs: dict[tuple[str, str], list[str]] = {}
    hom_of: dict[str, GroupHom] = {}
    by_key: dict[tuple[str, str, tuple[int, ...]], str] = {}
    for x in names:
        for y in names:
            ms = []
            for hom in enumerate_homs(by_name[x], by_name[y]):
                name = f"{x}->{y}:" + ".".join(map(str, hom.table))
                ms.append(name)
                hom_of[name] = hom
                by_key[(x, y, hom.table)] = name
            homs[(x, y)] = ms

    compose: dict[tuple[str, str], str] = {}
    for x in names:
        for y in names:
            for f in homs[(x, y)]:
                tf = hom_of[f].table
                for z in names:
                    for g2 in homs[(y, z)]:
                        tg = hom_of[g2].table
                        compose[(g2, f)] = by_key[(x, z, tuple(tg[v] for v in tf))]
    identities = {x: by_key[(x, x, tuple(range(by_name[x].n)))] for x in names}
    base = CategoryPresentation(names, homs, compose, identities)

    push = {}
    pull = {}
    for f in base.morphisms():
        hom = hom_of[f]
        x, y = base.dom[f], base.cod[f]
        push[f] = MonotoneMap(
            fibres[x], fibres[y],
            [index[y][hom.image_mask(m)] for m in masks[x]],
        )
        pull[f] = MonotoneMap(
            fibres[y], fibres[x],
            [index[x][hom.preimage_mask(m)] for m in masks[y]],
        )
    form = FormInstance(base, fibres, push, pull)
    return SubgroupForm(form, by_name, masks, index, hom_of)


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
    return TopogenousOrder(
        {x: normal_interval_relation(g) for x, g in sf.groups.items()}
    )

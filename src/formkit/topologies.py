"""Finite topologies, initial/final transfer, theta- and b-topologies, and
the two topogenous orders they induce on the forgetful form over finite sets.

Open sets are int bitmasks over the carrier {0..n-1} (bit i = point i).
The fibre order is reverse inclusion of open families: T <= T' iff the
identity carrier map is continuous from T (finer) to T' (coarser), so the
discrete topology is the fibre bottom and the indiscrete one the top.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat
from operator import and_, or_
from typing import Sequence

from .forms import FormInstance
from .lattice import FiniteLattice, bits
from .report import InputError, Record
from .setmaps import SetFunction, function_category
from .topogenous import TopogenousOrder

MAX_POINTS = 4


class FiniteTopology(Record):
    __slots__ = ("n", "opens")

    def __init__(self, n: int, opens: frozenset[int]):
        self.n, self.opens = n, opens
        full = (1 << self.n) - 1
        for o in self.opens:
            if o & ~full:
                raise ValueError("open set outside the carrier")
        if 0 not in self.opens or full not in self.opens:
            raise ValueError("a topology contains the empty and full sets")

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def closed_sets(self) -> frozenset[int]:
        return frozenset(self.full ^ o for o in self.opens)

    def key(self) -> tuple[int, ...]:
        """Canonical identity: opens sorted numerically."""
        return tuple(sorted(self.opens))

    def __repr__(self) -> str:
        return f"FiniteTopology(n={self.n}, opens={sorted(self.opens)})"


def is_topology_family(n: int, opens: frozenset[int]) -> bool:
    full = (1 << n) - 1
    if 0 not in opens or full not in opens:
        return False
    for a in opens:
        for b in opens:
            if a & b not in opens or a | b not in opens:
                return False
    return True


def discrete(n: int) -> FiniteTopology:
    return FiniteTopology(n, frozenset(range(1 << n)))


def indiscrete(n: int) -> FiniteTopology:
    return FiniteTopology(n, frozenset({0, (1 << n) - 1}))


def _preorders(n: int) -> list[tuple[tuple[int, ...], list[int]]]:
    """Every preorder on {0..n-1}, unsorted, as its successor masks
    (``succ[i]`` the set of j with i <= j) with its up-sets.

    Point k joins each preorder on the points below it with an up-set U
    above it and a down-set D below it, where every point of D already lies
    below all of U (so that i <= k <= u is transitive). Each preorder on
    k + 1 points arises from exactly one such (preorder, U, D). A set stays
    an up-set without k when it misses D, and with k when it holds U."""
    found: list[tuple[tuple[int, ...], list[int]]] = [((), [0])]
    for k in range(n):
        bit, full = 1 << k, (1 << k) - 1
        grown = []
        for succ, opens in found:
            for up in opens:
                under = sum(1 << i for i, s in enumerate(succ) if not up & ~s)
                for down in (full ^ o for o in opens):
                    if down & ~under:
                        continue
                    grown.append((
                        tuple(s | bit if (down >> i) & 1 else s for i, s in enumerate(succ)) + (bit | up,),
                        [o for o in opens if not o & down] + [o | bit for o in opens if not up & ~o],
                    ))
        found = grown
    return found


def _specializations(n: int) -> tuple[list[FiniteTopology], list[tuple[int, ...]]]:
    """The topologies on {0..n-1}, sorted by their canonical key, and the
    successor masks of each one's specialization preorder.

    A finite topology is the family of up-sets of its specialization
    preorder, x <= y iff every open set holding x holds y (Alexandroff,
    1937), so the topologies and the preorders of the carrier correspond
    one to one."""
    if not 0 <= n <= MAX_POINTS:
        raise InputError(f"carrier size must be between 0 and {MAX_POINTS}, got {n}")
    found = sorted((sorted(opens), succ) for succ, opens in _preorders(n))
    return [FiniteTopology(n, frozenset(opens)) for opens, _ in found], [succ for _, succ in found]


def enumerate_topologies(n: int) -> list[FiniteTopology]:
    """All topologies on {0..n-1}, sorted by their canonical key: the
    up-set families of the preorders on the carrier. The test suite holds
    the naive filter over all subset families as an independent oracle."""
    return _specializations(n)[0]


def _fibre(n: int, tops: Sequence[FiniteTopology]) -> FiniteLattice:
    """The topologies ``tops`` on n points under reverse inclusion.

    With ``member[s]`` the mask of the topologies in which subset s is
    open, the topologies coarser than t are those open in no subset that t
    leaves out: ``up[t]`` is the complement of the OR of ``member[s]`` over
    the s not open in t. The topologies finer than t are those open in
    every subset open in t: ``down[t]`` is the AND of ``member[s]`` over the
    s open in t."""
    member = [0] * (1 << n)
    for i, t in enumerate(tops):
        bit = 1 << i
        for s in t.opens:
            member[s] |= bit
    subsets = frozenset(range(1 << n))
    up = [~reduce(or_, map(member.__getitem__, subsets - t.opens), 0) for t in tops]
    down = [reduce(and_, map(member.__getitem__, t.opens)) for t in tops]
    labels = ["{" + ",".join(map(str, t.key())) + "}" for t in tops]
    return FiniteLattice(up, labels, down)


def topology_fibre(n: int) -> tuple[FiniteLattice, list[FiniteTopology]]:
    """The lattice of all topologies on n points under reverse inclusion."""
    tops = enumerate_topologies(n)
    return _fibre(n, tops), tops


def _neighbourhood_topology(t: FiniteTopology, pairs) -> FiniteTopology:
    """The sets A in which every point x has a pair (p, q) among ``pairs``
    with x in p and q inside A.

    The theta- and b-topologies are this rule with their own pairs. The
    family is closed under unions, and under intersections because both
    pair sets are closed under pointwise intersection: a topology."""
    pairs = set(pairs)
    return FiniteTopology(t.n, frozenset(
        a for a in range(1 << t.n)
        if all(any((p >> x) & 1 and not q & ~a for p, q in pairs) for x in bits(a))
    ))


def theta_topology(t: FiniteTopology) -> FiniteTopology:
    """Sets in which every point has a closed neighbourhood inside the set.

    A is kept iff each x in A admits open O and closed U with
    x in O, O within U, U within A: the pairs (O, U). It is always coarser
    than t.
    """
    closed = t.closed_sets()
    return _neighbourhood_topology(t, ((o, u) for o in t.opens for u in closed if not o & ~u))


def b_topology(t: FiniteTopology) -> FiniteTopology:
    """Sets in which every point has a locally closed neighbourhood inside
    the set: x in O & F within A with O open and F closed, the pairs
    (O & F, O & F). Always finer than t."""
    closed = t.closed_sets()
    return _neighbourhood_topology(t, ((o & f, o & f) for o in t.opens for f in closed))


def clopen_targets(f: SetFunction, t_doms: Sequence[FiniteTopology], t_cods: Sequence[FiniteTopology]) -> list[int]:
    """Per domain topology, the mask of the codomain topologies (by list
    index) for which f is a clopen map.

    f is clopen for (t, t') when t' has every image of an open of t among
    its opens and every image of a closed set among its closed sets. With
    ``open_in[s]`` the mask of the codomain topologies where subset s is
    open (``closed_in`` likewise), that is the AND of ``open_in`` over the
    images of the opens of t and of ``closed_in`` over the images of its
    closed sets: one AND per image, not one test per pair.
    ``is_clopen_map`` in ``tests/oracles.py`` decides one pair at a time
    and is the oracle."""
    if any(t.n != f.dom_size for t in t_doms) or any(t.n != f.cod_size for t in t_cods):
        raise ValueError("carrier sizes do not match")
    image = [f.image_mask(s) for s in range(1 << f.dom_size)]
    open_in = [0] * (1 << f.cod_size)
    closed_in = [0] * (1 << f.cod_size)
    for j, t in enumerate(t_cods):
        for s in t.opens:
            open_in[s] |= 1 << j
        for s in t.closed_sets():
            closed_in[s] |= 1 << j
    out = []
    for t in t_doms:
        m = (1 << len(t_cods)) - 1
        for s in {image[o] for o in t.opens}:
            m &= open_in[s]
        for s in {image[c] for c in t.closed_sets()}:
            m &= closed_in[s]
        out.append(m)
    return out


class TopForm:
    """The forgetful form over chosen finite carriers: fibres are topology
    lattices, push is the final topology, pull the initial one. ``sizes``,
    ``topologies`` (in fibre order) and ``index`` (a topology's key to its
    fibre element) are by object number, ``functions`` by morphism
    number."""

    def __init__(
        self,
        form: FormInstance,
        sizes: list[int],
        topologies: list[list[FiniteTopology]],
        index: list[dict[tuple[int, ...], int]],
        functions: list[SetFunction],
    ):
        self.form, self.sizes, self.topologies, self.index, self.functions = form, sizes, topologies, index, functions

    def element(self, obj: int, t: FiniteTopology) -> int:
        return self.index[obj][t.key()]


def build_top_form(sizes: Sequence[int]) -> TopForm:
    """The forgetful form over finite sets of the given sizes (each at most
    MAX_POINTS), with the topology lattice as each fibre.

    Transfer tables are filled a whole topology at a time with
    ``bytes.translate``. Each set function gives its value table f and its
    preimage table, ``pre[v] = f.preimage_mask(v)``, both as bytes.
    - Push (the final topology) keeps v iff pre[v] is open. With the flag
      table of t (b"1" at byte s when subset s is open in t, b"0"
      otherwise), ``pre.translate(flags of t)`` is the flag word of the
      final topology, looked up among the codomain's flag words.
    - Pull (the initial topology) is the Alexandrov topology of the
      pulled-back preorder, x <= x' iff f(x) <= f(x'). Its successor masks
      are ``pre[succ[f(x)]]``: f translated through the successor masks of
      t, then through ``pre``, looked up among the domain's preorders.

    ``final_topology`` and ``initial_topology`` in ``tests/oracles.py``
    compute the same entries one topology at a time and are the oracle the
    tables are tested against."""
    for n in sizes:
        if n > MAX_POINTS:
            raise InputError(f"carrier size {n} exceeds the cap of {MAX_POINTS}")
    base, functions = function_category(sizes)
    # by object number
    fibres: list[FiniteLattice] = []
    tops: list[list[FiniteTopology]] = []
    index: list[dict[tuple[int, ...], int]] = []
    flags: list[list[bytes]] = []  # [t]: the flag table of t, 256 bytes
    by_flags: list[dict[bytes, int]] = []  # flag word over the subsets -> element
    succ: list[list[bytes]] = []  # [t]: the successor masks of t, 256 bytes
    by_succ: list[dict[bytes, int]] = []  # successor masks -> element
    for n in sizes:
        topologies, preorders = _specializations(n)
        tops.append(topologies)
        fibres.append(_fibre(n, topologies))
        index.append({t.key(): i for i, t in enumerate(topologies)})
        succ.append([bytes(p).ljust(256, b"\0") for p in preorders])
        by_succ.append({bytes(p): i for i, p in enumerate(preorders)})
        words = []
        for t in topologies:
            table = bytearray(b"0" * 256)
            for s in t.opens:
                table[s] = ord("1")
            words.append(bytes(table))
        flags.append(words)
        by_flags.append({table[: 1 << n]: i for i, table in enumerate(words)})
    push = []
    pull = []
    for fn, x, y in zip(functions, base.source, base.target):
        points = [0] * fn.cod_size  # [v]: the preimage of point v
        for i, v in enumerate(fn.table):
            points[v] |= 1 << i
        masks = [0]  # [s]: the preimage of subset s, doubled at each point
        for point in points:
            masks += [m | point for m in masks]
        pre = bytes(masks)
        pad = pre.ljust(256, b"\0")
        push.append(tuple(map(by_flags[y].__getitem__, map(pre.translate, flags[x]))))
        pull.append(tuple(
            map(by_succ[x].__getitem__, map(bytes.translate, map(bytes(fn.table).translate, succ[y]), repeat(pad)))
        ))
    form = FormInstance(base, fibres, push, pull)
    return TopForm(form, list(sizes), tops, index, functions)


def theta_relation(tops: Sequence[FiniteTopology]) -> list[int]:
    """Bitmask rows of the theta order on the fibre of the topologies
    ``tops``, in :func:`enumerate_topologies` order: T related to T' iff T'
    is contained in theta(T)."""
    theta = [theta_topology(t).opens for t in tops]
    return [
        sum(1 << j for j, t2 in enumerate(tops) if t2.opens <= theta[i])
        for i in range(len(tops))
    ]


def b_relation(tops: Sequence[FiniteTopology]) -> list[int]:
    """Bitmask rows of the b order on the fibre of the topologies ``tops``,
    in :func:`enumerate_topologies` order: T related to T' iff b(T') is
    contained in T."""
    bt = [b_topology(t).opens for t in tops]
    return [
        sum(1 << j for j in range(len(tops)) if bt[j] <= tops[i].opens)
        for i in range(len(tops))
    ]


def theta_order(tf: TopForm) -> TopogenousOrder:
    return TopogenousOrder(map(theta_relation, tf.topologies))


def b_order(tf: TopForm) -> TopogenousOrder:
    return TopogenousOrder(map(b_relation, tf.topologies))

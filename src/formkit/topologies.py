"""Finite topologies, initial/final transfer, theta- and b-topologies, and
the two topogenous orders they induce on the forgetful form over finite sets.

Open sets are int bitmasks over the carrier {0..n-1} (bit i = point i).
The fibre order is reverse inclusion of open families: T <= T' iff the
identity carrier map is continuous from T (finer) to T' (coarser), so the
discrete topology is the fibre bottom and the indiscrete one the top.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from .forms import FormInstance
from .lattice import FiniteLattice, MonotoneMap
from .report import InputError
from .setmaps import SetFunction, function_category
from .topogenous import TopogenousOrder

MAX_POINTS = 4


@dataclass(frozen=True)
class FiniteTopology:
    n: int
    opens: frozenset[int]

    def __post_init__(self):
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

    def is_open(self, subset_mask: int) -> bool:
        return subset_mask in self.opens

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


def enumerate_topologies(n: int) -> list[FiniteTopology]:
    """All topologies on {0..n-1}, sorted by their canonical key.

    Walks the reflexive transitive relations on the carrier and takes each
    one's family of up-closed sets; on a finite carrier this hits every
    union/intersection-closed family exactly once. The test suite holds the
    naive filter over all subset families as an independent oracle.
    """
    if not 0 <= n <= MAX_POINTS:
        raise InputError(f"carrier size must be between 0 and {MAX_POINTS}, got {n}")
    if n == 0:
        return [FiniteTopology(0, frozenset({0}))]
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    found = []
    for pattern in range(1 << len(offdiag)):
        succ = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(offdiag):
            if (pattern >> k) & 1:
                succ[i] |= 1 << j
        if any(
            succ[j] & ~succ[i]
            for i in range(n)
            for j in range(n)
            if (succ[i] >> j) & 1
        ):
            continue  # not transitive
        opens = frozenset(
            s for s in range(1 << n)
            if all(succ[i] & ~s == 0 for i in range(n) if (s >> i) & 1)
        )
        found.append(FiniteTopology(n, opens))
    found.sort(key=FiniteTopology.key)
    return found


def topology_fibre(n: int) -> tuple[FiniteLattice, list[FiniteTopology]]:
    """The lattice of all topologies on n points under reverse inclusion."""
    tops = enumerate_topologies(n)
    rows = [[t2.opens <= t1.opens for t2 in tops] for t1 in tops]
    labels = ["{" + ",".join(map(str, sorted(t.opens))) + "}" for t in tops]
    return FiniteLattice(rows, labels), tops


def final_topology(f: SetFunction, t: FiniteTopology) -> FiniteTopology:
    """Finest topology on the codomain making f continuous: V is open iff
    its preimage is. One entry of :func:`build_top_form`'s push table,
    computed on its own: the oracle that table is tested against."""
    if f.dom_size != t.n:
        raise ValueError("function domain does not match the topology carrier")
    opens = frozenset(
        v for v in range(1 << f.cod_size) if f.preimage_mask(v) in t.opens
    )
    return FiniteTopology(f.cod_size, opens)


def initial_topology(f: SetFunction, t: FiniteTopology) -> FiniteTopology:
    """Coarsest topology on the domain making f continuous: the preimages.
    One entry of :func:`build_top_form`'s pull table, computed on its own:
    the oracle that table is tested against."""
    if f.cod_size != t.n:
        raise ValueError("function codomain does not match the topology carrier")
    return FiniteTopology(f.dom_size, frozenset(f.preimage_mask(v) for v in t.opens))


def theta_topology(t: FiniteTopology) -> FiniteTopology:
    """Sets in which every point has a closed neighbourhood inside the set.

    A is kept iff each x in A admits open O and closed U with
    x in O, O within U, U within A. The family is union- and
    intersection-closed (witnesses intersect/unite pointwise), hence a
    topology, and it is always coarser than t.
    """
    closed = t.closed_sets()
    opens = set()
    for a in range(1 << t.n):
        ok = True
        for x in range(t.n):
            if not (a >> x) & 1:
                continue
            if not any(
                (o >> x) & 1 and not (o & ~u) and not (u & ~a)
                for o in t.opens
                for u in closed
            ):
                ok = False
                break
        if ok:
            opens.add(a)
    return FiniteTopology(t.n, frozenset(opens))


def b_topology(t: FiniteTopology) -> FiniteTopology:
    """Sets in which every point has a locally closed neighbourhood inside
    the set: x in O & F within A with O open and F closed. Always finer
    than t."""
    closed = t.closed_sets()
    opens = set()
    for a in range(1 << t.n):
        ok = True
        for x in range(t.n):
            if not (a >> x) & 1:
                continue
            if not any(
                ((o & fc) >> x) & 1 and not (o & fc & ~a)
                for o in t.opens
                for fc in closed
            ):
                ok = False
                break
        if ok:
            opens.add(a)
    return FiniteTopology(t.n, frozenset(opens))


def is_clopen_map(f: SetFunction, t_dom: FiniteTopology, t_cod: FiniteTopology) -> bool:
    """Images of opens are open and images of closeds are closed."""
    if f.dom_size != t_dom.n or f.cod_size != t_cod.n:
        raise ValueError("carrier sizes do not match")
    for o in t_dom.opens:
        if f.image_mask(o) not in t_cod.opens:
            return False
    cod_closed = t_cod.closed_sets()
    for c in t_dom.closed_sets():
        if f.image_mask(c) not in cod_closed:
            return False
    return True


@dataclass
class TopForm:
    """The forgetful form over chosen finite carriers: fibres are topology
    lattices, push is the final topology, pull the initial one."""

    form: FormInstance
    sizes: dict[str, int]
    topologies: dict[str, list[FiniteTopology]]
    index: dict[str, dict[tuple[int, ...], int]]
    functions: dict[str, SetFunction]

    def element(self, obj: str, t: FiniteTopology) -> int:
        return self.index[obj][t.key()]


def build_top_form(sizes: Sequence[int]) -> TopForm:
    """The forgetful form over finite sets of the given sizes (each at most
    MAX_POINTS), with the topology lattice as each fibre.

    Transfer tables come from one preimage table per set function,
    ``pre[v] = f.preimage_mask(v)``, with each topology encoded as one int
    whose bit s is set when subset s is open: push (the final topology)
    keeps v iff pre[v] is open, pull (the initial topology) is the set of
    pre[v] over open v. :func:`final_topology` and
    :func:`initial_topology` compute the same entries one topology at a
    time and are the oracle the tables are tested against."""
    for n in sizes:
        if n > MAX_POINTS:
            raise InputError(f"carrier size {n} exceeds the cap of {MAX_POINTS}")
    base, size_of, fn_of = function_category(sizes)
    fibres: dict[str, FiniteLattice] = {}
    tops: dict[str, list[FiniteTopology]] = {}
    index: dict[str, dict[tuple[int, ...], int]] = {}
    opens: dict[str, list[tuple[int, ...]]] = {}  # [t]: the open sets of t
    codes: dict[str, dict[int, int]] = {}  # sum of 1 << s over open s -> element
    flags: dict[str, list[list[int]]] = {}  # [t][s]: 1 when subset s is open in t
    for x in base.objects:
        fibres[x], tops[x] = topology_fibre(size_of[x])
        index[x] = {t.key(): i for i, t in enumerate(tops[x])}
        opens[x] = list(index[x])
        codes[x] = {sum(1 << s for s in o): i for i, o in enumerate(opens[x])}
        flags[x] = [[(c >> s) & 1 for s in range(1 << size_of[x])] for c in codes[x]]
    push = {}
    pull = {}
    for f in base.morphisms():
        fn = fn_of[f]
        x, y = base.dom[f], base.cod[f]
        pre = [fn.preimage_mask(v) for v in range(1 << fn.cod_size)]
        bit_v = [1 << v for v in range(len(pre))]
        bit_pre = [1 << p for p in pre]  # distinct powers of two sum to their union
        push[f] = MonotoneMap(
            fibres[x], fibres[y],
            [codes[y][sum(compress(bit_v, map(fl.__getitem__, pre)))] for fl in flags[x]],
        )
        pull[f] = MonotoneMap(
            fibres[y], fibres[x],
            [codes[x][sum(set(map(bit_pre.__getitem__, o)))] for o in opens[y]],
        )
    form = FormInstance(base, fibres, push, pull)
    return TopForm(form, size_of, tops, index, fn_of)


def theta_relation(n: int) -> list[int]:
    """Bitmask rows of the theta order on the n-point fibre:
    T related to T' iff T' is contained in theta(T)."""
    tops = enumerate_topologies(n)
    theta = [theta_topology(t).opens for t in tops]
    return [
        sum(1 << j for j, t2 in enumerate(tops) if t2.opens <= theta[i])
        for i in range(len(tops))
    ]


def b_relation(n: int) -> list[int]:
    """Bitmask rows of the b order: T related to T' iff b(T') is contained
    in T."""
    tops = enumerate_topologies(n)
    bt = [b_topology(t).opens for t in tops]
    return [
        sum(1 << j for j in range(len(tops)) if bt[j] <= tops[i].opens)
        for i in range(len(tops))
    ]


def theta_order(tf: TopForm) -> TopogenousOrder:
    return TopogenousOrder({x: theta_relation(tf.sizes[x]) for x in tf.form.base.objects})


def b_order(tf: TopForm) -> TopogenousOrder:
    return TopogenousOrder({x: b_relation(tf.sizes[x]) for x in tf.form.base.objects})

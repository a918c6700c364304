"""Finite presentations of forms: a base category, one fibre lattice per
object, and Galois-connected push/pull transfer maps per morphism.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .lattice import FiniteLattice, cached_fact, check_table, monotone_violation
from .report import InputError, Report


class CorruptFormError(InputError):
    """Raised by :func:`formkit.topogenous.verify_closure` where the two
    equivalent transfer tests, push(a) <= b and a <= pull(b), disagree for
    a morphism: its push and pull tables are no adjoint pair."""


class IdentityError(ValueError):
    """An object without an identity, or an identity that is not an endomorphism of a declared object."""


class MorphismKind(NamedTuple):
    is_section: bool
    is_retraction: bool
    is_iso: bool
    inverse: Optional[int] = None  # the number of a two-sided inverse when is_iso

    def to_dict(self) -> dict:
        return {
            "is_section": self.is_section,
            "is_retraction": self.is_retraction,
            "is_iso": self.is_iso,
        }


class CategoryPresentation:
    """A finite category with its objects and morphisms numbered.

    Objects are numbered by their place in ``objects``, morphisms hom-set
    by hom-set in object order: ``names[i]`` is morphism i. Everything
    above the base keys its tables by these numbers; names are read only
    where a document is read or a report is written. The name-level
    ``ids`` (name to number), ``dom`` and ``cod`` (name to object name),
    ``homs``, ``identities`` and :attr:`compose_table` serve the document
    reader and the command line.

    ``source[i]`` and ``target[i]`` are the object numbers of morphism i's
    domain and codomain, and ``identity_of[x]`` is the number of object x's
    identity; ``by_source[x]`` and ``by_target[x]`` list the morphisms out
    of and into object x in ascending order, ``by_source[x]`` as a
    ``range`` since each hom-set is numbered consecutively, and
    ``blocks[x][y]`` is the range of hom(x, y). Composition is total, and
    held once in the flat table ``comp`` of n² entries for n morphisms:
    ``comp[g * n + f]`` is the number of g∘f, -1 only where f and g do not
    compose.

    Every object needs an identity (else :class:`IdentityError`).
    ``compose`` gives the composites: a callable ``compose(g, fs)`` on
    morphism numbers, called once per morphism g and nonempty hom-set
    ``fs`` (a range) into its domain, returning the numbers of g∘f for f in
    ``fs``; its producers (:func:`formkit.setmaps.concrete_category` and
    the search shapes) compose total tables, not walked again. Or None,
    for the form reader, which fills ``comp`` by :func:`fill_composites`
    and refuses its own undefined pairs.

    ``kinds``, when given, lists each morphism's :class:`MorphismKind` by
    number, for a builder that knows them without composing (see
    :attr:`kinds`).
    """

    def __init__(
        self,
        objects: Sequence[str],
        homs: dict[tuple[str, str], Sequence[str]],
        compose: Callable[[int, range], Sequence[int]] | None,
        identities: dict[str, str],
        kinds: Optional[Sequence[MorphismKind]] = None,
    ):
        self.objects = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate object names")
        self.homs = {pair: tuple(ms) for pair, ms in homs.items()}
        self.identities = dict(identities)
        self.dom: dict[str, str] = {}
        self.cod: dict[str, str] = {}
        for (x, y), ms in self.homs.items():
            for m in ms:
                if m in self.dom:
                    raise ValueError(f"morphism {m!r} appears in two hom-sets")
                self.dom[m] = x
                self.cod[m] = y
        for x, i in self.identities.items():
            if x not in self.objects:
                raise IdentityError(f"{x!r} is not a declared object")
            if self.dom.get(i) != x or self.cod.get(i) != x:
                raise IdentityError(f"identity of {x!r} must be an endomorphism of {x!r}")
        for x in self.objects:
            if x not in self.identities:
                raise IdentityError(f"object {x!r} has no identity")
        self.names = tuple(m for x in self.objects for y in self.objects for m in self.homs.get((x, y), ()))
        self.ids = {m: i for i, m in enumerate(self.names)}
        n = len(self.names)
        number = {x: k for k, x in enumerate(self.objects)}
        self.source = [number[self.dom[m]] for m in self.names]
        self.target = [number[self.cod[m]] for m in self.names]
        self.identity_of = [self.ids[self.identities[x]] for x in self.objects]
        self.blocks: list[list[range]] = []
        self.by_source: list[range] = []
        start = 0
        for x in self.objects:
            first = start
            row = []
            for y in self.objects:
                stop = start + len(self.homs.get((x, y), ()))
                row.append(range(start, stop))
                start = stop
            self.blocks.append(row)
            self.by_source.append(range(first, start))
        # into[y]: the range of each hom(x, y), x in object order
        into = list(zip(*self.blocks))
        self.by_target: list[list[int]] = [[f for fs in blocks for f in fs] for blocks in into]
        self.comp = comp = [-1] * (n * n)
        if compose is not None:
            for g in range(n):
                row = g * n
                for fs in filter(None, into[self.source[g]]):
                    composites = compose(g, fs)
                    if len(composites) != len(fs):
                        raise ValueError(
                            f"compose({g}, {fs}) gave {len(composites)} composites for {len(fs)} morphisms"
                        )
                    comp[row + fs.start : row + fs.stop] = composites
        if kinds is not None:
            if len(kinds) != n:
                raise ValueError(f"{len(kinds)} kinds for {n} morphisms")
            self.kinds = list(kinds)

    def after(self, f: int) -> Iterable[tuple[int, int]]:
        """(g, g∘f) by number for every g out of the codomain of f, in
        number order: one strided slice of :attr:`comp`, since the morphisms
        out of an object are numbered consecutively. Walks of the composable
        pairs read ``comp`` only through here and :meth:`before`, so its
        layout stays inside this module."""
        n, gs = len(self.names), self.by_source[self.target[f]]
        return enumerate(self.comp[gs.start * n + f : gs.stop * n + f : n], gs.start)

    def before(self, g: int) -> list[int]:
        """g∘f by number for every morphism f, indexed by f (-1 where f
        is not into the domain of g): one contiguous slice of :attr:`comp`,
        a copy."""
        n = len(self.names)
        return self.comp[g * n : g * n + n]

    @cached_fact
    def kinds(self) -> list[MorphismKind]:
        """Each morphism's section, retraction and iso status inside the
        presented hom-sets, by number: the kinds the builder gave (for the
        full categories of finite sets, read off the value tables), or else
        :meth:`scan_kinds`, computed once. Both are tested against a
        per-morphism scan by name, ``morphism_kind_dense`` in
        ``tests/oracles.py``."""
        return self.scan_kinds()

    def scan_kinds(self) -> list[MorphismKind]:
        """The kinds from the composition table: for f: x -> y the
        candidates are the morphisms of hom(y, x), composed with f by one
        lookup each. An iso's inverse is the first two-sided inverse in
        number order."""
        n, comp, identity = len(self.names), self.comp, self.identity_of
        kinds = []
        for f in range(n):
            x, y = self.source[f], self.target[f]
            back = self.blocks[y][x]
            left = [g for g in back if comp[g * n + f] == identity[x]]
            right = {g for g in back if comp[f * n + g] == identity[y]}
            two_sided = [g for g in left if g in right]
            kinds.append(MorphismKind(
                is_section=bool(left),
                is_retraction=bool(right),
                is_iso=bool(two_sided),
                inverse=two_sided[0] if two_sided else None,
            ))
        return kinds

    @property
    def compose_table(self) -> dict[tuple[str, str], str]:
        """The composites by name, ``(g, f) -> g∘f``: a view built from
        :attr:`comp` on each access, for reports and tests."""
        names = self.names
        return {(names[g], names[f]): names[h] for f in range(len(names)) for g, h in self.after(f)}

    def verify(self) -> Report:
        """Identity neutrality and associativity.

        Associativity is swept only with a generator in the middle,
        (h∘s)∘f = h∘(s∘f) for s in :attr:`generators`, h and f arbitrary:
        by Light's associativity test the morphisms m with (h∘m)∘f =
        h∘(m∘f) for all h, f include the identities (by the identity laws)
        and are closed under composition, so with every morphism a
        composite of generators the whole table is associative. This costs
        |S|·|hom|² instead of |hom|³. When the identity laws fail, or a
        generator triple fails, the dense sweep of every composable triple
        runs and reports its first witness, so violations are those of
        the all-triples sweep (``verify_dense`` in ``tests/oracles.py``);
        ``checks_run`` counts the triples actually tested, after one
        "compose-defined" per composable pair: those pairs were checked
        where the presentation was built or read. The presentation must not
        change after construction: the report is computed once and shared
        with :meth:`FormInstance.verify_laws`."""
        rep = self._report
        return Report(list(rep.violations), rep.checks_run, list(rep.notes))

    @cached_fact
    def _report(self) -> Report:
        rep = Report()
        rep.count("compose-defined", sum(len(fs) * len(gs) for fs, gs in zip(self.by_target, self.by_source)))
        names, n, comp, identity = self.names, len(self.names), self.comp, self.identity_of
        for f, (x, y) in enumerate(zip(self.source, self.target)):
            rep.count("identity-neutral", 2)
            if comp[identity[y] * n + f] != f:
                rep.add("identity-left", witness=(names[f],))
            if comp[f * n + identity[x]] != f:
                rep.add("identity-right", witness=(names[f],))
        if not (rep.ok and self._associative_at_generators(rep)):
            self._dense_associativity(rep)
        return rep

    @cached_fact
    def generators(self) -> tuple[int, ...]:
        """A generating set S, by number: every morphism is s1∘…∘sk∘id for
        some s1, …, sk in S and an identity id.

        Candidates are visited in ascending order of their number of
        factorisations g∘f through two non-identity morphisms (ties in
        number order), so hard-to-factor morphisms come first; a candidate
        joins S when the closure of the identities under left composition
        by S does not reach it yet."""
        n, comp, source, target = len(self.names), self.comp, self.source, self.target
        identities = set(self.identity_of)
        reached = [i in identities for i in range(n)]
        factorisations = [0] * n
        for fi in range(n):
            if reached[fi]:
                continue
            for gi, h in self.after(fi):
                if not reached[gi]:
                    factorisations[h] += 1
        reached_at: list[list[int]] = [[] for _ in self.objects]  # by codomain
        for i in range(n):
            if reached[i]:
                reached_at[target[i]].append(i)
        from_obj: list[list[int]] = [[] for _ in self.objects]  # generators by domain
        gens = []
        for m in sorted(range(n), key=lambda i: (factorisations[i], i)):
            if reached[m]:
                continue
            gens.append(m)
            from_obj[source[m]].append(m)
            todo = [comp[m * n + r] for r in reached_at[source[m]]]
            while todo:
                x = todo.pop()
                if reached[x]:
                    continue
                reached[x] = True
                reached_at[target[x]].append(x)
                todo.extend(comp[s * n + x] for s in from_obj[target[x]])
        return tuple(gens)

    def _associative_at_generators(self, rep: Report) -> bool:
        """(h∘s)∘f = h∘(s∘f) for every generator s; False at the first miss."""
        n, comp = len(self.names), self.comp
        for s in self.generators:
            after = self.by_source[self.target[s]]
            hs_rows = [comp[h * n + s] * n for h in after]
            h_rows = [h * n for h in after]
            for f in self.by_target[self.source[s]]:
                sf = comp[s * n + f]
                rep.count("associative", len(after))
                if [comp[r + f] for r in hs_rows] != [comp[r + sf] for r in h_rows]:
                    return False
        return True

    def _dense_associativity(self, rep: Report) -> None:
        """Every composable triple in morphism order; stops at the first
        failure, which it reports."""
        names, n, comp, target, by_source = self.names, len(self.names), self.comp, self.target, self.by_source
        for fi in range(n):
            for gi, gf in self.after(fi):
                row = by_source[target[gi]]
                for k, hi in enumerate(row):
                    if comp[hi * n + gf] != comp[comp[hi * n + gi] * n + fi]:
                        rep.count("associative", k + 1)
                        rep.add("associative", witness=(names[hi], names[gi], names[fi]))
                        return
                rep.count("associative", len(row))


def fill_composites(
    base: CategoryPresentation | None, compose: Mapping[str, object]
) -> tuple[str | None, str | None]:
    """Fill ``base.comp``, built with ``compose=None``, in one pass over a
    form document's ``compose``, which maps the key "g;f" (g after f, by
    name) to the composite's name; the reader refuses the pairs left out.

    Returns the first key that is not two parts around one ';' or whose
    value is not a string, and the first entry that is not a declared
    composite in hom(dom f, cod g) at a composable pair (each None if there
    is none). Entries are filled up to that one, and only the shapes of the
    rest are checked; of all of them when ``base`` is None."""
    entries = iter(compose.items())
    bad = None
    if base is not None:
        names, ids, source, target, comp = base.names, base.ids, base.source, base.target, base.comp
        n = len(names)
        # a name holding ';' is part of no key of the right shape
        parts = ids if not any(";" in m for m in names) else {m: i for m, i in ids.items() if ";" not in m}
        for key, value in entries:
            g, semicolon, f = key.partition(";")
            g, f, h = parts.get(g), parts.get(f), (ids.get(value) if isinstance(value, str) else None)
            if (
                not semicolon or g is None or f is None or h is None
                or source[g] != target[f] or source[h] != source[f] or target[h] != target[g]
            ):
                bad = key
                entries = chain([(key, value)], entries)  # its shape is checked with the rest
                break
            comp[g * n + f] = h
    shapeless = next((key for key, value in entries if key.count(";") != 1 or not isinstance(value, str)), None)
    return shapeless, bad


# The reflection kinds and the lifting-iso-laws check of each one's round trip.
ROUNDTRIP_CHECKS = {"section": "section-roundtrip", "retraction": "retraction-roundtrip", "iso": "iso-transfer"}


def check_tables(base: CategoryPresentation, fibres: Sequence[FiniteLattice], push: Sequence, pull: Sequence) -> None:
    """:func:`~formkit.lattice.check_table` of each morphism's push table,
    fibre(dom f) -> fibre(cod f), then of its pull table, the other way, in
    morphism order; the error names the morphism. Checks as many push and
    pull tables as are given, so a reader stopped by a defect in a later
    table checks those before it."""
    for f, (x, y) in enumerate(zip(base.source, base.target)):
        for tables, source, target in ((push, x, y), (pull, y, x)):
            if f == len(tables):
                return
            try:
                check_table(tables[f], fibres[source], fibres[target])
            except (ValueError, IndexError) as exc:
                raise type(exc)(f"morphism {base.names[f]!r}: {exc}") from None


class FormInstance:
    """Fibre lattices over a finite base category with transfer tables, all
    by number: ``fibres[x]`` is the lattice of object x, and ``push[f]``
    and ``pull[f]`` are the int tables of morphism f's transfer maps (see
    :class:`CategoryPresentation`).

    push[f] goes fibre(dom f) -> fibre(cod f) (the image/final-structure
    direction), pull[f] the other way, each table checked to fit its
    fibres when the form is built (:func:`check_tables`). For every f they
    must form a Galois pair, which :meth:`verify_laws` checks along with
    functoriality and the unit/counit inequalities.
    """

    def __init__(self, base: CategoryPresentation, fibres: Sequence[FiniteLattice], push: Sequence, pull: Sequence):
        if len(fibres) != len(base.objects):
            raise ValueError(f"{len(fibres)} fibres for {len(base.objects)} objects")
        if len(push) != len(base.names) or len(pull) != len(base.names):
            raise ValueError(f"{len(push)} push and {len(pull)} pull tables for {len(base.names)} morphisms")
        self.base, self.fibres = base, list(fibres)
        self.push, self.pull = list(map(tuple, push)), list(map(tuple, pull))
        check_tables(base, self.fibres, self.push, self.pull)

    def is_thick(self, f: int) -> bool:
        """push sends the fibre top to the fibre top."""
        top_src = self.fibres[self.base.source[f]].top
        return self.push[f][top_src] == self.fibres[self.base.target[f]].top

    def is_adjoint(self, f: int) -> bool:
        """Whether push and pull of ``f`` are certified an adjoint pair by
        its law body (:meth:`_morphism_laws`): both fibres are partial
        orders, both maps are monotone (tested on covers, see
        :func:`formkit.lattice.monotone_violation`), a <= pull(push a) for
        every a and push(pull b) <= b for every b. On partial orders this
        is equivalent to push(a) <= b iff a <= pull(b) for all a and b (a
        Galois connection; Davey & Priestley, *Introduction to Lattices and
        Order*, 2nd ed., ch. 7), so the two transfer tests of ``f`` agree
        and :func:`formkit.topogenous.verify_closure` need not walk them.
        Costs O(covers + |fibres|) per morphism, once per form,
        shared with :meth:`verify_laws`."""
        return self._laws[f][-1]

    @cached_fact
    def _laws(self) -> list[tuple]:
        """Every morphism's :meth:`_morphism_laws`, by number."""
        return [self._morphism_laws(f) for f in range(len(self.push))]

    def _morphism_laws(self, f: int) -> tuple:
        """The law body of ``f``, shared by :meth:`verify_laws` and
        :meth:`is_adjoint`: ``(bad_push, bad_pull, bad_unit, bad_counit,
        adjoint)``. ``bad_push`` and ``bad_pull`` are the first
        monotonicity failures (:func:`formkit.lattice.monotone_violation`),
        ``bad_unit`` every a with a !<= pull(push a), ``bad_counit`` every
        b with push(pull b) !<= b, and ``adjoint`` the certificate: none of
        them, on two fibres that are partial orders. An endomorphism whose
        push and pull are both the identity table on a partial order gets
        the clean body without a test: the identity is monotone, and its
        own adjoint."""
        x, y = self.base.source[f], self.base.target[f]
        fx, fy = self.fibres[x], self.fibres[y]
        pt, qt, up_x, up_y = self.push[f], self.pull[f], fx.up, fy.up
        if x == y and pt == qt == tuple(range(fx.size)) and fx.is_partial_order:
            return None, None, [], [], True
        bad_push = monotone_violation(pt, fx, fy)
        bad_pull = monotone_violation(qt, fy, fx)
        bad_unit = [a for a in range(fx.size) if not (up_x[a] >> qt[pt[a]]) & 1]
        bad_counit = [b for b in range(fy.size) if not (up_y[pt[qt[b]]] >> b) & 1]
        adjoint = (
            not (bad_push or bad_pull or bad_unit or bad_counit) and fx.is_partial_order and fy.is_partial_order
        )
        return bad_push, bad_pull, bad_unit, bad_counit, adjoint

    # -- law verification ---------------------------------------------------

    def verify_laws(self) -> Report:
        """The transfer laws: identity liftings, monotonicity, the adjunction
        for every morphism, functoriality in both directions, and the
        unit/counit inequalities.

        Three sweeps are reduced, each with a dense fallback, so violations
        are always those of the dense sweeps (``verify_laws_dense`` in
        ``tests/oracles.py``); ``checks_run`` counts the checks actually
        run.

        - Monotonicity tests the cover pairs of the source fibre only (see
          :func:`formkit.lattice.monotone_violation`).
        - The Galois sweep over every fibre pair runs only on a morphism
          whose monotone, unit or counit check fails: monotone push and
          pull with a <= pull(push a) and push(pull b) <= b form an
          adjunction on partial orders, so the sweep would find nothing.
        - Functoriality is checked for pairs (s, f) with s in
          :attr:`CategoryPresentation.generators` only. When the base is a
          category (its memoised :meth:`CategoryPresentation.verify`
          report is clean) and the identity liftings hold, every
          g is s1∘…∘sk∘id, and push(s∘g'∘f) = push(s)∘push(g'∘f) =
          push(s)∘push(g')∘push(f) = push(s∘g')∘push(f) by induction on k,
          dually for pull. Otherwise, or when a generator pair fails, every
          composable pair is swept.

        Each morphism's monotonicity, unit and counit come from its law
        body (:meth:`_morphism_laws`), computed once per form and shared
        with :meth:`is_adjoint`. Base category axioms are
        :meth:`CategoryPresentation.verify`'s job."""
        base = self.base
        names = base.names
        rep = Report()
        for x, fib, i in zip(base.objects, self.fibres, base.identity_of):
            rep.count("identity-lifting", 2)
            if self.push[i] != tuple(range(fib.size)):
                rep.add("identity-push", where=x)
            if self.pull[i] != tuple(range(fib.size)):
                rep.add("identity-pull", where=x)
        reducible = rep.ok
        for f in range(len(names)):
            bad_push, bad_pull, bad_unit, bad_counit, adjoint = self._laws[f]
            dom_fib, cod_fib = self.fibres[base.source[f]], self.fibres[base.target[f]]
            rep.count("monotone", 2)
            if bad_push:
                rep.add("push-monotone", where=names[f], witness=bad_push)
            if bad_pull:
                rep.add("pull-monotone", where=names[f], witness=bad_pull)
            rep.count("unit", dom_fib.size)
            rep.count("counit", cod_fib.size)
            if not adjoint:
                pt, qt = self.push[f], self.pull[f]
                up_dom, up_cod = dom_fib.up, cod_fib.up
                rep.count("galois", dom_fib.size * cod_fib.size)
                for a in range(dom_fib.size):
                    fa = pt[a]
                    up_a = up_dom[a]
                    for b in range(cod_fib.size):
                        if ((up_cod[fa] >> b) & 1) != ((up_a >> qt[b]) & 1):
                            rep.add("galois", where=names[f], witness=(a, b))
            for a in bad_unit:
                rep.add("unit", where=names[f], witness=(a,))
            for b in bad_counit:
                rep.add("counit", where=names[f], witness=(b,))
        if not (reducible and base._report.ok and self._functorial_at_generators(rep)):
            self._dense_functoriality(rep)
        return rep

    def _functorial_at_generators(self, rep: Report) -> bool:
        """push(s∘f) = push(s)∘push(f) and pull(s∘f) = pull(f)∘pull(s) for
        every generator s; False at the first miss."""
        base, push, pull = self.base, self.push, self.pull
        n, comp = len(base.names), base.comp
        for s in base.generators:
            ps, qs = push[s], pull[s]
            for f in base.by_target[base.source[s]]:
                sf, pf = comp[s * n + f], push[f]
                rep.count("functorial-push", len(pf))
                if tuple(map(ps.__getitem__, pf)) != push[sf]:
                    return False
                rep.count("functorial-pull", len(qs))
                if tuple(map(pull[f].__getitem__, qs)) != pull[sf]:
                    return False
        return True

    def _dense_functoriality(self, rep: Report) -> None:
        """Both functoriality laws over every composable pair."""
        base, push, pull = self.base, self.push, self.pull
        names = base.names
        for f in range(len(names)):
            for g, gf in base.after(f):
                tf, tg, tgf = push[f], push[g], push[gf]
                rep.count("functorial-push", len(tf))
                if any(tg[v] != tgf[a] for a, v in enumerate(tf)):
                    a = next(a for a, v in enumerate(tf) if tg[v] != tgf[a])
                    rep.add("functorial-push", where=f"{names[g]};{names[f]}", witness=(a,))
                tf, tg, tgf = pull[f], pull[g], pull[gf]
                rep.count("functorial-pull", len(tg))
                if any(tf[v] != tgf[b] for b, v in enumerate(tg)):
                    b = next(b for b, v in enumerate(tg) if tf[v] != tgf[b])
                    rep.add("functorial-pull", where=f"{names[g]};{names[f]}", witness=(b,))

    def _roundtrip_failures(self) -> Iterator[tuple[str, int, int]]:
        """Every (kind, morphism, index), in morphism order, where a round
        trip that a base-level inverse forces fails: a section's pull after
        push is the identity (a with pull(push a) != a), a retraction's
        push after pull too (b with push(pull b) != b), and an iso's push
        is its inverse's pull (once, at the first index they differ)."""
        for f, (mk, push, pull) in enumerate(zip(self.base.kinds, self.push, self.pull)):
            if mk.is_section:
                for a, v in enumerate(push):
                    if pull[v] != a:
                        yield "section", f, a
            if mk.is_retraction:
                for b, v in enumerate(pull):
                    if push[v] != b:
                        yield "retraction", f, b
            if mk.is_iso:
                inverse = self.pull[mk.inverse]
                if push != inverse:
                    yield "iso", f, next(a for a, (p, q) in enumerate(zip(push, inverse)) if p != q)

    @cached_fact
    def first_roundtrip_failure(self) -> dict[str, tuple[int, int]]:
        """Per kind ("section", "retraction" or "iso") with a round-trip
        failure (:meth:`_roundtrip_failures`), its first (morphism number,
        index); a kind is absent when all its round trips hold. Built once
        per form."""
        first: dict[str, tuple[int, int]] = {}
        for kind, f, i in self._roundtrip_failures():
            first.setdefault(kind, (f, i))
        return first

    def verify_lifting_iso_laws(self) -> Report:
        """The round trips behind the reflection flags, one violation per
        failure of :meth:`_roundtrip_failures`. The flags are read from the
        same failures (:attr:`first_roundtrip_failure`), so a family is clean
        exactly when its flag holds."""
        rep = Report()
        names = self.base.names
        for mk, push, pull in zip(self.base.kinds, self.push, self.pull):
            rep.count("section-roundtrip", mk.is_section * len(push))
            rep.count("retraction-roundtrip", mk.is_retraction * len(pull))
            rep.count("iso-transfer", mk.is_iso)
        for kind, f, i in self._roundtrip_failures():
            rep.add(ROUNDTRIP_CHECKS[kind], where=names[f], witness=() if kind == "iso" else (i,))
        return rep

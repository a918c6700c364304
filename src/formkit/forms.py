"""Finite presentations of forms: a base category, one fibre lattice per
object, and Galois-connected push/pull transfer maps per morphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .lattice import FiniteLattice, MonotoneMap
from .report import InputError, Report


class CorruptFormError(InputError):
    """Raised when the two equivalent transfer tests disagree, which can
    only happen if the push/pull tables are inconsistent."""


class CategoryPresentation:
    """A finite category given by hom-set lists and a total composition table.

    Morphisms are string identifiers; ``compose[(g, f)]`` is g after f and is
    defined exactly for the composable pairs.
    """

    def __init__(
        self,
        objects: Sequence[str],
        homs: dict[tuple[str, str], Sequence[str]],
        compose: dict[tuple[str, str], str],
        identities: dict[str, str],
    ):
        self.objects = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate object names")
        self.homs = {pair: tuple(ms) for pair, ms in homs.items()}
        self.compose_table = dict(compose)
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
            if self.dom.get(i) != x or self.cod.get(i) != x:
                raise ValueError(f"identity of {x!r} must be an endomorphism of {x!r}")

    def morphisms(self) -> Iterable[str]:
        for x in self.objects:
            for y in self.objects:
                yield from self.homs.get((x, y), ())

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self.homs.get((x, y), ())

    def identity(self, x: str) -> str:
        return self.identities[x]

    def compose(self, g: str, f: str) -> str:
        """g after f."""
        if self.cod[f] != self.dom[g]:
            raise ValueError(f"cannot compose {g!r} after {f!r}")
        return self.compose_table[(g, f)]

    def composable_pairs(self) -> Iterable[tuple[str, str]]:
        for x in self.objects:
            for y in self.objects:
                for f in self.homs.get((x, y), ()):
                    for z in self.objects:
                        for g in self.homs.get((y, z), ()):
                            yield g, f

    def verify(self) -> Report:
        """Identity neutrality, closure of composition, associativity.

        Associativity is swept only with a generator in the middle,
        (h∘s)∘f = h∘(s∘f) for s in :attr:`generators`, h and f arbitrary:
        by Light's associativity test the morphisms m with (h∘m)∘f =
        h∘(m∘f) for all h, f include the identities (by the identity laws)
        and are closed under composition, so with every morphism a
        composite of generators the whole table is associative. This costs
        |S|·|hom|² instead of |hom|³. When the identity laws fail, or a
        generator triple fails, the dense sweep of every composable triple
        runs and reports its first witness, so violations are those of
        :meth:`verify_dense`; ``checks_run`` counts the triples actually
        tested. The presentation must not change after construction: the
        report is computed once and shared with
        :meth:`FormInstance.verify_laws`."""
        rep = self._report
        return Report(list(rep.violations), rep.checks_run, list(rep.notes))

    def verify_dense(self) -> Report:
        """The same checks with associativity swept over every composable
        triple: the oracle the generator-reduced sweep is tested against."""
        return self._check(fast=False)

    @cached_property
    def _report(self) -> Report:
        return self._check(fast=True)

    def _check(self, fast: bool) -> Report:
        rep = Report()
        for x in self.objects:
            if x not in self.identities:
                rep.add("identity-missing", where=x)
        for g, f in self.composable_pairs():
            rep.count("compose-defined")
            h = self.compose_table.get((g, f))
            if h is None:
                rep.add("compose-undefined", witness=(g, f))
                continue
            if self.dom.get(h) != self.dom[f] or self.cod.get(h) != self.cod[g]:
                rep.add("compose-escapes-hom", witness=(g, f, h))
        if rep.violations:
            return rep
        for f in self.morphisms():
            rep.count("identity-neutral", 2)
            if self.compose(self.identity(self.cod[f]), f) != f:
                rep.add("identity-left", witness=(f,))
            if self.compose(f, self.identity(self.dom[f])) != f:
                rep.add("identity-right", witness=(f,))
        if not (fast and rep.ok and self._associative_at_generators(rep)):
            self._dense_associativity(rep)
        return rep

    @cached_property
    def _view(self) -> "_IntView":
        """Morphisms interned in :meth:`morphisms` order with a flat
        composition table; built only once composition is known to be
        total and to land in the right hom-sets."""
        names = list(self.morphisms())
        n = len(names)
        ids = {m: i for i, m in enumerate(names)}
        obj_ids = {x: k for k, x in enumerate(self.objects)}
        dom = [obj_ids[self.dom[m]] for m in names]
        cod = [obj_ids[self.cod[m]] for m in names]
        by_source: list[list[int]] = [[] for _ in self.objects]
        by_target: list[list[int]] = [[] for _ in self.objects]
        for i in range(n):
            by_source[dom[i]].append(i)
            by_target[cod[i]].append(i)
        comp = [-1] * (n * n)
        for fi, f in enumerate(names):
            for gi in by_source[cod[fi]]:
                comp[gi * n + fi] = ids[self.compose_table[(names[gi], f)]]
        return _IntView(names, dom, cod, by_source, by_target, comp)

    @cached_property
    def generators(self) -> tuple[str, ...]:
        """A generating set S: every morphism is s1∘…∘sk∘id for some
        s1, …, sk in S and an identity id.

        Candidates are visited in ascending order of their number of
        factorisations g∘f through two non-identity morphisms (ties in
        :meth:`morphisms` order), so hard-to-factor morphisms come first; a
        candidate joins S when the closure of the identities under left
        composition by S does not reach it yet. Needs total composition."""
        return tuple(self._view.names[i] for i in self._generator_ids)

    @cached_property
    def _generator_ids(self) -> tuple[int, ...]:
        v = self._view
        n, comp, dom, cod = len(v.names), v.comp, v.dom, v.cod
        identity_names = set(self.identities.values())
        reached = [m in identity_names for m in v.names]
        factorisations = [0] * n
        for fi in range(n):
            if reached[fi]:
                continue
            for gi in v.by_source[cod[fi]]:
                if not reached[gi]:
                    factorisations[comp[gi * n + fi]] += 1
        reached_at: list[list[int]] = [[] for _ in self.objects]  # by codomain
        for i in range(n):
            if reached[i]:
                reached_at[cod[i]].append(i)
        from_obj: list[list[int]] = [[] for _ in self.objects]  # generators by domain
        gens = []
        for m in sorted(range(n), key=lambda i: (factorisations[i], i)):
            if reached[m]:
                continue
            gens.append(m)
            from_obj[dom[m]].append(m)
            todo = [comp[m * n + r] for r in reached_at[dom[m]]]
            while todo:
                x = todo.pop()
                if reached[x]:
                    continue
                reached[x] = True
                reached_at[cod[x]].append(x)
                todo.extend(comp[s * n + x] for s in from_obj[cod[x]])
        return tuple(gens)

    def _associative_at_generators(self, rep: Report) -> bool:
        """(h∘s)∘f = h∘(s∘f) for every generator s; False at the first miss."""
        v = self._view
        n, comp = len(v.names), v.comp
        for s in self._generator_ids:
            after = v.by_source[v.cod[s]]
            hs_rows = [comp[h * n + s] * n for h in after]
            h_rows = [h * n for h in after]
            for f in v.by_target[v.dom[s]]:
                sf = comp[s * n + f]
                rep.count("associative", len(after))
                if [comp[r + f] for r in hs_rows] != [comp[r + sf] for r in h_rows]:
                    return False
        return True

    def _dense_associativity(self, rep: Report) -> None:
        """Every composable triple in morphism order; stops at the first
        failure, which it reports."""
        v = self._view
        names, n, comp, cod, by_source = v.names, len(v.names), v.comp, v.cod, v.by_source
        for fi in range(n):
            for gi in by_source[cod[fi]]:
                gf = comp[gi * n + fi]
                row = by_source[cod[gi]]
                for k, hi in enumerate(row):
                    if comp[hi * n + gf] != comp[comp[hi * n + gi] * n + fi]:
                        rep.count("associative", k + 1)
                        rep.add("associative", witness=(names[hi], names[gi], names[fi]))
                        return
                rep.count("associative", len(row))


class _IntView:
    """A category presentation with morphisms and objects as integers:
    ``comp[g * n + f]`` is g∘f (-1 where not composable), ``by_source[x]``
    and ``by_target[x]`` list the morphisms out of and into object x."""

    __slots__ = ("names", "dom", "cod", "by_source", "by_target", "comp")

    def __init__(self, names, dom, cod, by_source, by_target, comp):
        self.names: list[str] = names
        self.dom: list[int] = dom
        self.cod: list[int] = cod
        self.by_source: list[list[int]] = by_source
        self.by_target: list[list[int]] = by_target
        self.comp: list[int] = comp


@dataclass(frozen=True)
class MorphismKind:
    is_section: bool
    is_retraction: bool
    is_iso: bool
    inverse: Optional[str] = None  # a two-sided inverse when is_iso

    def to_dict(self) -> dict:
        return {
            "is_section": self.is_section,
            "is_retraction": self.is_retraction,
            "is_iso": self.is_iso,
        }


class FormInstance:
    """Fibre lattices over a finite base category with transfer tables.

    push[f] goes fibre(dom f) -> fibre(cod f) (the image/final-structure
    direction), pull[f] the other way; for every f they must form a Galois
    pair, which :meth:`verify_laws` checks along with functoriality and the
    unit/counit inequalities.
    """

    def __init__(
        self,
        base: CategoryPresentation,
        fibres: dict[str, FiniteLattice],
        push: dict[str, MonotoneMap],
        pull: dict[str, MonotoneMap],
    ):
        self.base = base
        self.fibres = dict(fibres)
        self.push_maps = dict(push)
        self.pull_maps = dict(pull)
        for x in base.objects:
            if x not in self.fibres:
                raise ValueError(f"missing fibre for object {x!r}")
        for f in base.morphisms():
            if f not in self.push_maps or f not in self.pull_maps:
                raise ValueError(f"missing transfer tables for morphism {f!r}")
        self._kind_cache: dict[str, MorphismKind] = {}

    def fibre(self, x: str) -> FiniteLattice:
        try:
            return self.fibres[x]
        except KeyError:
            raise KeyError(f"unknown object {x!r}") from None

    def push(self, f: str, a: int) -> int:
        return self.push_maps[f](a)

    def pull(self, f: str, b: int) -> int:
        return self.pull_maps[f](b)

    def leq_over(self, f: str, a: int, b: int) -> bool:
        """The transfer order between fibres: push(f, a) <= b, equivalently
        a <= pull(f, b). Both are evaluated and must agree."""
        fx = self.fibre(self.base.dom[f])
        fy = self.fibre(self.base.cod[f])
        via_push = fy.leq(self.push(f, a), b)
        via_pull = fx.leq(a, self.pull(f, b))
        if via_push != via_pull:
            raise CorruptFormError(
                f"transfer tests disagree for morphism {f!r} at ({a}, {b}); "
                "push/pull tables are not an adjoint pair"
            )
        return via_push

    def bounds(self, x: str) -> tuple[int, int]:
        fib = self.fibre(x)
        return fib.bottom, fib.top

    def is_thick(self, f: str) -> bool:
        """push sends the fibre top to the fibre top."""
        top_src = self.fibre(self.base.dom[f]).top
        return self.push(f, top_src) == self.fibre(self.base.cod[f]).top

    def morphism_kind(self, f: str) -> MorphismKind:
        """Section/retraction/iso status inside the presented hom-sets."""
        if f in self._kind_cache:
            return self._kind_cache[f]
        base = self.base
        x, y = base.dom[f], base.cod[f]
        idx, idy = base.identity(x), base.identity(y)
        left_inverses = [g for g in base.hom(y, x) if base.compose(g, f) == idx]
        right_inverses = [g for g in base.hom(y, x) if base.compose(f, g) == idy]
        two_sided = [g for g in left_inverses if g in right_inverses]
        kind = MorphismKind(
            is_section=bool(left_inverses),
            is_retraction=bool(right_inverses),
            is_iso=bool(two_sided),
            inverse=two_sided[0] if two_sided else None,
        )
        self._kind_cache[f] = kind
        return kind

    # -- law verification ---------------------------------------------------

    def verify_laws(self) -> Report:
        """The transfer laws: identity liftings, monotonicity, the adjunction
        for every morphism, functoriality in both directions, and the
        unit/counit inequalities.

        Three sweeps are reduced, each with a dense fallback, so violations
        are always those of :meth:`verify_laws_dense`; ``checks_run`` counts
        the checks actually run.

        - Monotonicity tests the cover pairs of the source fibre only (see
          :meth:`MonotoneMap.monotone_violation`).
        - The Galois sweep over every fibre pair runs only on a morphism
          whose monotone, unit or counit check fails: monotone push and
          pull with a <= pull(push a) and push(pull b) <= b form an
          adjunction on partial orders, so the sweep would find nothing.
        - Functoriality is checked for pairs (s, f) with s in
          :attr:`CategoryPresentation.generators` only. When the base is a
          category (its memoised :meth:`CategoryPresentation.verify`
          report is clean) and the identity liftings and wiring hold, every
          g is s1∘…∘sk∘id, and push(s∘g'∘f) = push(s)∘push(g'∘f) =
          push(s)∘push(g')∘push(f) = push(s∘g')∘push(f) by induction on k,
          dually for pull. Otherwise, or when a generator pair fails, every
          composable pair is swept.

        Base category axioms are :meth:`CategoryPresentation.verify`'s job;
        here the composition table is only consulted (missing entries are
        reported, not raised)."""
        return self._check_laws(fast=True)

    def verify_laws_dense(self) -> Report:
        """The same laws with every sweep dense: the oracle
        :meth:`verify_laws` is tested against."""
        return self._check_laws(fast=False)

    def _check_laws(self, fast: bool) -> Report:
        rep = Report()
        base = self.base
        for g, f in base.composable_pairs():
            if (g, f) not in base.compose_table:
                rep.add("compose-undefined", witness=(g, f))
        if not rep.ok:
            return rep
        for x in base.objects:
            fib = self.fibre(x)
            i = base.identity(x)
            rep.count("identity-lifting", 2)
            if self.push_maps[i].table != tuple(range(fib.size)):
                rep.add("identity-push", where=x)
            if self.pull_maps[i].table != tuple(range(fib.size)):
                rep.add("identity-pull", where=x)
        reducible = fast and rep.ok
        for f in base.morphisms():
            dom_fib = self.fibre(base.dom[f])
            cod_fib = self.fibre(base.cod[f])
            push, pull = self.push_maps[f], self.pull_maps[f]
            if push.source != dom_fib or push.target != cod_fib:
                rep.add("push-wiring", where=f)
                reducible = False
                continue
            if pull.source != cod_fib or pull.target != dom_fib:
                rep.add("pull-wiring", where=f)
                reducible = False
                continue
            rep.count("monotone", 2)
            bad_push = push.monotone_violation() if fast else push.monotone_violation_dense()
            if bad_push:
                rep.add("push-monotone", where=f, witness=bad_push)
            bad_pull = pull.monotone_violation() if fast else pull.monotone_violation_dense()
            if bad_pull:
                rep.add("pull-monotone", where=f, witness=bad_pull)
            pt, qt = push.table, pull.table
            up_dom, up_cod = dom_fib.up, cod_fib.up
            rep.count("unit", dom_fib.size)
            bad_unit = [a for a in range(dom_fib.size) if not (up_dom[a] >> qt[pt[a]]) & 1]
            rep.count("counit", cod_fib.size)
            bad_counit = [b for b in range(cod_fib.size) if not (up_cod[pt[qt[b]]] >> b) & 1]
            adjoint = (
                fast and not (bad_push or bad_pull or bad_unit or bad_counit)
                and dom_fib.is_partial_order() and cod_fib.is_partial_order()
            )
            if not adjoint:
                rep.count("galois", dom_fib.size * cod_fib.size)
                for a in range(dom_fib.size):
                    fa = pt[a]
                    up_a = up_dom[a]
                    for b in range(cod_fib.size):
                        if ((up_cod[fa] >> b) & 1) != ((up_a >> qt[b]) & 1):
                            rep.add("galois", where=f, witness=(a, b))
            for a in bad_unit:
                rep.add("unit", where=f, witness=(a,))
            for b in bad_counit:
                rep.add("counit", where=f, witness=(b,))
        if not (reducible and base._report.ok and self._functorial_at_generators(rep)):
            self._dense_functoriality(rep)
        return rep

    def _functorial_at_generators(self, rep: Report) -> bool:
        """push(s∘f) = push(s)∘push(f) and pull(s∘f) = pull(f)∘pull(s) for
        every generator s; False at the first miss."""
        v = self.base._view
        n = len(v.names)
        push = [self.push_maps[m].table for m in v.names]
        pull = [self.pull_maps[m].table for m in v.names]
        for s in self.base._generator_ids:
            ps, qs = push[s], pull[s]
            for f in v.by_target[v.dom[s]]:
                sf = v.comp[s * n + f]
                rep.count("functorial-push", len(push[f]))
                if tuple(map(ps.__getitem__, push[f])) != push[sf]:
                    return False
                rep.count("functorial-pull", len(qs))
                if tuple(map(pull[f].__getitem__, qs)) != pull[sf]:
                    return False
        return True

    def _dense_functoriality(self, rep: Report) -> None:
        """Both functoriality laws over every composable pair."""
        base = self.base
        for g, f in base.composable_pairs():
            gf = base.compose(g, f)
            tf, tg, tgf = self.push_maps[f].table, self.push_maps[g].table, self.push_maps[gf].table
            rep.count("functorial-push", len(tf))
            if any(tg[v] != tgf[a] for a, v in enumerate(tf)):
                a = next(a for a, v in enumerate(tf) if tg[v] != tgf[a])
                rep.add("functorial-push", where=f"{g};{f}", witness=(a,))
            tf, tg, tgf = self.pull_maps[f].table, self.pull_maps[g].table, self.pull_maps[gf].table
            rep.count("functorial-pull", len(tg))
            if any(tf[v] != tgf[b] for b, v in enumerate(tg)):
                b = next(b for b, v in enumerate(tg) if tf[v] != tgf[b])
                rep.add("functorial-pull", where=f"{g};{f}", witness=(b,))

    def check_reflects(self, kind: str) -> tuple[bool, Optional[tuple]]:
        """Operational reflection test: the fibre-level consequence that the
        corresponding base-level one-sided inverses force.

        section: pull after push is the identity on every section's fibre;
        retraction: push after pull is the identity; iso: push along f equals
        pull along the inverse. Returns (holds, first counterexample).
        """
        if kind not in ("section", "retraction", "iso"):
            raise ValueError(f"unknown kind {kind!r}")
        for f in self.base.morphisms():
            mk = self.morphism_kind(f)
            if kind == "section" and mk.is_section:
                push, pull = self.push_maps[f], self.pull_maps[f]
                for a in range(push.source.size):
                    if pull.table[push.table[a]] != a:
                        return False, (f, a)
            elif kind == "retraction" and mk.is_retraction:
                push, pull = self.push_maps[f], self.pull_maps[f]
                for b in range(pull.source.size):
                    if push.table[pull.table[b]] != b:
                        return False, (f, b)
            elif kind == "iso" and mk.is_iso:
                push = self.push_maps[f]
                pull_inv = self.pull_maps[mk.inverse]
                if push.table != pull_inv.table:
                    a = next(i for i, (p, q) in enumerate(zip(push.table, pull_inv.table)) if p != q)
                    return False, (f, a)
        return True, None

    def verify_lifting_iso_laws(self) -> Report:
        """Per-morphism equalities behind the reflection flags, plus the
        cross-check that each family's cleanliness matches its flag."""
        rep = Report()
        for f in self.base.morphisms():
            mk = self.morphism_kind(f)
            push, pull = self.push_maps[f], self.pull_maps[f]
            if mk.is_section:
                rep.count("section-roundtrip", push.source.size)
                for a in range(push.source.size):
                    if pull.table[push.table[a]] != a:
                        rep.add("section-roundtrip", where=f, witness=(a,))
            if mk.is_retraction:
                rep.count("retraction-roundtrip", pull.source.size)
                for b in range(pull.source.size):
                    if push.table[pull.table[b]] != b:
                        rep.add("retraction-roundtrip", where=f, witness=(b,))
            if mk.is_iso:
                pull_inv = self.pull_maps[mk.inverse]
                rep.count("iso-transfer")
                if push.table != pull_inv.table:
                    rep.add("iso-transfer", where=f)
        for kind, check in (
            ("section", "section-roundtrip"),
            ("retraction", "retraction-roundtrip"),
            ("iso", "iso-transfer"),
        ):
            holds, _ = self.check_reflects(kind)
            clean = not any(v.check == check for v in rep.violations)
            rep.count("flag-agreement")
            if holds != clean:
                rep.add("flag-agreement", where=kind)
        return rep

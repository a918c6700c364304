"""Finite presentations of forms: a base category, one fibre lattice per
object, and Galois-connected push/pull transfer maps per morphism.
"""

from __future__ import annotations

from dataclasses import dataclass
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

        Associativity sweeps every composable triple; on the generated
        all-functions categories this is the dominant cost, so it interns
        morphisms to integers first."""
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
        names = list(self.morphisms())
        ids = {m: i for i, m in enumerate(names)}
        obj_ids = {x: k for k, x in enumerate(self.objects)}
        by_source: list[list[int]] = [[] for _ in self.objects]
        for m in names:
            by_source[obj_ids[self.dom[m]]].append(ids[m])
        comp: dict[tuple[int, int], int] = {
            (ids[g], ids[f]): ids[h] for (g, f), h in self.compose_table.items()
        }
        cod_ids = [obj_ids[self.cod[m]] for m in names]
        for fi in range(len(names)):
            for gi in by_source[cod_ids[fi]]:
                gf = comp[(gi, fi)]
                for hi in by_source[cod_ids[gi]]:
                    rep.count("associative")
                    if comp[(hi, gf)] != comp[(comp[(hi, gi)], fi)]:
                        rep.add("associative", witness=(names[hi], names[gi], names[fi]))
                        return rep
        return rep


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

        Base category axioms are :meth:`CategoryPresentation.verify`'s job;
        here the composition table is only consulted (missing entries are
        reported, not raised)."""
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
        for f in base.morphisms():
            dom_fib = self.fibre(base.dom[f])
            cod_fib = self.fibre(base.cod[f])
            push, pull = self.push_maps[f], self.pull_maps[f]
            if push.source != dom_fib or push.target != cod_fib:
                rep.add("push-wiring", where=f)
                continue
            if pull.source != cod_fib or pull.target != dom_fib:
                rep.add("pull-wiring", where=f)
                continue
            rep.count("monotone", 2)
            bad = push.monotone_violation()
            if bad:
                rep.add("push-monotone", where=f, witness=bad)
            bad = pull.monotone_violation()
            if bad:
                rep.add("pull-monotone", where=f, witness=bad)
            pt, qt = push.table, pull.table
            up_dom, up_cod = dom_fib.up, cod_fib.up
            rep.count("galois", dom_fib.size * cod_fib.size)
            for a in range(dom_fib.size):
                fa = pt[a]
                up_a = up_dom[a]
                for b in range(cod_fib.size):
                    if ((up_cod[fa] >> b) & 1) != ((up_a >> qt[b]) & 1):
                        rep.add("galois", where=f, witness=(a, b))
            rep.count("unit", dom_fib.size)
            for a in range(dom_fib.size):
                if not (up_dom[a] >> qt[pt[a]]) & 1:
                    rep.add("unit", where=f, witness=(a,))
            rep.count("counit", cod_fib.size)
            for b in range(cod_fib.size):
                if not (up_cod[pt[qt[b]]] >> b) & 1:
                    rep.add("counit", where=f, witness=(b,))
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
        return rep

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
                for a in range(push.source.size):
                    rep.count("section-roundtrip")
                    if pull.table[push.table[a]] != a:
                        rep.add("section-roundtrip", where=f, witness=(a,))
            if mk.is_retraction:
                for b in range(pull.source.size):
                    rep.count("retraction-roundtrip")
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

"""Morphism classes relative to a topogenous order: strict, final, thick,
cohereditary, and the theorem cross-checks connecting them.

Every theorem check computes both sides independently and reports any
disagreement; nothing is taken as a definition of the other side, so a gap
between the general claims and a small finite model would surface here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .forms import FormInstance, MorphismKind
from .lattice import bits
from .report import Report
from .topogenous import (
    OrderClass,
    TopogenousOrder,
    classify_order,
    closure_from_order,
    interior_from_order,
)

# Cancellation clauses whose printed hypotheses are under dispute; they are
# evaluated and reported but do not gate a run (see transfer_laws_check).
DISPUTED_CHECKS = frozenset(
    {
        "cancel-strict-as-printed",
        "cancel-final-as-printed",
        "cancel-strict-first-factor-section",
        "cancel-final-first-factor-section",
    }
)


@dataclass
class MorphismReport:
    morphism: str
    strict: bool
    final: bool
    thick: bool
    kind: MorphismKind
    witnesses: list[tuple] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "morphism": self.morphism,
            "strict": self.strict,
            "final": self.final,
            "thick": self.thick,
            "kind": self.kind.to_dict(),
            "witnesses": [list(w) for w in self.witnesses],
        }


def strict_violation(form: FormInstance, order: TopogenousOrder, f: str) -> Optional[tuple[int, int]]:
    """First (a, b) with a related to pull(b) but push(a) not related to b."""
    x, y = form.base.dom[f], form.base.cod[f]
    rows_x, rows_y = order.rel[x], order.rel[y]
    push, pull = form.push_maps[f].table, form.pull_maps[f].table
    for a in range(form.fibre(x).size):
        row_a = rows_x[a]
        for b in range(form.fibre(y).size):
            if (row_a >> pull[b]) & 1 and not (rows_y[push[a]] >> b) & 1:
                return (a, b)
    return None


def is_strict(form: FormInstance, order: TopogenousOrder, f: str) -> bool:
    return strict_violation(form, order, f) is None


def final_violation(form: FormInstance, order: TopogenousOrder, f: str) -> Optional[tuple[int, int]]:
    """First (b, b') related after pulling but not before."""
    x, y = form.base.dom[f], form.base.cod[f]
    rows_x, rows_y = order.rel[x], order.rel[y]
    pull = form.pull_maps[f].table
    for b in range(form.fibre(y).size):
        row_pb = rows_x[pull[b]]
        for b2 in range(form.fibre(y).size):
            if (row_pb >> pull[b2]) & 1 and not (rows_y[b] >> b2) & 1:
                return (b, b2)
    return None


def is_final(form: FormInstance, order: TopogenousOrder, f: str) -> bool:
    return final_violation(form, order, f) is None


def push_preserves_order(form: FormInstance, order: TopogenousOrder, f: str) -> Optional[tuple[int, int]]:
    """First related (a, b) in the domain fibre whose pushes are unrelated."""
    x, y = form.base.dom[f], form.base.cod[f]
    rows_x, rows_y = order.rel[x], order.rel[y]
    push = form.push_maps[f].table
    for a in range(form.fibre(x).size):
        for b in bits(rows_x[a]):
            if not (rows_y[push[a]] >> push[b]) & 1:
                return (a, b)
    return None


def strict_characterization(form: FormInstance, order: TopogenousOrder, f: str) -> Report:
    """Strictness versus push-preservation, computed independently; the two
    verdicts must coincide."""
    rep = Report()
    sv = strict_violation(form, order, f)
    pv = push_preserves_order(form, order, f)
    rep.count("strict-iff-push", 1)
    if (sv is None) != (pv is None):
        rep.add(
            "strict-iff-push",
            where=f,
            witness=(sv, pv),
            detail=f"strict={sv is None} push-preserving={pv is None}",
        )
    rep.notes.append(f"{f}: strict={sv is None} push_preserving={pv is None}")
    return rep


def final_thick_check(
    form: FormInstance,
    order: TopogenousOrder,
    f: Optional[str] = None,
    cls: Optional[OrderClass] = None,
) -> Report:
    """Final morphisms must be thick when the fibre top is self-related (or
    the order is meet-stable, which forces that)."""
    rep = Report()
    if cls is None:
        cls = classify_order(form, order)
    targets = [f] if f is not None else list(form.base.morphisms())
    for m in targets:
        y = form.base.cod[m]
        top_y = form.fibre(y).top
        hypothesis = cls.is_TM or order.has(y, top_y, top_y)
        rep.count("final-thick")
        if hypothesis and is_final(form, order, m) and not form.is_thick(m):
            rep.add("final-thick", where=m)
    return rep


def transfer_laws_check(form: FormInstance, order: TopogenousOrder) -> Report:
    """The closure/transfer laws for strict and final morphisms.

    Gating clauses (violations fail a run):
      retraction-final-strict: final retractions are strict, under the
        retraction reflection flag;
      section-strict-final: strict sections are final, under the section
        reflection flag. This printed clause is refuted: non-surjective
        sections (for example the point inclusions 1pt->2pt on the
        topology instance) are strict but not final. It is kept gating so
        that the refutation stays visible, as README says;
      iso-strict / iso-final: isomorphisms are both, under the iso flag;
      compose-strict / compose-final: both classes compose;
      cancel-strict / cancel-final: when g∘f is in the class and f is a
        retraction, g is too (retraction flag).

    The dual cancellation clause is evaluated in the two printed/derived
    readings and reported without gating (DISPUTED_CHECKS): as printed the
    second factor is a retraction; the other reading makes the first factor
    a section."""
    rep = Report()
    base = form.base
    refl_sec, _ = form.check_reflects("section")
    refl_ret, _ = form.check_reflects("retraction")
    refl_iso, _ = form.check_reflects("iso")
    strict = {m: is_strict(form, order, m) for m in base.morphisms()}
    final = {m: is_final(form, order, m) for m in base.morphisms()}
    kinds = {m: form.morphism_kind(m) for m in base.morphisms()}

    for m in base.morphisms():
        k = kinds[m]
        if refl_ret and k.is_retraction and final[m]:
            rep.count("retraction-final-strict")
            if not strict[m]:
                rep.add("retraction-final-strict", where=m, witness=(strict_violation(form, order, m),))
        if refl_sec and k.is_section and strict[m]:
            rep.count("section-strict-final")
            if not final[m]:
                rep.add("section-strict-final", where=m, witness=(final_violation(form, order, m),))
        if refl_iso and k.is_iso:
            rep.count("iso-strict")
            if not strict[m]:
                rep.add("iso-strict", where=m)
            rep.count("iso-final")
            if not final[m]:
                rep.add("iso-final", where=m)

    for g, f in base.composable_pairs():
        gf = base.compose(g, f)
        if strict[f] and strict[g]:
            rep.count("compose-strict")
            if not strict[gf]:
                rep.add("compose-strict", where=f"{g};{f}")
        if final[f] and final[g]:
            rep.count("compose-final")
            if not final[gf]:
                rep.add("compose-final", where=f"{g};{f}")
        if refl_ret and kinds[f].is_retraction:
            if strict[gf]:
                rep.count("cancel-strict")
                if not strict[g]:
                    rep.add("cancel-strict", where=f"{g};{f}")
            if final[gf]:
                rep.count("cancel-final")
                if not final[g]:
                    rep.add("cancel-final", where=f"{g};{f}")
        if refl_sec and kinds[g].is_retraction:
            if strict[gf]:
                rep.count("cancel-strict-as-printed")
                if not strict[f]:
                    rep.add("cancel-strict-as-printed", where=f"{g};{f}")
            if final[gf]:
                rep.count("cancel-final-as-printed")
                if not final[f]:
                    rep.add("cancel-final-as-printed", where=f"{g};{f}")
        if refl_sec and kinds[f].is_section:
            if strict[gf]:
                rep.count("cancel-strict-first-factor-section")
                if not strict[f]:
                    rep.add("cancel-strict-first-factor-section", where=f"{g};{f}")
            if final[gf]:
                rep.count("cancel-final-first-factor-section")
                if not final[f]:
                    rep.add("cancel-final-first-factor-section", where=f"{g};{f}")
    return rep


def strict_via_operators(
    form: FormInstance,
    order: TopogenousOrder,
    f: str,
    cls: Optional[OrderClass] = None,
) -> Report:
    """Strictness through the derived operators.

    Meet-stable branch: strict iff push commutes with the derived closure.
    Join-stable branch: pull commuting with the derived interior implies
    strict (one direction only). Wrong class: skipped with a notice."""
    rep = Report()
    if cls is None:
        cls = classify_order(form, order)
    if not cls.is_TM and not cls.is_TJ:
        rep.notes.append(f"{f}: order neither meet- nor join-stable; skipped")
        return rep
    x, y = form.base.dom[f], form.base.cod[f]
    push, pull = form.push_maps[f].table, form.pull_maps[f].table
    strict = is_strict(form, order, f)
    if cls.is_TM:
        clo = closure_from_order(form, order)
        cx, cy = clo.table(x), clo.table(y)
        commutes = all(push[cx[a]] == cy[push[a]] for a in range(form.fibre(x).size))
        rep.count("strict-iff-closure-commutes")
        if strict != commutes:
            rep.add(
                "strict-iff-closure-commutes",
                where=f,
                witness=(strict, commutes),
            )
    if cls.is_TJ:
        intr = interior_from_order(form, order)
        ix, iy = intr.table(x), intr.table(y)
        commutes = all(pull[iy[b]] == ix[pull[b]] for b in range(form.fibre(y).size))
        rep.count("interior-commutes-implies-strict")
        if commutes and not strict:
            rep.add(
                "interior-commutes-implies-strict",
                where=f,
                witness=(strict, commutes),
            )
    return rep


def is_cohereditary(form: FormInstance, order: TopogenousOrder) -> bool:
    """Every retraction of the base is final for the order."""
    return all(
        is_final(form, order, f)
        for f in form.base.morphisms()
        if form.morphism_kind(f).is_retraction
    )


def cohereditary_operator_check(
    form: FormInstance,
    order: TopogenousOrder,
    cls: Optional[OrderClass] = None,
) -> Report:
    """For meet-stable orders: cohereditary iff the derived closure is
    computed on every retraction by pulling, closing, and pushing back."""
    rep = Report()
    if cls is None:
        cls = classify_order(form, order)
    if not cls.is_TM:
        rep.notes.append("order is not meet-stable; skipped")
        return rep
    clo = closure_from_order(form, order)
    cohered = is_cohereditary(form, order)
    operator_side = True
    witness = None
    for f in form.base.morphisms():
        if not form.morphism_kind(f).is_retraction:
            continue
        x, y = form.base.dom[f], form.base.cod[f]
        push, pull = form.push_maps[f].table, form.pull_maps[f].table
        cx, cy = clo.table(x), clo.table(y)
        for b in range(form.fibre(y).size):
            if cy[b] != push[cx[pull[b]]]:
                operator_side = False
                witness = (f, b)
                break
        if not operator_side:
            break
    rep.count("cohereditary-iff-closure-restricts")
    if cohered != operator_side:
        rep.add(
            "cohereditary-iff-closure-restricts",
            witness=(cohered, operator_side, witness),
        )
    return rep


def classify_morphism(form: FormInstance, order: TopogenousOrder, f: str) -> MorphismReport:
    sv = strict_violation(form, order, f)
    fv = final_violation(form, order, f)
    witnesses = [w for w in (sv, fv) if w is not None]
    return MorphismReport(
        morphism=f,
        strict=sv is None,
        final=fv is None,
        thick=form.is_thick(f),
        kind=form.morphism_kind(f),
        witnesses=witnesses,
    )

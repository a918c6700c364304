"""Morphism classes relative to a topogenous order: strict, final, thick,
cohereditary, and the theorem cross-checks connecting them.

Strictness and finality are mask tests on a morphism's pulled rows
(:func:`formkit.topogenous.pulled_rows`); a
:class:`formkit.checks.CheckContext` builds them and each strict and final
witness once per command. Every theorem check sets those verdicts against
another side computed on its own (push preservation, the derived
operators, thickness) and reports any disagreement, so a gap between the
general claims and a small finite model would surface here.
"""

from __future__ import annotations

from itertools import compress
from typing import Optional, Sequence

from .forms import CategoryPresentation, FormInstance
from .lattice import low_bit, preimages
from .report import Report
from .topogenous import Operator, OrderClass, TopogenousOrder, pulled_rows

# A morphism's first strictness or finality violation, None when it has none.
Witness = Optional[tuple[int, int]]

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

# The clauses on a composable pair (f, g), in the order a walk of every
# composable pair, f outer and g inner, reports them.
PAIR_CLAUSES = (
    "compose-strict",
    "compose-final",
    "cancel-strict",
    "cancel-final",
    "cancel-strict-as-printed",
    "cancel-final-as-printed",
    "cancel-strict-first-factor-section",
    "cancel-final-first-factor-section",
)


def strict_violation(form: FormInstance, order: TopogenousOrder, f: int, pulled: Sequence[int]) -> Witness:
    """First (a, b) with a related to pull(b) but push(a) not related to b.

    Per a, ``pulled[a]``, f's pulled row at a (:func:`pulled_rows`), is
    every b with pull(b) related to a; its bits outside ``rows_y[push a]``
    are the violations at a, so the first witness is the one of a sweep of
    every pair (``strict_violation_dense`` in ``tests/oracles.py``)."""
    rows_y, push = order.rel[form.base.target[f]], form.push[f]
    for a, pre in enumerate(pulled):
        bad = pre & ~rows_y[push[a]]
        if bad:
            return (a, low_bit(bad))
    return None


def is_strict(form: FormInstance, order: TopogenousOrder, f: int) -> bool:
    return strict_violation(form, order, f, pulled_rows(form, order, f)) is None


def final_violation(form: FormInstance, order: TopogenousOrder, f: int, pulled: Sequence[int]) -> Witness:
    """First (b, b') related after pulling but not before.

    The b' whose pull is related to pull(b) are ``pulled[pull b]``, f's
    pulled row at pull(b) (:func:`pulled_rows`); its bits outside
    ``rows_y[b]`` are the violations at b, so the first witness is the one
    of a sweep of every pair (``final_violation_dense`` in
    ``tests/oracles.py``)."""
    rows_y = order.rel[form.base.target[f]]
    for b, c in enumerate(form.pull[f]):
        bad = pulled[c] & ~rows_y[b]
        if bad:
            return (b, low_bit(bad))
    return None


def is_final(form: FormInstance, order: TopogenousOrder, f: int) -> bool:
    return final_violation(form, order, f, pulled_rows(form, order, f)) is None


def push_preserves_order(form: FormInstance, order: TopogenousOrder, f: int) -> Optional[tuple[int, int]]:
    """First related (a, b) in the domain fibre whose pushes are unrelated.

    Per a, the preimage of ``rows_y[push a]`` under push is every b whose
    push is related to push(a) (:func:`formkit.lattice.preimages`, taken only
    of the rows at values of push); the bits of ``rows_x[a]`` outside it
    are the violations at a, so the first witness is the one of a sweep of
    every related pair (``push_preserves_order_dense`` in
    ``tests/oracles.py``)."""
    y = form.base.target[f]
    rows_x, rows_y, push = order.rel[form.base.source[f]], order.rel[y], form.push[f]
    taken = set(push)  # a row at a value push does not take is never read
    pushed = preimages(push, form.fibres[y], [row if v in taken else 0 for v, row in enumerate(rows_y)])
    for a, v in enumerate(push):
        bad = rows_x[a] & ~pushed[v]
        if bad:
            return (a, low_bit(bad))
    return None


def strict_characterization(form: FormInstance, order: TopogenousOrder, strict_witness: Sequence[Witness]) -> Report:
    """Per morphism, strictness from its strict witness (``strict_witness``
    by number, :func:`strict_violation`) against push preservation,
    computed here from push; they must coincide. One check per morphism, in
    morphism order."""
    rep = Report()
    for f, sv in enumerate(strict_witness):
        pv = push_preserves_order(form, order, f)
        rep.count("strict-iff-push")
        if (sv is None) != (pv is None):
            rep.add(
                "strict-iff-push",
                where=form.base.names[f],
                witness=(sv, pv),
                detail=f"strict={sv is None} push-preserving={pv is None}",
            )
    return rep


def final_thick_check(form: FormInstance, order: TopogenousOrder, cls: OrderClass, final: Sequence[bool]) -> Report:
    """Final morphisms must be thick when the fibre top is self-related (or
    the order is meet-stable, which forces that). ``cls`` is the order's
    class and ``final`` holds each morphism's finality for it, by number
    (:func:`is_final`)."""
    rep = Report()
    for m, y in enumerate(form.base.target):
        top_y = form.fibres[y].top
        hypothesis = cls.is_TM or order.has(y, top_y, top_y)
        rep.count("final-thick")
        if hypothesis and final[m] and not form.is_thick(m):
            rep.add("final-thick", where=form.base.names[m])
    return rep


def transfer_laws_check(form: FormInstance, strict_witness: Sequence[Witness], final_witness: Sequence[Witness]) -> Report:
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
    a section.

    ``strict_witness`` and ``final_witness`` hold each morphism's witness
    by number, None where it is strict or final (:func:`strict_violation`,
    :func:`final_violation`). Each pair clause is walked by morphism number
    over the pairs its hypothesis admits, not over every composable pair:
    the compose clauses over the class's hom-blocks (:func:`_compose_walk`),
    the cancel clauses over retractions f, the as-printed clauses over
    retractions g and the first-factor clauses over sections f, reading
    composites a row of the composition table at a time
    (:meth:`CategoryPresentation.composites`,
    :meth:`CategoryPresentation.before`). The violations are then put in
    the order of a walk of every composable pair, f, then g, then clause,
    so counts, violations and their order are those of that walk
    (``transfer_laws_check_dense`` in ``tests/oracles.py``)."""
    base = form.base
    names, n, kinds = base.names, len(base.names), base.kinds
    strict = [w is None for w in strict_witness]
    final = [w is None for w in final_witness]
    flags = refl_sec, refl_ret, _ = _reflection_flags(form)
    rep = Report()
    _kind_clauses(rep, names, strict, final, kinds, flags, strict_witness, final_witness)
    found: list[tuple[int, int, int]] = []  # (f, g, clause) per violation, clause a PAIR_CLAUSES index
    compose_strict, compose_final = _compose_walk(base, strict, 0, found), _compose_walk(base, final, 1, found)
    cancel_strict = cancel_final = printed_strict = printed_final = first_section_strict = first_section_final = 0
    for f in range(n):
        # f a retraction: g is in the class when g∘f is; f a section: f is
        cancel = refl_ret and kinds[f].is_retraction
        first_section = refl_sec and kinds[f].is_section
        if not (cancel or first_section):
            continue
        strict_f, final_f = strict[f], final[f]
        for g, gf in base.after(f):
            if strict[gf]:
                if cancel:
                    cancel_strict += 1
                    if not strict[g]:
                        found.append((f, g, 2))
                if first_section:
                    first_section_strict += 1
                    if not strict_f:
                        found.append((f, g, 6))
            if final[gf]:
                if cancel:
                    cancel_final += 1
                    if not final[g]:
                        found.append((f, g, 3))
                if first_section:
                    first_section_final += 1
                    if not final_f:
                        found.append((f, g, 7))
    for g in range(n) if refl_sec else ():
        # g a retraction: f is in the class when g∘f is (as printed)
        if not kinds[g].is_retraction:
            continue
        row = base.before(g)
        for f in base.by_target[base.source[g]]:
            gf = row[f]
            if strict[gf]:
                printed_strict += 1
                if not strict[f]:
                    found.append((f, g, 4))
            if final[gf]:
                printed_final += 1
                if not final[f]:
                    found.append((f, g, 5))
    found.sort()
    for f, g, k in found:
        rep.add(PAIR_CLAUSES[k], where=f"{names[g]};{names[f]}")
    counts = (
        compose_strict, compose_final, cancel_strict, cancel_final,
        printed_strict, printed_final, first_section_strict, first_section_final,
    )
    for clause, count in zip(PAIR_CLAUSES, counts):
        rep.count(clause, count)
    return rep


def _compose_walk(base: CategoryPresentation, member: Sequence[bool], k: int, found: list) -> int:
    """Compose clause ``k`` of :data:`PAIR_CLAUSES` for the class
    ``member`` (by morphism number): g∘f is in the class for every f in it
    and g in it after f. Every such pair is a clause instance, so the count
    is, per object y, the class members into y times those out of y. The
    pairs of f in hom(x, y) and g in hom(y, z) are walked only where
    hom(x, z) does not lie wholly in the class, since elsewhere g∘f cannot
    leave it. Appends (f, g, k) per violation to ``found`` and returns the
    count."""
    objects = range(len(base.objects))
    count = 0
    for y in objects:
        gs = base.by_source[y]
        count += sum(map(member.__getitem__, base.by_target[y])) * sum(member[gs.start : gs.stop])
    if all(member):
        return count
    blocks = base.blocks
    partial = [(x, z) for x in objects for z, block in enumerate(blocks[x]) if not all(member[block.start : block.stop])]
    if partial:
        inside = [[list(compress(block, member[block.start : block.stop])) for block in row] for row in blocks]
        for x, z in partial:
            for y in objects:
                fs = inside[x][y]
                for g in inside[y][z] if fs else ():
                    row = base.before(g)
                    found.extend((f, g, k) for f in fs if not member[row[f]])
    return count


def _reflection_flags(form: FormInstance) -> tuple[bool, bool, bool]:
    """Whether the section, retraction and iso round trips all hold."""
    return tuple(kind not in form.first_roundtrip_failure for kind in ("section", "retraction", "iso"))


def _kind_clauses(rep: Report, names, strict, final, kinds, flags, strict_witness, final_witness) -> None:
    """The clauses on one morphism, added to ``rep`` in morphism order,
    under the reflection ``flags`` (:func:`_reflection_flags`); ``names``
    are the morphisms' names and the rest is held by number."""
    refl_sec, refl_ret, refl_iso = flags
    retraction_final_strict = section_strict_final = iso = 0
    for m, k in enumerate(kinds):
        if refl_ret and k.is_retraction and final[m]:
            retraction_final_strict += 1
            if not strict[m]:
                rep.add("retraction-final-strict", where=names[m], witness=(strict_witness[m],))
        if refl_sec and k.is_section and strict[m]:
            section_strict_final += 1
            if not final[m]:
                rep.add("section-strict-final", where=names[m], witness=(final_witness[m],))
        if refl_iso and k.is_iso:
            iso += 1
            if not strict[m]:
                rep.add("iso-strict", where=names[m])
            if not final[m]:
                rep.add("iso-final", where=names[m])
    rep.count("retraction-final-strict", retraction_final_strict)
    rep.count("section-strict-final", section_strict_final)
    rep.count("iso-strict", iso)
    rep.count("iso-final", iso)


def strict_via_operators(
    form: FormInstance,
    strict: Sequence[bool],
    cls: OrderClass,
    closure: Optional[Operator],
    interior: Optional[Operator],
) -> Report:
    """Strictness through the derived operators, per morphism in morphism
    order.

    ``strict`` holds each morphism's verdict for the order, by number
    (:func:`is_strict`), and ``cls`` its class, which is meet- or join-stable: the caller's class
    gate (:data:`formkit.checks.SKIP_NOTES`) guarantees it. ``closure`` and
    ``interior`` are the operators derived from the same order
    (:func:`closure_from_order` when it is meet-stable,
    :func:`interior_from_order` when it is join-stable, else None).

    Meet-stable: f is strict iff push commutes with the derived closure.
    Join-stable: pull commuting with the derived interior implies f strict
    (one direction only)."""
    rep = Report()
    base = form.base
    for f, (x, y) in enumerate(zip(base.source, base.target)):
        push, pull = form.push[f], form.pull[f]
        if cls.is_TM:
            cx, cy = closure.maps[x], closure.maps[y]
            commutes = all(push[cx[a]] == cy[push[a]] for a in range(form.fibres[x].size))
            rep.count("strict-iff-closure-commutes")
            if strict[f] != commutes:
                rep.add("strict-iff-closure-commutes", where=base.names[f], witness=(strict[f], commutes))
        if cls.is_TJ:
            ix, iy = interior.maps[x], interior.maps[y]
            commutes = all(pull[iy[b]] == ix[pull[b]] for b in range(form.fibres[y].size))
            rep.count("interior-commutes-implies-strict")
            if commutes and not strict[f]:
                rep.add("interior-commutes-implies-strict", where=base.names[f], witness=(strict[f], commutes))
    return rep


def cohereditary_operator_check(form: FormInstance, closure: Operator, final: Sequence[bool]) -> Report:
    """A meet-stable order is cohereditary iff the derived closure is
    computed on every retraction by pulling, closing, and pushing back.
    The order is meet-stable: the caller's class gate
    (:data:`formkit.checks.SKIP_NOTES`) guarantees it. ``closure`` is the
    closure derived from the order and ``final`` each morphism's finality
    for it, by number (:func:`is_final`); the order side reads only
    ``final``."""
    rep = Report()
    base = form.base
    retractions = [f for f, k in enumerate(base.kinds) if k.is_retraction]
    cohered = all(final[f] for f in retractions)
    operator_side = True
    witness = None
    for f in retractions:
        x, y = base.source[f], base.target[f]
        push, pull = form.push[f], form.pull[f]
        cx, cy = closure.maps[x], closure.maps[y]
        for b in range(form.fibres[y].size):
            if cy[b] != push[cx[pull[b]]]:
                operator_side = False
                witness = (base.names[f], b)
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


def classify_morphism(form: FormInstance, f: int, sv: Witness, fv: Witness) -> dict:
    """Morphism f's classes from its strict and final witnesses ``sv`` and
    ``fv`` (:func:`strict_violation`, :func:`final_violation`), as the
    report's entry under its name."""
    return {
        "morphism": form.base.names[f],
        "strict": sv is None,
        "final": fv is None,
        "thick": form.is_thick(f),
        "kind": form.base.kinds[f].to_dict(),
        "witnesses": [list(w) for w in (sv, fv) if w is not None],
    }

"""Morphism classes relative to a topogenous order: strict, final, thick,
cohereditary, and the theorem cross-checks connecting them.

Every theorem check computes both sides independently and reports any
disagreement; nothing is taken as a definition of the other side, so a gap
between the general claims and a small finite model would surface here.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .forms import FormInstance, MorphismKind
from .lattice import bits, low_bit
from .report import Report
from .topogenous import Operator, OrderClass, TopogenousOrder

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


class MorphismReport:
    def __init__(
        self,
        morphism: str,
        strict: bool,
        final: bool,
        thick: bool,
        kind: MorphismKind,
        witnesses: Optional[list[tuple]] = None,
    ):
        self.morphism, self.strict, self.final, self.thick, self.kind = morphism, strict, final, thick, kind
        self.witnesses = [] if witnesses is None else witnesses

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
    """First (a, b) with a related to pull(b) but push(a) not related to b.

    Per a, the preimage of row_a under pull is every b with pull(b)
    related to a (:meth:`MonotoneMap.preimages`); its bits outside
    ``rows_y[push a]`` are the violations at a, so the first witness is the
    one of the pair sweep :func:`strict_violation_dense`."""
    x, y = form.base.dom[f], form.base.cod[f]
    rows_x, rows_y = order.rel[x], order.rel[y]
    push, pull = form.push_maps[f].table, form.pull_maps[f]
    for a, pre in enumerate(pull.preimages(rows_x)):
        bad = pre & ~rows_y[push[a]]
        if bad:
            return (a, low_bit(bad))
    return None


def strict_violation_dense(form: FormInstance, order: TopogenousOrder, f: str) -> Optional[tuple[int, int]]:
    """The same witness from a sweep of every pair (a, b): the oracle."""
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


def _rows_at(rows: Sequence[int], table: Sequence[int]) -> list[int]:
    """``rows`` with every row at an index the table does not take set to
    0, so a batch of preimages costs nothing where it is not read."""
    taken = set(table)
    return [row if v in taken else 0 for v, row in enumerate(rows)]


def final_violation(form: FormInstance, order: TopogenousOrder, f: str) -> Optional[tuple[int, int]]:
    """First (b, b') related after pulling but not before.

    The b' whose pull is related to pull(b) are the preimage of
    ``rows_x[pull b]`` under pull (:meth:`MonotoneMap.preimages`, taken
    only of the rows at values of pull); its bits outside ``rows_y[b]``
    are the violations at b, so the first witness is the one of
    :func:`final_violation_dense`."""
    x, y = form.base.dom[f], form.base.cod[f]
    rows_x, rows_y = order.rel[x], order.rel[y]
    pull = form.pull_maps[f]
    pulled = pull.preimages(_rows_at(rows_x, pull.table))
    for b, c in enumerate(pull.table):
        bad = pulled[c] & ~rows_y[b]
        if bad:
            return (b, low_bit(bad))
    return None


def final_violation_dense(form: FormInstance, order: TopogenousOrder, f: str) -> Optional[tuple[int, int]]:
    """The same witness from a sweep of every pair (b, b'): the oracle."""
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


def strict_table(form: FormInstance, order: TopogenousOrder) -> dict[str, bool]:
    """Whether each morphism is strict for the order."""
    return {f: is_strict(form, order, f) for f in form.base.morphisms()}


def final_table(form: FormInstance, order: TopogenousOrder) -> dict[str, bool]:
    """Whether each morphism is final for the order."""
    return {f: is_final(form, order, f) for f in form.base.morphisms()}


def push_preserves_order(form: FormInstance, order: TopogenousOrder, f: str) -> Optional[tuple[int, int]]:
    """First related (a, b) in the domain fibre whose pushes are unrelated.

    Per a, the preimage of ``rows_y[push a]`` under push is every b whose
    push is related to push(a) (:meth:`MonotoneMap.preimages`, taken only
    of the rows at values of push); the bits of ``rows_x[a]`` outside it
    are the violations at a, so the first witness is the one of the pair
    sweep :func:`push_preserves_order_dense`."""
    x, y = form.base.dom[f], form.base.cod[f]
    rows_x, rows_y = order.rel[x], order.rel[y]
    push = form.push_maps[f]
    pushed = push.preimages(_rows_at(rows_y, push.table))
    for a, v in enumerate(push.table):
        bad = rows_x[a] & ~pushed[v]
        if bad:
            return (a, low_bit(bad))
    return None


def push_preserves_order_dense(form: FormInstance, order: TopogenousOrder, f: str) -> Optional[tuple[int, int]]:
    """The same witness from a sweep of every related pair: the oracle."""
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
    return rep


def final_thick_check(
    form: FormInstance,
    order: TopogenousOrder,
    cls: OrderClass,
    final: Mapping[str, bool],
) -> Report:
    """Final morphisms must be thick when the fibre top is self-related (or
    the order is meet-stable, which forces that). ``cls`` is the order's
    class and ``final`` holds each morphism's finality for it
    (:func:`final_table`)."""
    rep = Report()
    for m in form.base.morphisms():
        y = form.base.cod[m]
        top_y = form.fibre(y).top
        hypothesis = cls.is_TM or order.has(y, top_y, top_y)
        rep.count("final-thick")
        if hypothesis and final[m] and not form.is_thick(m):
            rep.add("final-thick", where=m)
    return rep


def transfer_laws_check(
    form: FormInstance,
    order: TopogenousOrder,
    strict: Mapping[str, bool],
    final: Mapping[str, bool],
) -> Report:
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

    ``strict`` and ``final`` hold each morphism's verdict
    (:func:`strict_table`, :func:`final_table`). The clauses, stated once in
    :func:`_transfer_laws`, are walked here by morphism number, each f's
    composites one slice of the composition table
    (:meth:`CategoryPresentation.after`). Counts and violations are those
    of :func:`transfer_laws_check_dense`."""
    names = form.base.names
    return _transfer_laws(
        form, order, range(len(names)), names,
        [strict[m] for m in names], [final[m] for m in names], form._kinds,
        form.base.after, strict_violation, final_violation,
    )


def transfer_laws_check_dense(form: FormInstance, order: TopogenousOrder) -> Report:
    """The clauses of :func:`transfer_laws_check` over name-keyed composable
    pairs, string composition, per-morphism kind scans and the pair sweeps
    for strictness and finality: the oracle."""
    base = form.base
    names = base.morphisms()
    after: dict[str, list[tuple[str, str]]] = {m: [] for m in names}
    for g, f in base.composable_pairs():
        after[f].append((g, base.compose(g, f)))
    return _transfer_laws(
        form, order, names, {m: m for m in names},
        {m: strict_violation_dense(form, order, m) is None for m in names},
        {m: final_violation_dense(form, order, m) is None for m in names},
        {m: form.morphism_kind_dense(m) for m in names},
        after.__getitem__, strict_violation_dense, final_violation_dense,
    )


def _transfer_laws(
    form: FormInstance, order: TopogenousOrder, keys, names, strict, final, kinds, after, strict_witness, final_witness
) -> Report:
    """The clauses of :func:`transfer_laws_check`, stated once over morphism
    keys, each a morphism's number or its name. ``keys`` lists them in
    number order and ``names[m]`` is m's name; ``strict``, ``final`` and
    ``kinds`` hold verdicts and :class:`MorphismKind` by key; ``after(f)``
    gives (g, g∘f) for every g composable after f, in number order; the
    witnesses are called as ``(form, order, name)``. Violations come per
    morphism first, then per composable pair, f outer and g inner."""
    rep = Report()
    add = rep.add
    refl_sec, _ = form.check_reflects("section")
    refl_ret, _ = form.check_reflects("retraction")
    refl_iso, _ = form.check_reflects("iso")
    # each clause is tallied in a local int and counted once, after the sweeps:
    # a count call per pair cost more than the clause it counted
    retraction_final_strict = section_strict_final = iso = 0
    compose_strict = compose_final = cancel_strict = cancel_final = 0
    printed_strict = printed_final = first_section_strict = first_section_final = 0
    for m in keys:
        k = kinds[m]
        if refl_ret and k.is_retraction and final[m]:
            retraction_final_strict += 1
            if not strict[m]:
                add("retraction-final-strict", where=names[m], witness=(strict_witness(form, order, names[m]),))
        if refl_sec and k.is_section and strict[m]:
            section_strict_final += 1
            if not final[m]:
                add("section-strict-final", where=names[m], witness=(final_witness(form, order, names[m]),))
        if refl_iso and k.is_iso:
            iso += 1
            if not strict[m]:
                add("iso-strict", where=names[m])
            if not final[m]:
                add("iso-final", where=names[m])

    for f in keys:
        strict_f, final_f = strict[f], final[f]
        cancel = refl_ret and kinds[f].is_retraction
        first_section = refl_sec and kinds[f].is_section
        for g, gf in after(f):
            if strict_f and strict[g]:
                compose_strict += 1
                if not strict[gf]:
                    add("compose-strict", where=f"{names[g]};{names[f]}")
            if final_f and final[g]:
                compose_final += 1
                if not final[gf]:
                    add("compose-final", where=f"{names[g]};{names[f]}")
            if cancel:
                if strict[gf]:
                    cancel_strict += 1
                    if not strict[g]:
                        add("cancel-strict", where=f"{names[g]};{names[f]}")
                if final[gf]:
                    cancel_final += 1
                    if not final[g]:
                        add("cancel-final", where=f"{names[g]};{names[f]}")
            if refl_sec and kinds[g].is_retraction:
                if strict[gf]:
                    printed_strict += 1
                    if not strict_f:
                        add("cancel-strict-as-printed", where=f"{names[g]};{names[f]}")
                if final[gf]:
                    printed_final += 1
                    if not final_f:
                        add("cancel-final-as-printed", where=f"{names[g]};{names[f]}")
            if first_section:
                if strict[gf]:
                    first_section_strict += 1
                    if not strict_f:
                        add("cancel-strict-first-factor-section", where=f"{names[g]};{names[f]}")
                if final[gf]:
                    first_section_final += 1
                    if not final_f:
                        add("cancel-final-first-factor-section", where=f"{names[g]};{names[f]}")
    rep.count("retraction-final-strict", retraction_final_strict)
    rep.count("section-strict-final", section_strict_final)
    rep.count("iso-strict", iso)
    rep.count("iso-final", iso)
    rep.count("compose-strict", compose_strict)
    rep.count("compose-final", compose_final)
    rep.count("cancel-strict", cancel_strict)
    rep.count("cancel-final", cancel_final)
    rep.count("cancel-strict-as-printed", printed_strict)
    rep.count("cancel-final-as-printed", printed_final)
    rep.count("cancel-strict-first-factor-section", first_section_strict)
    rep.count("cancel-final-first-factor-section", first_section_final)
    return rep


def strict_via_operators(
    form: FormInstance,
    f: str,
    strict: bool,
    cls: OrderClass,
    closure: Optional[Operator],
    interior: Optional[Operator],
) -> Report:
    """Strictness through the derived operators.

    ``strict`` is f's verdict for the order (:func:`is_strict`); ``closure``
    and ``interior`` are the operators derived from the same order
    (:func:`closure_from_order` when it is meet-stable,
    :func:`interior_from_order` when it is join-stable, else None), which
    the caller derives once for all morphisms.

    Meet-stable branch: strict iff push commutes with the derived closure.
    Join-stable branch: pull commuting with the derived interior implies
    strict (one direction only). Wrong class: skipped with a notice."""
    rep = Report()
    if not cls.is_TM and not cls.is_TJ:
        rep.notes.append(f"{f}: order neither meet- nor join-stable; skipped")
        return rep
    x, y = form.base.dom[f], form.base.cod[f]
    push, pull = form.push_maps[f].table, form.pull_maps[f].table
    if cls.is_TM:
        cx, cy = closure.table(x), closure.table(y)
        commutes = all(push[cx[a]] == cy[push[a]] for a in range(form.fibre(x).size))
        rep.count("strict-iff-closure-commutes")
        if strict != commutes:
            rep.add(
                "strict-iff-closure-commutes",
                where=f,
                witness=(strict, commutes),
            )
    if cls.is_TJ:
        ix, iy = interior.table(x), interior.table(y)
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
    cls: OrderClass,
    closure: Optional[Operator],
    final: Mapping[str, bool],
) -> Report:
    """For meet-stable orders: cohereditary iff the derived closure is
    computed on every retraction by pulling, closing, and pushing back.
    ``closure`` is the closure derived from the order (None when the order
    is not meet-stable) and ``final`` each morphism's finality for it
    (:func:`final_table`); the order side reads only ``final``."""
    rep = Report()
    if not cls.is_TM:
        rep.notes.append("order is not meet-stable; skipped")
        return rep
    cohered = all(final[f] for f in form.base.morphisms() if form.morphism_kind(f).is_retraction)
    operator_side = True
    witness = None
    for f in form.base.morphisms():
        if not form.morphism_kind(f).is_retraction:
            continue
        x, y = form.base.dom[f], form.base.cod[f]
        push, pull = form.push_maps[f].table, form.pull_maps[f].table
        cx, cy = closure.table(x), closure.table(y)
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

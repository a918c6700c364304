"""The check registry: every named check formkit runs, in report order.

An entry names one check, says what it runs on (a form, an order on it, or
an operator), when it applies, and how it computes its report.
check-theorems, verify, classify, replay and search all run checks through
this one list, so a check name means the same computation wherever it
appears. Entries call library functions by their module-level names at run
time, never through references stored here.
"""

from __future__ import annotations

from typing import Callable, Collection, NamedTuple, Optional

from .forms import FormInstance
from .groups import SubgroupForm, preserves_normals
from .lattice import bits, cached_fact
from .morphisms import (
    DISPUTED_CHECKS,
    Witness,
    cohereditary_operator_check,
    final_thick_check,
    final_violation,
    strict_characterization,
    strict_via_operators,
    strict_violation,
    transfer_laws_check,
)
from .report import Report
from .topogenous import (
    Operator,
    OrderClass,
    TopogenousOrder,
    check_T3_pull_form,
    classify_order,
    closure_from_order,
    interior_from_order,
    pulled_table,
    roundtrip_check,
    verify_closure,
    verify_interior,
    verify_order,
)
from .topologies import TopForm, clopen_targets

WITNESS_SCHEMA = 1


def check_from_report(
    name: str,
    rep: Report,
    witness: Optional[dict] = None,
    reported_only: bool = False,
    data: Optional[dict] = None,
) -> dict:
    """A check's entry in a run report: its name, status (pass, fail or
    reported), ``checks_run``, violations in a stable order and notes, with
    ``data`` when given and ``witness`` when given and the check failed."""
    out = {
        "name": name,
        "status": "pass" if rep.ok else ("reported" if reported_only else "fail"),
        "checks_run": rep.checks_run,
        "violations": [v.to_dict() for v in sorted(rep.violations, key=lambda v: (v.check, v.where, str(v.witness)))],
        "notes": list(rep.notes),
    }
    if data is not None:
        out["data"] = data
    if witness is not None and not rep.ok:
        out["witness"] = witness
    return out


def make_witness(check: str, recipe: dict) -> dict:
    """A document that `formkit replay` turns back into this one check."""
    return {"schema": WITNESS_SCHEMA, "check": check, "recipe": recipe}


class CheckContext:
    """What checks run on. Facts derived from the order are computed on
    first use and shared by every check of one command: its axioms and
    class, the derived closure and interior operators, the pulled-rows
    table, each morphism's strict and final witness, and the clopen table
    of a topology instance. Each fact is computed only when a check asks
    for it, so a context that runs one check pays for what that check
    reads. The per-morphism facts (``pulled``, ``strict_witness``,
    ``final_witness``, ``strict``, ``final`` and ``clopen``) are lists by
    morphism number; a check names a morphism only in the violations it
    reports.

    The pulled-rows table (:func:`formkit.topogenous.pulled_rows`) is read
    by T3, the pull form, the strict and final witnesses and
    theta-clopen-strict-per-pair; the witness memo by the strict and final
    tables, strict-iff-push, the transfer laws and classify. The other side
    of each cross-check is computed on its own: push preservation from push
    preimages, the pull form's own mask test, the derived operators."""

    def __init__(
        self,
        form: FormInstance,
        order: Optional[TopogenousOrder] = None,
        operator: Optional[Operator] = None,
        bundle: object = None,  # the built instance: TopForm | SubgroupForm | PartitionForm
        recipe: Optional[dict] = None,
    ):
        self.form, self.order, self.operator, self.bundle = form, order, operator, bundle
        self.recipe = {} if recipe is None else recipe

    @cached_fact
    def pulled(self) -> list[list[int]]:
        return pulled_table(self.form, self.order)

    @cached_fact
    def axioms(self) -> Report:
        return verify_order(self.form, self.order, self.pulled)

    @cached_fact
    def cls(self) -> OrderClass:
        return classify_order(self.form, self.order)

    @cached_fact
    def closure(self) -> Operator:
        return closure_from_order(self.form, self.order)

    @cached_fact
    def interior(self) -> Operator:
        return interior_from_order(self.form, self.order)

    @cached_fact
    def strict_witness(self) -> list[Witness]:
        return [strict_violation(self.form, self.order, f, rows) for f, rows in enumerate(self.pulled)]

    @cached_fact
    def final_witness(self) -> list[Witness]:
        return [final_violation(self.form, self.order, f, rows) for f, rows in enumerate(self.pulled)]

    @cached_fact
    def strict(self) -> list[bool]:
        return [w is None for w in self.strict_witness]

    @cached_fact
    def final(self) -> list[bool]:
        return [w is None for w in self.final_witness]

    @cached_fact
    def transfer(self) -> tuple[Report, Report]:
        """The transfer laws, split into gating and disputed clauses."""
        rep = transfer_laws_check(self.form, self.strict_witness, self.final_witness)
        gating, disputed = Report(checks_run=rep.checks_run), Report(checks_run=rep.checks_run)
        for v in rep.violations:
            (disputed if v.check in DISPUTED_CHECKS else gating).violations.append(v)
        return gating, disputed

    @cached_fact
    def clopen(self) -> list[Optional[list[int]]]:
        """Per surjection of a topology instance, per domain topology: the
        mask of the codomain topologies it is a clopen map for
        (:func:`formkit.topologies.clopen_targets`); None at a morphism
        that is not a surjection."""
        b, base = self.bundle, self.form.base
        return [
            clopen_targets(fn, b.topologies[x], b.topologies[y]) if fn.is_surjective() else None
            for fn, x, y in zip(b.functions, base.source, base.target)
        ]

    def derived(self) -> dict[str, Operator]:
        """The operators the order's class makes meaningful, by kind."""
        out = {}
        if self.cls.is_TM:
            out["closure"] = self.closure
        if self.cls.is_TJ:
            out["interior"] = self.interior
        return out

    def on(self, instance: type, order_name: str) -> bool:
        """Whether this is the named order on a built instance of that type."""
        return isinstance(self.bundle, instance) and self.recipe.get("order") == order_name


# The class gate of the registry, and the only one: a check whose ``stable``
# key the order does not meet is reported as skipped with this note, and
# never run, so the kernels it calls assume the class.
SKIP_NOTES = {
    "TM": "order is not meet-stable",
    "TM|TJ": "order is neither meet- nor join-stable",
}


class Check(NamedTuple):
    name: str
    run: Callable[[CheckContext], Report]
    needs: str = "order"  # what the context must carry: "form", "order" or "operator"
    applies: Optional[Callable[[CheckContext], bool]] = None  # omitted from the report when false
    stable: str = ""  # a SKIP_NOTES key: reported as skipped when the order lacks that class
    reported_only: bool = False  # violations are reported but do not fail the run
    selected_by: str = ""  # another check name that also selects this one
    data: Optional[Callable[[CheckContext], dict]] = None

    def admits(self, ctx: CheckContext) -> bool:
        """Whether the class gate lets this check run on the context's
        order; the order is classified only for a check with a gate."""
        stable = self.stable
        return not stable or (ctx.cls.is_TM and "TM" in stable) or (ctx.cls.is_TJ and "TJ" in stable)


def _proposition(name: str, hypothesis, conclusion) -> Callable[[CheckContext], Report]:
    """Per morphism: wherever the hypothesis holds, the conclusion must."""

    def run(ctx: CheckContext) -> Report:
        rep = Report()
        for f, name_f in enumerate(ctx.form.base.names):
            if hypothesis(ctx, f):
                rep.count(name)
                if not conclusion(ctx, f):
                    rep.add(name, where=name_f)
        return rep

    return run


def _surjective(ctx: CheckContext, f: int) -> bool:
    return ctx.bundle.functions[f].is_surjective()


def _clopen_surjection(ctx: CheckContext, f: int) -> bool:
    """A surjection clopen for every pair of topologies on its carriers."""
    targets = ctx.clopen[f]
    if targets is None:
        return False
    full = (1 << len(ctx.bundle.topologies[ctx.form.base.target[f]])) - 1
    return all(m == full for m in targets)


def _everywhere(ctx: CheckContext, f: int) -> bool:
    return True


def _strict(ctx: CheckContext, f: int) -> bool:
    return ctx.strict[f]


def _final(ctx: CheckContext, f: int) -> bool:
    return ctx.final[f]


def _theta_clopen_per_pair(ctx: CheckContext) -> Report:
    """The weaker reading of theta-clopen-strict-literal: the strictness
    implication restricted to the fibre pairs the map is clopen for.

    Per surjection f and domain topology a, the clopen pairs are the bits
    of ``ctx.clopen[f][a]``, and the violations among them the bits also in
    f's pulled row at a (b with pull(b) related to a, ``ctx.pulled``) and
    outside ``rows_y[push a]``."""
    name = "theta-clopen-strict-per-pair"
    form, order = ctx.form, ctx.order
    rep = Report()
    for f, targets in enumerate(ctx.clopen):
        if targets is None:
            continue
        push, rows_y = form.push[f], order.rel[form.base.target[f]]
        for ai, (clopen, pre) in enumerate(zip(targets, ctx.pulled[f])):
            rep.count(name, clopen.bit_count())
            for bi in bits(clopen & pre & ~rows_y[push[ai]]):
                rep.add(name, where=form.base.names[f], witness=(ai, bi))
    return rep


# The example propositions of the built instances, stated per morphism:
# (name, instance type, named order, hypothesis, conclusion).
PROPOSITIONS = (
    ("theta-surjections-final", TopForm, "theta", _surjective, _final),
    ("theta-clopen-strict-literal", TopForm, "theta", _clopen_surjection, _strict),
    ("b-all-strict", TopForm, "b", _everywhere, _strict),
    ("b-all-final", TopForm, "b", _everywhere, _final),
    (
        "strict-iff-preserves-normals", SubgroupForm, "normal-interval", _everywhere,
        lambda ctx, f: _strict(ctx, f) == preserves_normals(ctx.bundle.homs[f]),
    ),
    (
        "final-iff-surjective", SubgroupForm, "normal-interval", _everywhere,
        lambda ctx, f: _final(ctx, f) == ctx.bundle.homs[f].is_surjective(),
    ),
)


def _proposition_check(name, instance, order_name, hypothesis, conclusion) -> Check:
    return Check(
        name,
        _proposition(name, hypothesis, conclusion),
        applies=lambda ctx: ctx.on(instance, order_name),
    )


ORDER_AXIOMS = "order-axioms"

REGISTRY: tuple[Check, ...] = (
    Check("base-category", lambda ctx: ctx.form.base.verify(), needs="form"),
    Check("form-laws", lambda ctx: ctx.form.verify_laws(), needs="form"),
    Check("lifting-iso-laws", lambda ctx: ctx.form.verify_lifting_iso_laws(), needs="form"),
    Check("closure-axioms", lambda ctx: verify_closure(ctx.form, ctx.operator), needs="operator"),
    Check("interior-axioms", lambda ctx: verify_interior(ctx.form, ctx.operator), needs="operator"),
    # The theorem battery: everything below runs on an order.
    Check(ORDER_AXIOMS, lambda ctx: ctx.axioms),
    Check("order-class", lambda ctx: Report(checks_run=1), data=lambda ctx: ctx.cls.to_dict()),
    Check("t3-pull-agreement", lambda ctx: check_T3_pull_form(ctx.form, ctx.order, ctx.pulled)),
    Check("strict-iff-push", lambda ctx: strict_characterization(ctx.form, ctx.order, ctx.strict_witness)),
    Check("final-thick", lambda ctx: final_thick_check(ctx.form, ctx.order, cls=ctx.cls, final=ctx.final)),
    Check(
        "strict-via-operators",
        lambda ctx: strict_via_operators(
            ctx.form, ctx.strict, ctx.cls, ctx.derived().get("closure"), ctx.derived().get("interior")
        ),
        stable="TM|TJ",
    ),
    Check("transfer-laws", lambda ctx: ctx.transfer[0]),
    Check(
        "transfer-laws-disputed-clauses",
        lambda ctx: ctx.transfer[1],
        reported_only=True,
        selected_by="transfer-laws",
    ),
    Check(
        "cohereditary-operator",
        lambda ctx: cohereditary_operator_check(ctx.form, ctx.closure, ctx.final),
        stable="TM",
    ),
    Check(
        "roundtrip",
        lambda ctx: roundtrip_check(ctx.form, ctx.order, cls=ctx.cls, derived=ctx.derived()),
        stable="TM|TJ",
    ),
    *(_proposition_check(*row) for row in PROPOSITIONS),
    Check(
        "theta-clopen-strict-per-pair",
        _theta_clopen_per_pair,
        applies=lambda ctx: ctx.on(TopForm, "theta"),
        reported_only=True,
    ),
)

CHECKS: dict[str, Check] = {c.name: c for c in REGISTRY}
BATTERY: tuple[str, ...] = tuple(c.name for c in REGISTRY if c.needs == "order")
FORM_CHECKS: tuple[str, ...] = tuple(c.name for c in REGISTRY if c.needs == "form")


def battery_selection(selected: Collection[str]) -> tuple[str, ...]:
    """The battery checks a --check selection names, with those they
    select along; the whole battery when nothing is selected."""
    if not selected:
        return BATTERY
    return tuple(c.name for c in REGISTRY if c.name in selected or c.selected_by in selected)


def _result(check: Check, ctx: CheckContext, recipe: Optional[dict]) -> dict:
    if not check.admits(ctx):
        return dict(check_from_report(check.name, Report(notes=[SKIP_NOTES[check.stable]])), status="skipped")
    rep = check.run(ctx)
    witness = make_witness(check.name, recipe) if recipe is not None and not rep.ok else None
    data = check.data(ctx) if check.data else None
    return check_from_report(check.name, rep, witness, check.reported_only, data)


def run_checks(ctx: CheckContext, names: Collection[str], recipe: Optional[dict] = None) -> list[dict]:
    """The named checks that apply to ``ctx``, in registry order; failing
    ones carry a witness of ``recipe`` when one is given.

    When the context carries an order, its axioms are checked first: they
    are reported when named or when they fail, and a failure ends the run,
    since the other order checks mean nothing on a relation that is not a
    topogenous order."""
    out = []
    if ctx.order is not None:
        if ORDER_AXIOMS in names or not ctx.axioms.ok:
            out.append(_result(CHECKS[ORDER_AXIOMS], ctx, recipe))
        if not ctx.axioms.ok:
            return out
    for check in REGISTRY:
        if check.name == ORDER_AXIOMS or check.name not in names:
            continue
        if check.applies is None or check.applies(ctx):
            out.append(_result(check, ctx, recipe))
    return out

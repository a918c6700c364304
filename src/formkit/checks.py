"""The check registry: every named check formkit runs, in report order.

An entry names one check, says what it runs on (a form, an order on it, or
an operator), when it applies, and how it computes its report.
check-theorems, verify, classify, replay and search all run checks through
this one list, so a check name means the same computation wherever it
appears. Entries call library functions by their module-level names at run
time, never through references stored here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Collection, Optional

from .forms import FormInstance
from .groups import SubgroupForm, preserves_normals
from .morphisms import (
    DISPUTED_CHECKS,
    cohereditary_operator_check,
    final_thick_check,
    is_final,
    is_strict,
    strict_characterization,
    strict_via_operators,
    transfer_laws_check,
)
from .report import Report
from .topogenous import (
    Operator,
    OrderClass,
    TopogenousOrder,
    check_T3_pull_form,
    classify_order,
    roundtrip_check,
    verify_closure,
    verify_interior,
    verify_order,
)
from .topologies import TopForm, is_clopen_map

WITNESS_SCHEMA = 1


@dataclass
class CheckResult:
    name: str
    status: str  # pass | fail | reported | skipped
    checks_run: int = 0
    violations: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    data: Optional[dict] = None
    witness: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "status": self.status,
            "checks_run": self.checks_run,
            "violations": self.violations,
            "notes": self.notes,
        }
        if self.data is not None:
            out["data"] = self.data
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def check_from_report(
    name: str,
    rep: Report,
    witness: Optional[dict] = None,
    reported_only: bool = False,
    data: Optional[dict] = None,
) -> CheckResult:
    status = "pass" if rep.ok else ("reported" if reported_only else "fail")
    return CheckResult(
        name=name,
        status=status,
        checks_run=rep.checks_run,
        violations=[v.to_dict() for v in sorted(rep.violations, key=lambda v: (v.check, v.where, str(v.witness)))],
        notes=list(rep.notes),
        data=data,
        witness=witness if not rep.ok else None,
    )


def make_witness(check: str, recipe: dict) -> dict:
    """A document that `formkit replay` turns back into this one check."""
    return {"schema": WITNESS_SCHEMA, "check": check, "recipe": recipe}


@dataclass(eq=False)
class CheckContext:
    """What checks run on. Facts derived from the order are computed on
    first use and shared by every check of one command."""

    form: FormInstance
    order: Optional[TopogenousOrder] = None
    operator: Optional[Operator] = None
    bundle: object = None  # the built instance: TopForm | SubgroupForm | PartitionForm
    recipe: dict = field(default_factory=dict)

    @cached_property
    def axioms(self) -> Report:
        return verify_order(self.form, self.order)

    @cached_property
    def cls(self) -> OrderClass:
        return classify_order(self.form, self.order)

    @cached_property
    def transfer(self) -> tuple[Report, Report]:
        """The transfer laws, split into gating and disputed clauses."""
        rep = transfer_laws_check(self.form, self.order)
        gating, disputed = Report(checks_run=rep.checks_run), Report(checks_run=rep.checks_run)
        for v in rep.violations:
            (disputed if v.check in DISPUTED_CHECKS else gating).violations.append(v)
        return gating, disputed

    def on(self, instance: type, order_name: str) -> bool:
        """Whether this is the named order on a built instance of that type."""
        return isinstance(self.bundle, instance) and self.recipe.get("order") == order_name


SKIP_NOTES = {
    "TM": "order is not meet-stable",
    "TM|TJ": "order is neither meet- nor join-stable",
}


@dataclass(frozen=True)
class Check:
    name: str
    run: Callable[[CheckContext], Report]
    needs: str = "order"  # what the context must carry: "form", "order" or "operator"
    applies: Optional[Callable[[CheckContext], bool]] = None  # omitted from the report when false
    stable: str = ""  # a SKIP_NOTES key: reported as skipped when the order lacks that class
    reported_only: bool = False  # violations are reported but do not fail the run
    selected_by: str = ""  # another check name that also selects this one
    data: Optional[Callable[[CheckContext], dict]] = None


def _per_morphism(ctx: CheckContext, one: Callable[[str], Report]) -> Report:
    """One report over all morphisms: counts and violations add up, the
    per-morphism notes are dropped."""
    rep = Report()
    for f in ctx.form.base.morphisms():
        part = one(f)
        rep.checks_run += part.checks_run
        rep.violations.extend(part.violations)
    return rep


def _proposition(name: str, hypothesis, conclusion) -> Callable[[CheckContext], Report]:
    """Per morphism: wherever the hypothesis holds, the conclusion must."""

    def run(ctx: CheckContext) -> Report:
        rep = Report()
        for f in ctx.form.base.morphisms():
            if hypothesis(ctx, f):
                rep.count(name)
                if not conclusion(ctx, f):
                    rep.add(name, where=f)
        return rep

    return run


def _surjective(ctx: CheckContext, f: str) -> bool:
    return ctx.bundle.functions[f].is_surjective()


def _clopen_surjection(ctx: CheckContext, f: str) -> bool:
    """A surjection clopen for every pair of topologies on its carriers."""
    b = ctx.bundle
    fn = b.functions[f]
    if not fn.is_surjective():
        return False
    x, y = ctx.form.base.dom[f], ctx.form.base.cod[f]
    return all(is_clopen_map(fn, tx, ty) for tx in b.topologies[x] for ty in b.topologies[y])


def _everywhere(ctx: CheckContext, f: str) -> bool:
    return True


def _strict(ctx: CheckContext, f: str) -> bool:
    return is_strict(ctx.form, ctx.order, f)


def _final(ctx: CheckContext, f: str) -> bool:
    return is_final(ctx.form, ctx.order, f)


def _theta_clopen_per_pair(ctx: CheckContext) -> Report:
    """The weaker reading of theta-clopen-strict-literal: the strictness
    implication restricted to the fibre pairs the map is clopen for."""
    name = "theta-clopen-strict-per-pair"
    form, order, b = ctx.form, ctx.order, ctx.bundle
    rep = Report()
    for f in form.base.morphisms():
        fn = b.functions[f]
        if not fn.is_surjective():
            continue
        x, y = form.base.dom[f], form.base.cod[f]
        push, pull = form.push_maps[f].table, form.pull_maps[f].table
        rows_x, rows_y = order.rel[x], order.rel[y]
        for ai, tx in enumerate(b.topologies[x]):
            for bi, ty in enumerate(b.topologies[y]):
                if not is_clopen_map(fn, tx, ty):
                    continue
                rep.count(name)
                if (rows_x[ai] >> pull[bi]) & 1 and not (rows_y[push[ai]] >> bi) & 1:
                    rep.add(name, where=f, witness=(ai, bi))
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
    Check("t3-pull-agreement", lambda ctx: check_T3_pull_form(ctx.form, ctx.order)),
    Check(
        "strict-iff-push",
        lambda ctx: _per_morphism(ctx, lambda f: strict_characterization(ctx.form, ctx.order, f)),
    ),
    Check("final-thick", lambda ctx: final_thick_check(ctx.form, ctx.order, cls=ctx.cls)),
    Check(
        "strict-via-operators",
        lambda ctx: _per_morphism(ctx, lambda f: strict_via_operators(ctx.form, ctx.order, f, cls=ctx.cls)),
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
        lambda ctx: cohereditary_operator_check(ctx.form, ctx.order, cls=ctx.cls),
        stable="TM",
    ),
    Check("roundtrip", lambda ctx: roundtrip_check(ctx.form, ctx.order, cls=ctx.cls), stable="TM|TJ"),
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


def _result(check: Check, ctx: CheckContext, recipe: Optional[dict]) -> CheckResult:
    if check.stable and not (
        (ctx.cls.is_TM and "TM" in check.stable) or (ctx.cls.is_TJ and "TJ" in check.stable)
    ):
        return CheckResult(check.name, "skipped", notes=[SKIP_NOTES[check.stable]])
    rep = check.run(ctx)
    witness = make_witness(check.name, recipe) if recipe is not None and not rep.ok else None
    data = check.data(ctx) if check.data else None
    return check_from_report(check.name, rep, witness, check.reported_only, data)


def run_checks(ctx: CheckContext, names: Collection[str], recipe: Optional[dict] = None) -> list[CheckResult]:
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

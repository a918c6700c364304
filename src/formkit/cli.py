"""The formkit command line: verify, derive, classify, check-theorems,
enumerate, instance, search, replay.

Reports are JSON on stdout (or text with --format text), deterministic for
identical inputs: stable ordering, no timestamps in the payload. Wall time
goes to stderr. Exit codes: 0 all requested checks pass, 1 check failures
(witnesses in the report), 2 usage or malformed input.

Failing checks embed a witness object that replays that single check in
isolation: save it to a file and run `formkit replay <witness.json>`.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Optional

import click

from . import __version__
from .checks import (
    BATTERY,
    CHECKS,
    FORM_CHECKS,
    WITNESS_SCHEMA,
    CheckContext,
    CheckResult,
    battery_selection,
    check_from_report,
    make_witness,
    run_checks,
)
from .groups import (
    build_grp_form,
    normal_interval_order,
    normal_subgroup_masks,
    standard_corpus,
    subgroup_masks,
)
from .jsonio import (
    SchemaError,
    dump_json,
    form_from_dict,
    form_to_dict,
    group_from_dict,
    is_int,
    lattice_from_dict,
    load_json,
    operator_from_dict,
    operator_to_dict,
    order_from_dict,
    order_to_dict,
    partition_to_dict,
    topology_to_dict,
)
from .lattice import bits
from .morphisms import classify_morphism
from .partitions import build_quot_form, enumerate_partitions
from .report import InputError, Report
from .search import CLAIMS, run_case, run_search
from .topogenous import (
    OPERATOR_KINDS,
    TopogenousOrder,
    leq_order,
    operator_from_order,
    order_from_operator,
)
from .topologies import (
    b_order,
    b_relation,
    build_top_form,
    enumerate_topologies,
    theta_order,
    theta_relation,
)


# -- run report ------------------------------------------------------------------


@dataclass
class RunReport:
    command: list[str]
    inputs: dict[str, str] = field(default_factory=dict)
    checks: list[CheckResult] = field(default_factory=list)
    payload: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self) -> dict:
        out = {
            "command": self.command,
            "version": __version__,
            "inputs": dict(sorted(self.inputs.items())),
            "checks": [c.to_dict() for c in self.checks],
            "ok": self.ok,
        }
        if self.payload is not None:
            out["payload"] = self.payload
        return out

    def render_text(self) -> str:
        lines = [f"formkit {__version__}: {' '.join(self.command)}"]
        for path, digest in sorted(self.inputs.items()):
            lines.append(f"input {path} {digest}")
        for c in self.checks:
            lines.append(f"[{c.status.upper():8s}] {c.name} ({c.checks_run} checks)")
            for v in c.violations[:5]:
                lines.append(f"    witness: {v}")
            if len(c.violations) > 5:
                lines.append(f"    ... {len(c.violations) - 5} more")
            for n in c.notes:
                lines.append(f"    note: {n}")
        lines.append("OK" if self.ok else "FAIL")
        return "\n".join(lines)


def emit(ctx: click.Context, report: RunReport, started: float) -> None:
    fmt = ctx.obj["format"]
    if fmt == "json":
        click.echo(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        click.echo(report.render_text())
    click.echo(f"elapsed: {time.monotonic() - started:.3f}s", err=True)
    ctx.exit(0 if report.ok else 1)


def fail_usage(message: str) -> None:
    raise click.UsageError(message)


# -- input loading -----------------------------------------------------------------


def read_file(path: str, parse, inputs: dict[str, str]):
    """Parse a JSON input file and record its digest in ``inputs``."""
    doc = load_json(path)
    with open(path, "rb") as fh:
        inputs[path] = "sha256:" + hashlib.sha256(fh.read()).hexdigest()
    return parse(doc, where=path)


NAMED_ORDERS = ("leq", "theta", "b", "normal-interval")


def named_order(name: str, form, bundle, kind: Optional[str]):
    if name == "leq":
        return leq_order(form)
    if (kind, name) == ("top", "theta"):
        return theta_order(bundle)
    if (kind, name) == ("top", "b"):
        return b_order(bundle)
    if (kind, name) == ("grp", "normal-interval"):
        return normal_interval_order(bundle)
    fail_usage(f"order {name!r} is not defined for instance kind {kind!r}")


def parse_sizes(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s != ""]
    except ValueError:
        fail_usage(f"--sizes expects comma-separated integers, got {text!r}")


def instance_recipe(kind: str, sizes: Optional[str], corpus: str, max_order: int) -> dict:
    if kind == "grp":
        return {"kind": "grp", "corpus": corpus, "max_order": max_order}
    return {"kind": kind, "sizes": parse_sizes(sizes or "2")}


def _field(recipe: dict, key: str, ok, where: str, default=None):
    value = recipe.get(key, default)
    if not ok(value):
        raise SchemaError(f"{where}: recipe field {key!r} has an unusable value {value!r}")
    return value


def build_instance(recipe: dict, where: str):
    """The built-in instance an instance recipe names."""
    kind = recipe["kind"]
    if kind == "grp":
        if recipe.get("corpus", "standard") != "standard":
            fail_usage(f"unknown corpus {recipe['corpus']!r}; only 'standard' is built in")
        return build_grp_form(standard_corpus(_field(recipe, "max_order", is_int, where, 8)))
    if kind in ("top", "quot"):
        sizes = _field(recipe, "sizes", lambda v: isinstance(v, list) and all(map(is_int, v)), where, [])
        return (build_top_form if kind == "top" else build_quot_form)(sizes or [2])
    fail_usage(f"unknown instance kind {kind!r}")


def recipe_from_flags(
    form_path: Optional[str],
    order_path: Optional[str],
    order_name: Optional[str],
    instance: Optional[str],
    sizes: Optional[str],
    corpus: str,
    max_order: int,
) -> dict:
    """The recipe the input flags describe: an instance with a named order
    or an order file, or a form file with an order file or the leq order.
    Witnesses carry it, so replay rebuilds the same inputs."""
    if instance is not None:
        recipe = instance_recipe(instance, sizes, corpus, max_order)
        if order_path is not None:
            recipe["order_file"] = order_path
        else:
            recipe["order"] = order_name or "leq"
        return recipe
    if form_path is None:
        fail_usage("provide --form FILE (with --order FILE) or --instance KIND")
    if order_path is not None:
        return {"form_file": form_path, "order_file": order_path}
    if order_name in (None, "leq"):
        return {"form_file": form_path, "order": "leq"}
    fail_usage("named orders other than 'leq' need --instance; otherwise pass --order FILE")


def load_recipe(recipe: dict, inputs: dict[str, str], where: str = "recipe") -> CheckContext:
    """Build what a recipe describes, recording the files read in
    ``inputs``: a built-in instance, a form file, or an inline form, each
    with the order, and an inline form also with the operator, it names."""
    if recipe.get("kind") == "inline":
        form = form_from_dict(recipe.get("form"), where=f"{where}#form")
        order = order_from_dict(recipe["order"], where=f"{where}#order") if "order" in recipe else None
        operator = None
        if "operator" in recipe:
            kind = _field(recipe, "operator_kind", lambda v: v in OPERATOR_KINDS, where)
            operator = operator_from_dict(recipe["operator"], kind, where=f"{where}#operator")
        return CheckContext(form, order, operator, recipe=recipe)
    if "kind" in recipe:
        bundle = build_instance(recipe, where)
        form = bundle.form
        kind = recipe["kind"]
    else:
        bundle = None
        form = read_file(_field(recipe, "form_file", lambda v: isinstance(v, str), where), form_from_dict, inputs)
        kind = None
    order = None
    if "order_file" in recipe:
        order = read_file(_field(recipe, "order_file", lambda v: isinstance(v, str), where), order_from_dict, inputs)
    elif "order" in recipe:
        order = named_order(recipe["order"], form, bundle, kind)
    return CheckContext(form, order, bundle=bundle, recipe=recipe)


def inline_recipe(ctx: CheckContext) -> dict:
    """A recipe that carries its form (and order or operator) in full."""
    recipe = {"kind": "inline", "form": form_to_dict(ctx.form)}
    if ctx.order is not None:
        recipe["order"] = order_to_dict(ctx.order)
    if ctx.operator is not None:
        recipe["operator"] = operator_to_dict(ctx.operator)
        recipe["operator_kind"] = ctx.operator.kind
    return recipe


# -- click wiring ---------------------------------------------------------------------


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(__version__, prog_name="formkit")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True, help="seed for randomized subcommands")
@click.pass_context
def main(ctx: click.Context, fmt: str, seed: int) -> None:
    """Compute with finite forms: fibre lattices, transfer maps, topogenous
    orders, closure/interior operators, and morphism classes."""
    ctx.obj = {"format": fmt, "seed": seed, "started": time.monotonic()}


def run_guarded(fn):
    """Input errors become exit code 2 with a location message."""

    def wrapper(ctx, *args, **kwargs):
        try:
            return fn(ctx, *args, **kwargs)
        except InputError as exc:
            raise click.UsageError(str(exc)) from exc

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


FILE = click.Path(exists=True, dir_okay=False)


@main.group()
def verify() -> None:
    """Verify a lattice, form, order, or operator against its axioms."""


@verify.command("lattice")
@click.option("--file", "path", required=True, type=FILE)
@click.pass_context
@run_guarded
def verify_lattice_cmd(ctx: click.Context, path: str) -> None:
    report = RunReport(command=["verify", "lattice", path])
    lat = read_file(path, lattice_from_dict, report.inputs)
    witness = make_witness("lattice", {"kind": "lattice-file", "file": path})
    report.checks.append(check_from_report("lattice-axioms", lat.verify(), witness))
    emit(ctx, report, ctx.obj["started"])


def run_verify(ctx: click.Context, report: RunReport, checked: CheckContext, names: tuple[str, ...]) -> None:
    """Run checks on inputs read from files; those with violations carry
    the inputs inline in their witnesses."""
    results = run_checks(checked, names)
    flagged = [r for r in results if r.violations]
    if flagged:
        recipe = inline_recipe(checked)
        for r in flagged:
            r.witness = make_witness(r.name, recipe)
    report.checks.extend(results)
    emit(ctx, report, ctx.obj["started"])


@verify.command("form")
@click.option("--file", "path", required=True, type=FILE)
@click.pass_context
@run_guarded
def verify_form_cmd(ctx: click.Context, path: str) -> None:
    report = RunReport(command=["verify", "form", path])
    run_verify(ctx, report, CheckContext(read_file(path, form_from_dict, report.inputs)), FORM_CHECKS)


@verify.command("order")
@click.option("--form", "form_path", required=True, type=FILE)
@click.option("--order", "order_path", required=True, type=FILE)
@click.pass_context
@run_guarded
def verify_order_cmd(ctx: click.Context, form_path: str, order_path: str) -> None:
    report = RunReport(command=["verify", "order", form_path, order_path])
    form = read_file(form_path, form_from_dict, report.inputs)
    order = read_file(order_path, order_from_dict, report.inputs)
    run_verify(ctx, report, CheckContext(form, order), ("order-axioms", "order-class"))


def read_operator(path: str, kind: str, inputs: dict[str, str]):
    return read_file(path, lambda doc, where: operator_from_dict(doc, kind, where), inputs)


def verify_operator_cmd(kind: str) -> None:
    @verify.command(kind)
    @click.option("--form", "form_path", required=True, type=FILE)
    @click.option("--operator", "op_path", required=True, type=FILE)
    @click.pass_context
    @run_guarded
    def command(ctx: click.Context, form_path: str, op_path: str) -> None:
        report = RunReport(command=["verify", kind, form_path, op_path])
        form = read_file(form_path, form_from_dict, report.inputs)
        operator = read_operator(op_path, kind, report.inputs)
        run_verify(ctx, report, CheckContext(form, operator=operator), (f"{kind}-axioms",))


@main.group()
def derive() -> None:
    """Derive operators from orders, orders from operators, or the built-in
    topology orders."""


def _emit_derived(ctx: click.Context, report: RunReport, doc: dict, out: Optional[str]) -> None:
    if out:
        dump_json(doc, out)
        report.payload = {"written": out}
    else:
        report.payload = doc
    emit(ctx, report, ctx.obj["started"])


def derive_operator_cmd(kind: str) -> None:
    @derive.command(kind)
    @click.option("--form", "form_path", required=True, type=FILE)
    @click.option("--order", "order_path", required=True, type=FILE)
    @click.option("--out", type=click.Path(dir_okay=False))
    @click.pass_context
    @run_guarded
    def command(ctx, form_path, order_path, out) -> None:
        report = RunReport(command=["derive", kind, form_path, order_path])
        form = read_file(form_path, form_from_dict, report.inputs)
        order = read_file(order_path, order_from_dict, report.inputs)
        _emit_derived(ctx, report, operator_to_dict(operator_from_order(form, order, kind)), out)


def derive_order_cmd(kind: str) -> None:
    @derive.command(f"order-from-{kind}")
    @click.option("--form", "form_path", required=True, type=FILE)
    @click.option("--operator", "op_path", required=True, type=FILE)
    @click.option("--out", type=click.Path(dir_okay=False))
    @click.pass_context
    @run_guarded
    def command(ctx, form_path, op_path, out) -> None:
        report = RunReport(command=["derive", f"order-from-{kind}", form_path, op_path])
        form = read_file(form_path, form_from_dict, report.inputs)
        operator = read_operator(op_path, kind, report.inputs)
        _emit_derived(ctx, report, order_to_dict(order_from_operator(form, operator)), out)


for _kind in OPERATOR_KINDS:
    verify_operator_cmd(_kind)
    derive_operator_cmd(_kind)
    derive_order_cmd(_kind)


def derive_topology_order_cmd(name: str, relation) -> None:
    @derive.command(name)
    @click.option("--n", required=True, type=int)
    @click.option("--out", type=click.Path(dir_okay=False))
    @click.pass_context
    @run_guarded
    def command(ctx, n, out) -> None:
        report = RunReport(command=["derive", name, str(n)])
        doc = order_to_dict(TopogenousOrder({f"{n}pt": relation(n)}), form_id=f"top[{n}]")
        _emit_derived(ctx, report, doc, out)


derive_topology_order_cmd("theta", theta_relation)
derive_topology_order_cmd("b", b_relation)


INSTANCE_KINDS = click.Choice(["top", "grp", "quot"])


@main.command("classify")
@click.option("--form", "form_path", type=FILE)
@click.option("--order", "order_path", type=FILE)
@click.option("--instance", type=INSTANCE_KINDS)
@click.option("--sizes", type=str)
@click.option("--corpus", type=str, default="standard", show_default=True)
@click.option("--max-order", type=int, default=8, show_default=True)
@click.option("--order-name", type=click.Choice(NAMED_ORDERS))
@click.option("--morphism", "morphism", type=str)
@click.pass_context
@run_guarded
def classify_cmd(ctx, form_path, order_path, instance, sizes, corpus, max_order, order_name, morphism) -> None:
    """Strict/final/thick status, per morphism, as a MorphismReport array."""
    report = RunReport(command=["classify"])
    recipe = recipe_from_flags(form_path, order_path, order_name, instance, sizes, corpus, max_order)
    checked = load_recipe(recipe, report.inputs)
    report.checks.extend(run_checks(checked, ("order-axioms",), recipe))
    if checked.axioms.ok:
        form = checked.form
        targets = [morphism] if morphism else list(form.base.morphisms())
        for f in targets:
            if f not in form.base.dom:
                fail_usage(f"unknown morphism {f!r}")
        report.payload = {"morphisms": [classify_morphism(form, checked.order, f).to_dict() for f in targets]}
    emit(ctx, report, ctx.obj["started"])


@main.command("check-theorems")
@click.option("--form", "form_path", type=FILE)
@click.option("--order", "order_spec", type=str, help="order file, or a named order with --instance")
@click.option("--instance", type=INSTANCE_KINDS)
@click.option("--sizes", type=str)
@click.option("--corpus", type=str, default="standard", show_default=True)
@click.option("--max-order", type=int, default=8, show_default=True)
@click.option("--check", "selected", multiple=True, help="restrict to named checks")
@click.pass_context
@run_guarded
def check_theorems_cmd(ctx, form_path, order_spec, instance, sizes, corpus, max_order, selected) -> None:
    """Run the whole theorem battery for a form and order."""
    for name in selected:
        if name not in BATTERY:
            fail_usage(f"unknown check {name!r}; known: {', '.join(BATTERY)}")
    report = RunReport(command=["check-theorems"])
    named = order_spec is None or order_spec in NAMED_ORDERS
    recipe = recipe_from_flags(
        form_path, None if named else order_spec, order_spec if named else None,
        instance, sizes, corpus, max_order,
    )
    report.checks.extend(run_checks(load_recipe(recipe, report.inputs), battery_selection(selected), recipe))
    emit(ctx, report, ctx.obj["started"])


@main.group("enumerate")
def enumerate_group() -> None:
    """Enumerate topologies, subgroups, or partitions."""


@enumerate_group.command("topologies")
@click.option("--n", required=True, type=int)
@click.pass_context
@run_guarded
def enum_top_cmd(ctx, n) -> None:
    report = RunReport(command=["enumerate", "topologies", str(n)])
    tops = enumerate_topologies(n)
    report.payload = {"n": n, "count": len(tops), "topologies": [topology_to_dict(t) for t in tops]}
    emit(ctx, report, ctx.obj["started"])


@enumerate_group.command("subgroups")
@click.option("--group", "name", type=str, help="a corpus group name such as S3 or Q8")
@click.option("--file", "path", type=FILE, help="a Cayley-table JSON file")
@click.pass_context
@run_guarded
def enum_sub_cmd(ctx, name, path) -> None:
    report = RunReport(command=["enumerate", "subgroups", name or path or ""])
    if (name is None) == (path is None):
        fail_usage("provide exactly one of --group or --file")
    if path is not None:
        group = read_file(path, group_from_dict, report.inputs)
    else:
        matches = [g for g in standard_corpus(12) if g.name == name]
        if not matches:
            fail_usage(f"unknown corpus group {name!r}")
        group = matches[0]
    bad = group.verify()
    report.checks.append(check_from_report("group-axioms", bad))
    if bad.ok:
        masks = subgroup_masks(group)
        normals = set(normal_subgroup_masks(group))
        report.payload = {
            "group": group.name,
            "order": group.n,
            "count": len(masks),
            "subgroups": [
                {"elements": list(bits(m)), "normal": m in normals} for m in masks
            ],
        }
    emit(ctx, report, ctx.obj["started"])


@enumerate_group.command("partitions")
@click.option("--n", required=True, type=int)
@click.pass_context
@run_guarded
def enum_part_cmd(ctx, n) -> None:
    report = RunReport(command=["enumerate", "partitions", str(n)])
    parts = enumerate_partitions(n)
    report.payload = {"n": n, "count": len(parts), "partitions": [partition_to_dict(p) for p in parts]}
    emit(ctx, report, ctx.obj["started"])


@main.group()
def instance() -> None:
    """Build a built-in instance and emit its form descriptor."""


def _emit_instance(ctx: click.Context, recipe: dict, emit_path: Optional[str], command: list[str]) -> None:
    report = RunReport(command=command)
    form = build_instance(recipe, "instance").form
    doc = form_to_dict(form)
    if emit_path:
        dump_json(doc, emit_path)
        report.payload = {
            "written": emit_path,
            "objects": list(form.base.objects),
            "morphisms": sum(1 for _ in form.base.morphisms()),
        }
    else:
        report.payload = doc
    emit(ctx, report, ctx.obj["started"])


def instance_sizes_cmd(kind: str) -> None:
    @instance.command(kind)
    @click.option("--sizes", required=True, type=str)
    @click.option("--emit", "emit_path", type=click.Path(dir_okay=False))
    @click.pass_context
    @run_guarded
    def command(ctx, sizes, emit_path) -> None:
        _emit_instance(ctx, instance_recipe(kind, sizes, "standard", 8), emit_path, ["instance", kind, sizes])


instance_sizes_cmd("top")
instance_sizes_cmd("quot")


@instance.command("grp")
@click.option("--corpus", type=str, default="standard", show_default=True)
@click.option("--max-order", type=int, default=8, show_default=True)
@click.option("--emit", "emit_path", type=click.Path(dir_okay=False))
@click.pass_context
@run_guarded
def instance_grp_cmd(ctx, corpus, max_order, emit_path) -> None:
    recipe = instance_recipe("grp", None, corpus, max_order)
    _emit_instance(ctx, recipe, emit_path, ["instance", "grp", corpus, str(max_order)])


@main.command("search")
@click.option("--claim", required=True, type=str)
@click.option("--budget", type=click.IntRange(min=1), default=1000, show_default=True)
@click.pass_context
@run_guarded
def search_cmd(ctx, claim, budget) -> None:
    """Check a claim against randomly generated forms; any counterexample
    fails the run and is replayable from (seed, index)."""
    if claim not in CLAIMS:
        fail_usage(f"unknown claim {claim!r}; known: {', '.join(sorted(CLAIMS))}")
    seed = ctx.obj["seed"]
    report = RunReport(command=["search", claim, str(budget), str(seed)])
    outcome = run_search(claim, budget, seed)
    rep = Report()
    rep.checks_run = budget
    for ce in outcome["counterexamples"]:
        rep.add(
            "counterexample",
            where=f"index {ce['index']}",
            witness=(ce["seed"], ce["index"]),
            detail=json.dumps(ce["violations"], sort_keys=True),
        )
    witness = None
    if outcome["counterexamples"]:
        first = outcome["counterexamples"][0]
        witness = make_witness(
            "search",
            {"kind": "search", "claim": claim, "seed": first["seed"], "index": first["index"]},
        )
    report.checks.append(check_from_report(f"search:{claim}", rep, witness))
    report.payload = {k: outcome[k] for k in ("claim", "budget", "seed", "forms_checked")}
    emit(ctx, report, ctx.obj["started"])


@main.command("replay")
@click.argument("witness_file", type=FILE)
@click.pass_context
@run_guarded
def replay_cmd(ctx, witness_file) -> None:
    """Re-run the single check a witness came from."""
    report = RunReport(command=["replay", witness_file])
    doc = read_file(witness_file, lambda doc, where: doc, report.inputs)
    if not isinstance(doc, dict) or doc.get("schema") != WITNESS_SCHEMA:
        fail_usage(f"{witness_file}: not a witness of schema {WITNESS_SCHEMA}")
    check = doc.get("check")
    recipe = _field(doc, "recipe", lambda v: isinstance(v, dict), witness_file, {})
    kind = recipe.get("kind")
    if kind == "search":
        claim = _field(recipe, "claim", lambda v: isinstance(v, str) and v in CLAIMS, witness_file)
        seed, index = (_field(recipe, key, is_int, witness_file) for key in ("seed", "index"))
        ce = run_case(claim, seed, index)
        rep = Report()
        rep.checks_run = 1
        if ce is not None:
            for v in ce.violations:
                rep.add("counterexample", where=f"index {ce.index}", detail=json.dumps(v, sort_keys=True))
        report.checks.append(check_from_report(f"replay:search:{claim}", rep))
    elif kind == "lattice-file":
        path = _field(recipe, "file", lambda v: isinstance(v, str), witness_file)
        lat = lattice_from_dict(load_json(path), where=path)
        report.checks.append(check_from_report("replay:lattice-axioms", lat.verify()))
    else:
        if not isinstance(check, str) or check not in CHECKS:
            fail_usage(f"{witness_file}: unknown check {check!r}")
        needs = CHECKS[check].needs
        checked = load_recipe(recipe, report.inputs, where=witness_file)
        if needs == "order" and checked.order is None:
            fail_usage(f"{witness_file}: witness for {check!r} carries no order to replay with")
        if needs == "operator" and checked.operator is None:
            fail_usage(f"{witness_file}: witness for {check!r} carries no operator to replay with")
        # Replayed order checks carry their witness again; form and
        # operator checks do not.
        for result in run_checks(checked, (check,), recipe if needs == "order" else None):
            result.name = f"replay:{result.name}"
            report.checks.append(result)
    emit(ctx, report, ctx.obj["started"])


if __name__ == "__main__":
    main()

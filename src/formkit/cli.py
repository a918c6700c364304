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

import json
import time
from typing import NoReturn, Optional

import click
from click.core import ParameterSource

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
from .forms import FormInstance
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
    write_json,
)
from .lattice import bits
from .morphisms import classify_morphism
from .partitions import build_quot_form, enumerate_partitions
from .report import InputError, Report
from .search import CLAIMS, run_case, run_search
from .topogenous import (
    OPERATOR_KINDS,
    TopogenousOrder,
    check_operator_shape,
    check_order_shape,
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


class RunReport:
    def __init__(
        self,
        command: list[str],
        inputs: Optional[dict[str, str]] = None,
        checks: Optional[list[CheckResult]] = None,
        payload: dict | FormInstance | None = None,  # a form is written from its tables
    ):
        self.command, self.payload = command, payload
        self.inputs = {} if inputs is None else inputs
        self.checks = [] if checks is None else checks

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


def emit(report: RunReport) -> None:
    ctx = click.get_current_context()
    if ctx.obj["format"] == "json":
        stdout = click.get_text_stream("stdout")
        write_json(report.to_dict(), stdout)
        stdout.flush()
    else:
        click.echo(report.render_text())
    click.echo(f"elapsed: {time.monotonic() - ctx.obj['started']:.3f}s", err=True)
    ctx.exit(0 if report.ok else 1)


def fail_usage(message: str) -> NoReturn:
    raise InputError(message)


# -- input loading -----------------------------------------------------------------


def read_file(path: str, parse, inputs: dict[str, str]):
    """Parse a JSON input file and record its digest in ``inputs``."""
    return parse(load_json(path, inputs), where=path)


NAMED_ORDERS = ("leq", "theta", "b", "normal-interval")


def named_order(name: str, form, bundle, kind: Optional[str], where: str):
    if name == "leq":
        return leq_order(form)
    if (kind, name) == ("top", "theta"):
        return theta_order(bundle)
    if (kind, name) == ("top", "b"):
        return b_order(bundle)
    if (kind, name) == ("grp", "normal-interval"):
        return normal_interval_order(bundle)
    fail_usage(f"{where}: order {name!r} is not defined for instance kind {kind!r}")


def parse_sizes(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s != ""]
    except ValueError:
        fail_usage(f"--sizes expects comma-separated integers, got {text!r}")


# The input flags each instance kind does not read; a form file reads none.
IGNORED_FLAGS = {"grp": ("sizes",), "top": ("corpus", "max_order"), "quot": ("corpus", "max_order")}
INSTANCE_FLAGS = ("sizes", "corpus", "max_order")


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
            fail_usage(f"{where}: unknown corpus {recipe['corpus']!r}; only 'standard' is built in")
        return build_grp_form(standard_corpus(_field(recipe, "max_order", is_int, where, 8)))
    if kind in ("top", "quot"):
        sizes = _field(recipe, "sizes", lambda v: isinstance(v, list) and all(map(is_int, v)), where, [])
        return (build_top_form if kind == "top" else build_quot_form)(sizes or [2])
    fail_usage(f"{where}: unknown instance kind {kind!r}")


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
    if instance is not None and form_path is not None:
        fail_usage("--form and --instance both name the form; pass only one of them")
    if instance is None and form_path is None:
        fail_usage("provide --form FILE (with --order FILE) or --instance KIND")
    if instance is not None:
        ignored, source = IGNORED_FLAGS[instance], f"--instance {instance}"
    else:
        ignored, source = INSTANCE_FLAGS, "--form"
    ctx = click.get_current_context()
    for name in ignored:
        if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT:
            fail_usage(f"--{name.replace('_', '-')} does not apply to {source}")
    if instance is not None:
        recipe = instance_recipe(instance, sizes, corpus, max_order)
        if order_path is not None:
            recipe["order_file"] = order_path
        else:
            recipe["order"] = order_name or "leq"
        return recipe
    if order_path is not None:
        return {"form_file": form_path, "order_file": order_path}
    if order_name in (None, "leq"):
        return {"form_file": form_path, "order": "leq"}
    fail_usage("named orders other than 'leq' need --instance; otherwise pass --order FILE")


def load_recipe(recipe: dict, inputs: dict[str, str], where: str = "recipe") -> CheckContext:
    """Build what a recipe describes, recording the files read in
    ``inputs``: a built-in instance, a form file, or an inline form, each
    with the order it names (a named order, an order file, or inline) and
    the operator it names (an operator file, or inline). An order or
    operator read is checked against the form, its error located by the
    file or by ``<where>#order``, ``<where>#operator``."""
    inline = recipe.get("kind") == "inline"

    def read(key: str, parse, fits=None):
        """The inline document under ``key``, or the file ``key_file`` names,
        checked against the form by ``fits(form, doc)`` when given."""
        source = f"{where}#{key}" if inline else _field(recipe, f"{key}_file", lambda v: isinstance(v, str), where)
        doc = parse(recipe.get(key), where=source) if inline else read_file(source, parse, inputs)
        if fits is not None:
            try:
                fits(form, doc)
            except InputError as exc:
                raise InputError(f"{source}: {exc}") from exc
        return doc

    bundle = None
    if inline or "kind" not in recipe:
        form = read("form", form_from_dict)
    else:
        bundle = build_instance(recipe, where)
        form = bundle.form
    order = operator = None
    if ("order" if inline else "order_file") in recipe:
        order = read("order", order_from_dict, check_order_shape)
    elif "order" in recipe:
        order = named_order(recipe["order"], form, bundle, recipe.get("kind"), where)
    if ("operator" if inline else "operator_file") in recipe:
        kind = _field(recipe, "operator_kind", lambda v: v in OPERATOR_KINDS, where)
        operator = read("operator", lambda doc, where: operator_from_dict(doc, kind, where), check_operator_shape)
    return CheckContext(form, order, operator, bundle=bundle, recipe=recipe)


def inline_recipe(ctx: CheckContext) -> dict:
    """A recipe that carries its form (and order or operator) in full."""
    recipe = {"kind": "inline", "form": ctx.form}
    if ctx.order is not None:
        recipe["order"] = order_to_dict(ctx.order)
    if ctx.operator is not None:
        recipe["operator"] = operator_to_dict(ctx.operator)
        recipe["operator_kind"] = ctx.operator.kind
    return recipe


# -- click wiring ---------------------------------------------------------------------


class GuardedCommand(click.Command):
    """A subcommand on which input errors exit 2: an InputError becomes a
    usage error, printed under the subcommand's usage line."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except InputError as exc:
            raise click.UsageError(str(exc), ctx) from exc


class CommandGroup(click.Group):
    command_class = GuardedCommand
    group_class = type  # subgroups are CommandGroups too


@click.group(cls=CommandGroup, context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(__version__, prog_name="formkit")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True, help="seed for randomized subcommands")
@click.pass_context
def main(ctx: click.Context, fmt: str, seed: int) -> None:
    """Compute with finite forms: fibre lattices, transfer maps, topogenous
    orders, closure/interior operators, and morphism classes."""
    ctx.obj = {"format": fmt, "seed": seed, "started": time.monotonic()}


FILE = click.Path(exists=True, dir_okay=False)
OUT = click.option("--out", type=click.Path(dir_okay=False))


@main.group()
def verify() -> None:
    """Verify a lattice, form, order, or operator against its axioms."""


@verify.command("lattice")
@click.option("--file", "path", required=True, type=FILE)
def verify_lattice_cmd(path: str) -> None:
    report = RunReport(command=["verify", "lattice", path])
    lat = read_file(path, lattice_from_dict, report.inputs)
    witness = make_witness("lattice", {"kind": "lattice-file", "file": path})
    report.checks.append(check_from_report("lattice-axioms", lat.verify(), witness))
    emit(report)


@main.group()
def derive() -> None:
    """Derive operators from orders, orders from operators, or the built-in
    topology orders."""


def emit_document(report: RunReport, doc: dict | FormInstance, out: Optional[str], **written) -> None:
    """Report ``doc`` (a JSON document, or a form to write as one) as the
    payload, or write it to ``out`` and report that, with the ``written``
    facts, instead."""
    if out:
        dump_json(doc, out)
        report.payload = {"written": out, **written}
    else:
        report.payload = doc
    emit(report)


# The recipe key each file option fills.
FILE_OPTIONS = {"--file": "form_file", "--form": "form_file", "--order": "order_file", "--operator": "operator_file"}


def run_and_witness(checks: tuple[str, ...]):
    """A verify action: run ``checks``; those with violations carry their
    inputs inline in their witnesses."""

    def action(report: RunReport, checked: CheckContext) -> None:
        results = run_checks(checked, checks)
        flagged = [r for r in results if r.violations]
        if flagged:
            recipe = inline_recipe(checked)
            for r in flagged:
                r.witness = make_witness(r.name, recipe)
        report.checks.extend(results)
        emit(report)

    return action


def emit_derived(derive_doc):
    """A derive action: emit the document ``derive_doc`` makes of the inputs."""
    return lambda report, checked, out: emit_document(report, derive_doc(checked), out)


def file_command(group: str, name: str, files: tuple[str, ...], action, operator_kind=None, out=False) -> None:
    """A subcommand that reads a form with an order or an operator (of
    ``operator_kind``) from the ``files`` options and hands them to
    ``action``, with the --out path when ``out``."""
    keys = [FILE_OPTIONS[option] for option in files]

    def command(**params) -> None:
        recipe = {key: params.pop(key) for key in keys}
        report = RunReport(command=[group, name, *recipe.values()])
        if operator_kind is not None:
            recipe["operator_kind"] = operator_kind
        action(report, load_recipe(recipe, report.inputs), **params)

    if out:
        command = OUT(command)
    for option, key in reversed(list(zip(files, keys))):
        command = click.option(option, key, required=True, type=FILE)(command)
    main.commands[group].command(name)(command)


file_command("verify", "form", ("--file",), run_and_witness(FORM_CHECKS))
file_command("verify", "order", ("--form", "--order"), run_and_witness(("order-axioms", "order-class")))
for _kind in OPERATOR_KINDS:
    file_command("verify", _kind, ("--form", "--operator"), run_and_witness((f"{_kind}-axioms",)), _kind)
    file_command(
        "derive", _kind, ("--form", "--order"),
        emit_derived(lambda c, kind=_kind: operator_to_dict(operator_from_order(c.form, c.order, kind))), out=True,
    )
    file_command(
        "derive", f"order-from-{_kind}", ("--form", "--operator"),
        emit_derived(lambda c: order_to_dict(order_from_operator(c.form, c.operator))), _kind, out=True,
    )


def derive_topology_order_cmd(name: str, relation) -> None:
    @derive.command(name)
    @click.option("--n", required=True, type=int)
    @OUT
    def command(n, out) -> None:
        report = RunReport(command=["derive", name, str(n)])
        doc = order_to_dict(TopogenousOrder({f"{n}pt": relation(enumerate_topologies(n))}), form_id=f"top[{n}]")
        emit_document(report, doc, out)


derive_topology_order_cmd("theta", theta_relation)
derive_topology_order_cmd("b", b_relation)


INSTANCE_KINDS = click.Choice(["top", "grp", "quot"])


INPUT_OPTIONS = (
    click.option("--form", "form_path", type=FILE),
    click.option("--instance", type=INSTANCE_KINDS),
    click.option("--sizes", type=str),
    click.option("--corpus", type=str, default="standard", show_default=True),
    click.option("--max-order", type=int, default=8, show_default=True),
)


def input_options(order_option):
    """The input options of classify and check-theorems, with the command's
    own --order option second."""

    def decorate(fn):
        for option in reversed((INPUT_OPTIONS[0], order_option, *INPUT_OPTIONS[1:])):
            fn = option(fn)
        return fn

    return decorate


@main.command("classify")
@input_options(click.option("--order", "order_path", type=FILE))
@click.option("--order-name", type=click.Choice(NAMED_ORDERS))
@click.option("--morphism", "morphism", type=str)
def classify_cmd(form_path, order_path, instance, sizes, corpus, max_order, order_name, morphism) -> None:
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
    emit(report)


@main.command("check-theorems")
@input_options(click.option("--order", "order_spec", type=str, help="order file, or a named order with --instance"))
@click.option("--check", "selected", multiple=True, help="restrict to named checks")
def check_theorems_cmd(form_path, order_spec, instance, sizes, corpus, max_order, selected) -> None:
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
    emit(report)


@main.group("enumerate")
def enumerate_group() -> None:
    """Enumerate topologies, subgroups, or partitions."""


def enumerate_cmd(name: str, enumerate_all, to_dict) -> None:
    @enumerate_group.command(name)
    @click.option("--n", required=True, type=int)
    def command(n) -> None:
        report = RunReport(command=["enumerate", name, str(n)])
        found = enumerate_all(n)
        report.payload = {"n": n, "count": len(found), name: [to_dict(t) for t in found]}
        emit(report)


enumerate_cmd("topologies", enumerate_topologies, topology_to_dict)
enumerate_cmd("partitions", enumerate_partitions, partition_to_dict)


@enumerate_group.command("subgroups")
@click.option("--group", "name", type=str, help="a corpus group name such as S3 or Q8")
@click.option("--file", "path", type=FILE, help="a Cayley-table JSON file")
def enum_sub_cmd(name, path) -> None:
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
    emit(report)


@main.group()
def instance() -> None:
    """Build a built-in instance and emit its form descriptor."""


def _emit_instance(recipe: dict, emit_path: Optional[str], command: list[str]) -> None:
    form = build_instance(recipe, "instance").form
    emit_document(
        RunReport(command=command), form, emit_path,
        objects=list(form.base.objects), morphisms=sum(1 for _ in form.base.morphisms()),
    )


def instance_sizes_cmd(kind: str) -> None:
    @instance.command(kind)
    @click.option("--sizes", required=True, type=str)
    @click.option("--emit", "emit_path", type=click.Path(dir_okay=False))
    def command(sizes, emit_path) -> None:
        _emit_instance(instance_recipe(kind, sizes, "standard", 8), emit_path, ["instance", kind, sizes])


instance_sizes_cmd("top")
instance_sizes_cmd("quot")


@instance.command("grp")
@click.option("--corpus", type=str, default="standard", show_default=True)
@click.option("--max-order", type=int, default=8, show_default=True)
@click.option("--emit", "emit_path", type=click.Path(dir_okay=False))
def instance_grp_cmd(corpus, max_order, emit_path) -> None:
    recipe = instance_recipe("grp", None, corpus, max_order)
    _emit_instance(recipe, emit_path, ["instance", "grp", corpus, str(max_order)])


@main.command("search")
@click.option("--claim", required=True, type=str)
@click.option("--budget", type=click.IntRange(min=1), default=1000, show_default=True)
def search_cmd(claim, budget) -> None:
    """Check a claim against randomly generated forms; any counterexample
    fails the run and is replayable from (seed, index)."""
    if claim not in CLAIMS:
        fail_usage(f"unknown claim {claim!r}; known: {', '.join(sorted(CLAIMS))}")
    seed = click.get_current_context().obj["seed"]
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
    emit(report)


@main.command("replay")
@click.argument("witness_file", type=FILE)
def replay_cmd(witness_file) -> None:
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
        lat = read_file(path, lattice_from_dict, report.inputs)
        report.checks.append(check_from_report("replay:lattice-axioms", lat.verify()))
    else:
        if not isinstance(check, str) or check not in CHECKS:
            fail_usage(f"{witness_file}: unknown check {check!r}")
        needs = CHECKS[check].needs
        checked = load_recipe(recipe, report.inputs, where=witness_file)
        if getattr(checked, needs) is None:
            fail_usage(f"{witness_file}: witness for {check!r} carries no {needs} to replay with")
        # Replayed order checks carry their witness again; form and
        # operator checks do not.
        for result in run_checks(checked, (check,), recipe if needs == "order" else None):
            result.name = f"replay:{result.name}"
            report.checks.append(result)
    emit(report)


if __name__ == "__main__":
    main()

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

import atexit
import gc
import json
import os
import sys
import time
from argparse import ArgumentParser, ArgumentTypeError, HelpFormatter, Namespace, _SubParsersAction
from typing import NoReturn, Optional

from . import __version__
from .checks import (
    BATTERY,
    CHECKS,
    FORM_CHECKS,
    WITNESS_SCHEMA,
    CheckContext,
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
from .topogenous import OPERATOR_KINDS, TopogenousOrder, leq_order, operator_from_order, order_from_operator
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
        checks: Optional[list[dict]] = None,  # check_from_report entries
        payload: dict | FormInstance | None = None,  # a form is written from its tables
    ):
        self.command, self.payload = command, payload
        self.inputs = {} if inputs is None else inputs
        self.checks = [] if checks is None else checks

    @property
    def ok(self) -> bool:
        return all(c["status"] != "fail" for c in self.checks)

    def to_dict(self) -> dict:
        out = {
            "command": self.command,
            "version": __version__,
            "inputs": dict(sorted(self.inputs.items())),
            "checks": self.checks,
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
            lines.append(f"[{c['status'].upper():8s}] {c['name']} ({c['checks_run']} checks)")
            violations = c["violations"]
            for v in violations[:5]:
                lines.append(f"    witness: {v}")
            if len(violations) > 5:
                lines.append(f"    ... {len(violations) - 5} more")
            for n in c["notes"]:
                lines.append(f"    note: {n}")
        lines.append("OK" if self.ok else "FAIL")
        return "\n".join(lines)


def emit(report: RunReport, fmt: str, started: float) -> int:
    """Write ``report`` to stdout in ``fmt`` and the time since ``started``
    to stderr; the exit code."""
    if fmt == "json":
        write_json(report.to_dict(), sys.stdout)
    else:
        print(report.render_text())
    sys.stdout.flush()  # a closed pipe fails here, inside main's guard, not at exit
    print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return 0 if report.ok else 1


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
        sizes = [int(s) for s in text.split(",") if s != ""]
    except ValueError:
        sizes = []
    return sizes or fail_usage(f"--sizes expects comma-separated integers, got {text!r}")


# The input flags each instance kind does not read; a form file reads none.
IGNORED_FLAGS = {"grp": ("sizes",), "top": ("corpus", "max_order"), "quot": ("corpus", "max_order")}
INSTANCE_FLAGS = ("sizes", "corpus", "max_order")


def instance_recipe(kind: str, sizes: Optional[str], corpus: Optional[str], max_order: Optional[int]) -> dict:
    """The recipe of a built-in instance; a flag not given takes its default."""
    if kind == "grp":
        return {
            "kind": "grp",
            "corpus": "standard" if corpus is None else corpus,
            "max_order": 8 if max_order is None else max_order,
        }
    return {"kind": kind, "sizes": parse_sizes("2" if sizes is None else sizes)}


def _field(recipe: dict, key: str, ok, where: str, default=None):
    value = recipe.get(key, default)
    if not ok(value):
        raise SchemaError(f"{where}: recipe field {key!r} has an unusable value {value!r}")
    return value


def build_instance(recipe: dict, where: str):
    """The built-in instance a recipe names, every refusal prefixed with ``where``."""
    kind = recipe["kind"]
    if kind == "grp":
        if recipe.get("corpus", "standard") != "standard":
            fail_usage(f"{where}: unknown corpus {recipe['corpus']!r}; only 'standard' is built in")
        build, arg = build_grp_form, standard_corpus(_field(recipe, "max_order", is_int, where, 8))
    elif kind in ("top", "quot"):
        build = build_top_form if kind == "top" else build_quot_form
        arg = _field(recipe, "sizes", lambda v: isinstance(v, list) and v != [] and all(map(is_int, v)), where, [2])
    else:
        fail_usage(f"{where}: unknown instance kind {kind!r}")
    try:
        return build(arg)
    except InputError as exc:
        fail_usage(f"{where}: {exc}")


def recipe_from_flags(flags: Namespace, order_path: Optional[str], order_name: Optional[str]) -> dict:
    """The recipe the input flags describe: an instance with a named order
    or an order file, or a form file with an order file or the leq order.
    Witnesses carry it, so replay rebuilds the same inputs. A flag of
    INSTANCE_FLAGS is None when not given, so one given at its default
    value is refused too."""
    form_path, instance = flags.form, flags.instance
    if instance is not None and form_path is not None:
        fail_usage("--form and --instance both name the form; pass only one of them")
    if instance is None and form_path is None:
        fail_usage("provide --form FILE (with --order FILE) or --instance KIND")
    if instance is not None:
        ignored, source = IGNORED_FLAGS[instance], f"--instance {instance}"
    else:
        ignored, source = INSTANCE_FLAGS, "--form"
    for name in ignored:
        if getattr(flags, name) is not None:
            fail_usage(f"--{name.replace('_', '-')} does not apply to {source}")
    if instance is not None:
        recipe = instance_recipe(instance, flags.sizes, flags.corpus, flags.max_order)
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

    def read(key: str, parse):
        """The inline document under ``key``, or the file ``key_file`` names."""
        source = f"{where}#{key}" if inline else _field(recipe, f"{key}_file", lambda v: isinstance(v, str), where)
        return parse(recipe.get(key), where=source) if inline else read_file(source, parse, inputs)

    bundle = None
    if inline or "kind" not in recipe:
        form = read("form", form_from_dict)
    else:
        bundle = build_instance(recipe, where)
        form = bundle.form
    order = operator = None
    if ("order" if inline else "order_file") in recipe:
        order = read("order", lambda doc, where: order_from_dict(doc, form, where))
    elif "order" in recipe:
        order = named_order(recipe["order"], form, bundle, recipe.get("kind"), where)
    if ("operator" if inline else "operator_file") in recipe:
        kind = _field(recipe, "operator_kind", lambda v: v in OPERATOR_KINDS, where)
        operator = read("operator", lambda doc, where: operator_from_dict(doc, kind, form, where))
    return CheckContext(form, order, operator, bundle=bundle, recipe=recipe)


def inline_recipe(ctx: CheckContext) -> dict:
    """A recipe that carries its form (and order or operator) in full."""
    recipe = {"kind": "inline", "form": ctx.form}
    objects = ctx.form.base.objects
    if ctx.order is not None:
        recipe["order"] = order_to_dict(ctx.order, objects)
    if ctx.operator is not None:
        recipe["operator"] = operator_to_dict(ctx.operator, objects)
        recipe["operator_kind"] = ctx.operator.kind
    return recipe


# -- commands ----------------------------------------------------------------------
# Each takes the parsed flags and returns the report to emit.


def verify_lattice_cmd(flags: Namespace) -> RunReport:
    report = RunReport(command=["verify", "lattice", flags.file])
    lat = read_file(flags.file, lattice_from_dict, report.inputs)
    witness = make_witness("lattice", {"kind": "lattice-file", "file": flags.file})
    report.checks.append(check_from_report("lattice-axioms", lat.verify(), witness))
    return report


def report_document(report: RunReport, doc: dict | FormInstance, out: Optional[str], **written) -> RunReport:
    """Report ``doc`` (a JSON document, or a form to write as one) as the
    payload, or write it to ``out`` and report that, with the ``written``
    facts, instead."""
    if out:
        dump_json(doc, out)
        report.payload = {"written": out, **written}
    else:
        report.payload = doc
    return report


# The recipe key each file option fills.
FILE_OPTIONS = {"--file": "form_file", "--form": "form_file", "--order": "order_file", "--operator": "operator_file"}


def run_and_witness(checks: tuple[str, ...]):
    """A verify action: run ``checks``; those with violations carry their
    inputs inline in their witnesses."""

    def action(report: RunReport, checked: CheckContext, flags: Namespace) -> RunReport:
        results = run_checks(checked, checks)
        flagged = [r for r in results if r["violations"]]
        if flagged:
            recipe = inline_recipe(checked)
            for r in flagged:
                r["witness"] = make_witness(r["name"], recipe)
        report.checks.extend(results)
        return report

    return action


def report_derived(derive_doc):
    """A derive action: report the document ``derive_doc`` makes of the inputs."""
    return lambda report, checked, flags: report_document(report, derive_doc(checked), flags.out)


def derive_topology_order_cmd(name: str, relation):
    def command(flags: Namespace) -> RunReport:
        n = flags.n
        report = RunReport(command=["derive", name, str(n)])
        doc = order_to_dict(TopogenousOrder([relation(enumerate_topologies(n))]), [f"{n}pt"], form_id=f"top[{n}]")
        return report_document(report, doc, flags.out)

    return command


def classify_cmd(flags: Namespace) -> RunReport:
    """Classify morphisms: one entry each, with its morphism, strict, final, thick, kind and witnesses."""
    report = RunReport(command=["classify"])
    recipe = recipe_from_flags(flags, flags.order_path, flags.order_name)
    checked = load_recipe(recipe, report.inputs)
    report.checks.extend(run_checks(checked, ("order-axioms",), recipe))
    if checked.axioms.ok:
        form = checked.form
        targets = range(len(form.base.names))
        if flags.morphism:
            if flags.morphism not in form.base.ids:
                fail_usage(f"unknown morphism {flags.morphism!r}")
            targets = [form.base.ids[flags.morphism]]
        sw, fw = checked.strict_witness, checked.final_witness
        report.payload = {"morphisms": [classify_morphism(form, f, sw[f], fw[f]) for f in targets]}
    return report


def check_theorems_cmd(flags: Namespace) -> RunReport:
    """Run the whole theorem battery for a form and order."""
    for name in flags.check:
        if name not in BATTERY:
            fail_usage(f"unknown check {name!r}; known: {', '.join(BATTERY)}")
    report = RunReport(command=["check-theorems"])
    order_spec = flags.order_spec
    named = order_spec is None or order_spec in NAMED_ORDERS
    recipe = recipe_from_flags(flags, None if named else order_spec, order_spec if named else None)
    report.checks.extend(run_checks(load_recipe(recipe, report.inputs), battery_selection(flags.check), recipe))
    return report


def enumerate_cmd(name: str, enumerate_all, to_dict):
    def command(flags: Namespace) -> RunReport:
        report = RunReport(command=["enumerate", name, str(flags.n)])
        found = enumerate_all(flags.n)
        report.payload = {"n": flags.n, "count": len(found), name: [to_dict(t) for t in found]}
        return report

    return command


def enum_sub_cmd(flags: Namespace) -> RunReport:
    name, path = flags.group, flags.file
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
        subgroups = [{"elements": list(bits(m)), "normal": m in normals} for m in masks]
        report.payload = {"group": group.name, "order": group.n, "count": len(masks), "subgroups": subgroups}
    return report


def instance_cmd(kind: str):
    """The instance command of ``kind``: build it and emit its form."""

    def command(flags: Namespace) -> RunReport:
        sizes, corpus, max_order = (getattr(flags, name, None) for name in INSTANCE_FLAGS)
        form = build_instance(instance_recipe(kind, sizes, corpus, max_order), "instance").form
        report = RunReport(command=["instance", kind, *([corpus, str(max_order)] if kind == "grp" else [sizes])])
        return report_document(
            report, form, flags.emit, objects=list(form.base.objects), morphisms=len(form.base.names)
        )

    return command


def search_cmd(flags: Namespace) -> RunReport:
    """Check a claim against randomly generated forms; any counterexample
    fails the run and is replayable from (seed, index)."""
    claim, budget, seed = flags.claim, flags.budget, flags.seed
    if claim not in CLAIMS:
        fail_usage(f"unknown claim {claim!r}; known: {', '.join(sorted(CLAIMS))}")
    report = RunReport(command=["search", claim, str(budget), str(seed)])
    outcome = run_search(claim, budget, seed)
    rep = Report()
    rep.checks_run = budget
    for ce in outcome["counterexamples"]:
        detail = json.dumps(ce["violations"], sort_keys=True)
        rep.add("counterexample", where=f"index {ce['index']}", witness=(ce["seed"], ce["index"]), detail=detail)
    witness = None
    if outcome["counterexamples"]:
        first = outcome["counterexamples"][0]
        recipe = {"kind": "search", "claim": claim, "seed": first["seed"], "index": first["index"]}
        witness = make_witness("search", recipe)
    report.checks.append(check_from_report(f"search:{claim}", rep, witness))
    report.payload = {k: outcome[k] for k in ("claim", "budget", "seed", "forms_checked")}
    return report


def replay_cmd(flags: Namespace) -> RunReport:
    """Re-run the single check a witness came from."""
    witness_file = flags.witness_file
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
        for v in ce["violations"] if ce is not None else ():
            rep.add("counterexample", where=f"index {index}", detail=json.dumps(v, sort_keys=True))
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
            result["name"] = f"replay:{result['name']}"
            report.checks.append(result)
    return report


# -- argument parsing ----------------------------------------------------------------


def in_file(path: str) -> str:
    """A file option's value: the path of an existing file."""
    if not os.path.exists(path):
        raise ArgumentTypeError(f"file {path!r} does not exist")
    return out_file(path)


def out_file(path: str) -> str:
    """An output option's value: a path that names no directory."""
    if os.path.isdir(path):
        raise ArgumentTypeError(f"file {path!r} is a directory")
    return path


def budget(text: str) -> int:
    if int(text) < 1:
        raise ArgumentTypeError(f"{text} is not in the range x>=1")
    return int(text)


# Every parser's settings: no option may be abbreviated, and help is wrapped
# at 78 columns whatever the terminal's width.
PARSER = {"allow_abbrev": False, "formatter_class": lambda prog: HelpFormatter(prog, width=78)}

# An option is (flag, add_argument keywords); keywords of file options.
FILE = {"type": in_file, "metavar": "FILE"}
OUT = {"type": out_file, "metavar": "FILE"}
N = ("--n", {"required": True, "type": int})


def input_options(order: dict) -> tuple:
    """The input options of classify and check-theorems, with the command's
    own --order option second. --sizes, --corpus and --max-order default to
    None: recipe_from_flags refuses one the form's source does not read."""
    return (
        ("--form", FILE), ("--order", order), ("--instance", {"choices": ("top", "grp", "quot")}), ("--sizes", {}),
        ("--corpus", {"help": "default: standard"}),
        ("--max-order", {"type": int, "metavar": "N", "help": "default: 8"}),
    )


class Commands(_SubParsersAction):
    """The subcommands of one parser. Each is added with its help line, for
    its parent's --help and "invalid choice" message; its own options and
    subcommands are added when a command line names it, so a command builds
    only the parsers on its path."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pending = {}

    def add_command(self, name: str, doc: Optional[str], fill) -> None:
        """Add ``name``, whose parser ``fill`` completes when it is named."""
        self.pending[name] = fill, self.add_parser(name, help=doc, description=doc, **PARSER)

    def expand(self, name: str) -> ArgumentParser:
        """The parser of ``name``, completed."""
        if name in self.pending:
            fill, parser = self.pending.pop(name)
            fill(parser)
        return self.choices[name]

    def __call__(self, parser, namespace, values, option_string=None):
        self.expand(values[0])  # argparse has checked the name already
        super().__call__(parser, namespace, values, option_string)


def build_parser() -> ArgumentParser:
    """The command tree, each command's parser completed when it is named
    (``Commands``). The parser of each command sets two defaults: ``run``,
    its action, and ``parser``, itself, under whose usage line a usage or
    input error is reported."""
    root = ArgumentParser(
        prog="formkit", **PARSER,
        description="Compute with finite forms: fibre lattices, transfer maps, topogenous orders, "
        "closure/interior operators, and morphism classes.",
    )
    root.add_argument("--version", action="version", version=f"formkit, version {__version__}")
    root.add_argument("--format", choices=("json", "text"), default="json", help="default: %(default)s")
    root.add_argument("--seed", type=int, default=0, help="seed for randomized subcommands; default: %(default)s")
    tree: dict[str, tuple] = {}  # path -> (run, doc, options), in the order of the help listings

    def command(path: str, run=None, *options, doc: Optional[str] = None) -> None:
        """Declare ``path`` ("verify form"): a command that runs ``run`` and
        takes ``options``, or a group of commands when ``run`` is None."""
        tree[path] = run, doc or (run and run.__doc__), options

    def add_commands(parser: ArgumentParser, group: str) -> None:
        """Add the commands of ``group`` ("" for the top level) to ``parser``."""
        commands = parser.add_subparsers(metavar="COMMAND", required=True, action=Commands)
        for path, (_, doc, _) in tree.items():
            parent, _, name = path.rpartition(" ")
            if parent == group:
                commands.add_command(name, doc, lambda sub, path=path: fill(sub, path))

    def fill(parser: ArgumentParser, path: str) -> None:
        run, _, options = tree[path]
        if run is None:
            add_commands(parser, path)
        else:
            parser.set_defaults(run=run, parser=parser)
        for flag, keywords in options:
            parser.add_argument(flag, **keywords)

    def reads(path: str, files: tuple[str, ...], action, operator_kind=None, *options) -> None:
        """Add ``path``, a command that reads a form with an order or an
        operator (of ``operator_kind``) from the ``files`` options and hands
        them to ``action``."""
        keys = [FILE_OPTIONS[option] for option in files]

        def run(flags: Namespace) -> RunReport:
            recipe = {key: getattr(flags, key) for key in keys}
            report = RunReport(command=[*path.split(), *recipe.values()])
            if operator_kind is not None:
                recipe["operator_kind"] = operator_kind
            return action(report, load_recipe(recipe, report.inputs), flags)

        file_options = ((option, {"dest": key, "required": True, **FILE}) for option, key in zip(files, keys))
        command(path, run, *file_options, *options)

    command("verify", doc="Verify a lattice, form, order, or operator against its axioms.")
    command("verify lattice", verify_lattice_cmd, ("--file", {"required": True, **FILE}))
    reads("verify form", ("--file",), run_and_witness(FORM_CHECKS))
    reads("verify order", ("--form", "--order"), run_and_witness(("order-axioms", "order-class")))
    for kind in OPERATOR_KINDS:
        reads(f"verify {kind}", ("--form", "--operator"), run_and_witness((f"{kind}-axioms",)), kind)

    command("derive", doc="Derive operators from orders, orders from operators, or the built-in topology orders.")
    derive_order = report_derived(lambda c: order_to_dict(order_from_operator(c.form, c.operator), c.form.base.objects))
    for kind in OPERATOR_KINDS:
        derive = report_derived(
            lambda c, kind=kind: operator_to_dict(operator_from_order(c.form, c.order, kind), c.form.base.objects)
        )
        reads(f"derive {kind}", ("--form", "--order"), derive, None, ("--out", OUT))
        reads(f"derive order-from-{kind}", ("--form", "--operator"), derive_order, kind, ("--out", OUT))
    for name, relation in (("theta", theta_relation), ("b", b_relation)):
        command(f"derive {name}", derive_topology_order_cmd(name, relation), N, ("--out", OUT))

    command(
        "classify", classify_cmd, *input_options({"dest": "order_path", **FILE}),
        ("--order-name", {"choices": NAMED_ORDERS}), ("--morphism", {}),
    )
    order = {"dest": "order_spec", "metavar": "ORDER", "help": "order file, or a named order with --instance"}
    checks = {"action": "append", "default": [], "help": "restrict to named checks"}
    command("check-theorems", check_theorems_cmd, *input_options(order), ("--check", checks))

    command("enumerate", doc="Enumerate topologies, subgroups, or partitions.")
    command("enumerate topologies", enumerate_cmd("topologies", enumerate_topologies, topology_to_dict), N)
    command("enumerate partitions", enumerate_cmd("partitions", enumerate_partitions, partition_to_dict), N)
    command(
        "enumerate subgroups", enum_sub_cmd, ("--group", {"help": "a corpus group name such as S3 or Q8"}),
        ("--file", {**FILE, "help": "a Cayley-table JSON file"}),
    )

    command("instance", doc="Build a built-in instance and emit its form descriptor.")
    for kind in ("top", "quot"):
        command(f"instance {kind}", instance_cmd(kind), ("--sizes", {"required": True}), ("--emit", OUT))
    command(
        "instance grp", instance_cmd("grp"), ("--corpus", {"default": "standard", "help": "default: %(default)s"}),
        ("--max-order", {"type": int, "default": 8, "metavar": "N", "help": "default: %(default)s"}), ("--emit", OUT),
    )

    budget_option = ("--budget", {"type": budget, "default": 1000, "help": "default: %(default)s"})
    command("search", search_cmd, ("--claim", {"required": True}), budget_option)
    command("replay", replay_cmd, ("witness_file", {"type": in_file, "metavar": "WITNESS_FILE"}))
    add_commands(root, "")
    return root


def main(args: Optional[list[str]] = None) -> NoReturn:
    """Run the command ``args`` names (default ``sys.argv[1:]``) and exit with
    its code: 0 if every check passes, 1 if one fails, 2 on a usage or input
    error.

    The command runs with the cyclic garbage collector off: reference
    counting frees what formkit builds, and the only cycles a command leaves
    are its parser tree's. The collector is put back as the caller had it,
    and at interpreter exit ``gc.freeze`` spares the shutdown collection
    a pass over every object still alive."""
    enabled = gc.isenabled()
    gc.disable()
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:
        run_command(args)
    finally:
        if enabled:
            gc.enable()


def run_command(args: Optional[list[str]]) -> NoReturn:
    flags, extra = build_parser().parse_known_args(args)
    if extra:
        flags.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    started = time.monotonic()
    try:
        report = flags.run(flags)
    except InputError as exc:
        flags.parser.error(str(exc))
    try:
        code = emit(report, flags.format, started)
    except BrokenPipeError:  # the reader closed stdout early (`| head`): exit 1 without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


# perfbench/child.py runs main.main(args=..., prog_name="formkit", standalone_mode=True)
main.main = lambda args=None, **_: main(args)


if __name__ == "__main__":
    main()

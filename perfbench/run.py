"""The formkit benchmark: CLI commands users run, timed end to end.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. Every command runs in a fresh
interpreter, one at a time, exactly as `formkit ARGS...` would, and its
answer is compared with the verdict recorded in references.json. A pass is
one run of the workload's command list, in an order drawn from the seed;
passes repeat until --seconds is used up (at least one). The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
passes with passes whose children install the timing wrappers of
tracer.py, and reports the per-layer metrics plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.util
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import self_times  # noqa: E402
from verdict import differences, verdict_of  # noqa: E402

DEFAULT_SEED = 7
SEARCH_BUDGET = 1000
# setup_s samples: a few before timing, then more before every pass, so that
# their median spans the same stretch of machine time as the passes do.
SETUP_SAMPLES_AT_START = 3
SETUP_SAMPLES_PER_PASS = 2
# On a shared machine the speed one process gets drifts by tens of percent
# over seconds to minutes. Times are therefore reported at reference speed:
# as measured, times CALIBRATION_REFERENCE_S over the time calibrate.py took
# around the same pass. The times as measured are in the run record.
CALIBRATION_SAMPLES = 2
CALIBRATION_REFERENCE_S = 0.25
# Every run must end within 180 s; a command still running near that is killed.
RUN_DEADLINE_S = 170.0
# The forms the verify workload checks, by label: `instance` arguments.
# top[4] is left out: its single 20-30 s command per run spread by 0.22-0.28
# (IQR over median) across runs on a shared 2-core machine. top[3,3,3] and
# quot[3,3,3] run the same cubic sweeps at a size that repeats within a run.
VERIFY_INPUTS = {
    "top[3,3,3]": ["top", "--sizes", "3,3,3"],
    "quot[3,3,3]": ["quot", "--sizes", "3,3,3"],
    "grp8": ["grp"],
}
CLAIMS = ("roundtrip-TM", "roundtrip-TJ", "strict-iff-push", "final-thick", "transfer-laws", "cohereditary-operator")

END_TO_END = {
    "wall_s": "s",
    "slowest_cmd_s": "s",
    "forms_per_s": "forms/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

SPAN_METRICS = (
    "setmaps.function_category",
    "topologies.build",
    "groups.build",
    "partitions.build",
    "forms.base_verify",
    "forms.verify_laws",
    "forms.lifting_iso",
    "topogenous.verify_order",
    "topogenous.classify_order",
    "topogenous.verify_closure",
    "topogenous.roundtrip",
    "morphisms.transfer_laws",
    "morphisms.strict_via_operators",
    "search.random_form",
    "search.random_order",
    "jsonio.read",
    "jsonio.write",
    "cli",
)
COUNT_METRICS = (
    "lattice.meet_join.calls",
    "lattice.leq.calls",
    "setmaps.compose_entries",
    "forms.base_verify.checks",
    "forms.verify_laws.checks",
    "topogenous.roundtrip.checks",
    "topogenous.derive.calls",
    "morphisms.transfer_laws.checks",
    "morphisms.strict_final.calls",
    "jsonio.bytes_read",
    "jsonio.bytes_written",
)
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SPAN_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    "search.case_p50_ms": "ms",
    "search.case_p99_ms": "ms",
    "search.case_samples": "count",
    "search.distinct_ratio": "ratio",
    "tracing_overhead_s": "s",
}


@dataclass
class Pass:
    traced: bool
    setup: list[float]  # setup_s samples taken just before the pass
    times: dict[str, float] = field(default_factory=dict)  # command id -> seconds, as measured
    forms: int = 0
    docs: list[dict] = field(default_factory=list)  # span files of a traced pass
    scale: float = 1.0  # to reference speed, from the calibrations around the pass

    @property
    def wall(self) -> float:
        return sum(self.times.values())


@dataclass
class Command:
    id: str  # the key of its verdict in references.json
    args: list[str]
    emits: str | None = None  # path the command writes its form to
    forms: int = 1  # forms the command checks or builds


def workload_commands(name: str, work: Path, seed: int) -> list[Command]:
    if name == "theorems":
        return [
            Command("check-theorems top[1,2,3] theta", ["check-theorems", "--instance", "top", "--sizes", "1,2,3", "--order", "theta"]),
            Command("check-theorems top[1,2,3] b", ["check-theorems", "--instance", "top", "--sizes", "1,2,3", "--order", "b"]),
            Command("check-theorems grp8 normal-interval", ["check-theorems", "--instance", "grp", "--order", "normal-interval"]),
            Command("check-theorems quot[1,2,3,4] leq", ["check-theorems", "--instance", "quot", "--sizes", "1,2,3,4"]),
        ]
    if name == "verify":
        return [
            Command(f"verify form {label}", ["verify", "form", "--file", str(work / "inputs" / f"{label}.json")])
            for label in VERIFY_INPUTS
        ]
    if name == "build":
        out = work / "emitted"
        return [
            Command("instance top[4] --emit", ["instance", "top", "--sizes", "4", "--emit", str(out / "top4.json")], emits=str(out / "top4.json")),
            Command("instance grp8 --emit", ["instance", "grp", "--emit", str(out / "grp8.json")], emits=str(out / "grp8.json")),
            Command("instance quot[1,2,3,4] --emit", ["instance", "quot", "--sizes", "1,2,3,4", "--emit", str(out / "quot.json")], emits=str(out / "quot.json")),
        ]
    if name == "search":
        return [
            Command(f"search {c}", ["--seed", str(seed), "search", "--claim", c, "--budget", str(SEARCH_BUDGET)], forms=SEARCH_BUDGET)
            for c in CLAIMS
        ]
    raise ValueError(f"unknown workload {name!r}")


# -- children ---------------------------------------------------------------------------


class Runner:
    """Starts children one at a time in the checkout, with a fixed
    environment and bytecode already compiled."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def spawn(self, argv: list[str], tag: str) -> dict:
        out_path, err_path = self.work / f"{tag}.out", self.work / f"{tag}.err"
        timeout = max(1.0, self.deadline - perf_counter())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall": wall,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "exit": proc.returncode,
            "stdout": out_path.read_text(),
            "stderr": err_path.read_text(),
        }

    def formkit(self, cmd: Command, spans_path: Path | None = None) -> dict:
        argv = [sys.executable, str(HERE / "child.py")]
        if spans_path is not None:
            argv += ["--trace", str(spans_path)]
        return self.spawn(argv + ["--"] + cmd.args, "cmd")

    def setup_sample(self) -> float:
        return self.spawn([sys.executable, "-c", "import formkit.cli"], "setup")["wall"]

    def calibration(self) -> float:
        """Median time of calibrate.py: how fast the machine runs just now."""
        argv = [sys.executable, str(HERE / "calibrate.py")]
        return statistics.median(self.spawn(argv, "calibrate")["wall"] for _ in range(CALIBRATION_SAMPLES))


def judge(cmd: Command, res: dict, reference: dict) -> list[str]:
    """Why the command counts as a failed op; empty when it does not."""
    problems = []
    if "Traceback (most recent call last)" in res["stderr"]:
        problems.append("printed a traceback")
    emitted = None
    if cmd.emits is not None:
        try:
            with open(cmd.emits) as fh:
                emitted = json.load(fh)
            os.remove(cmd.emits)
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"emitted form unreadable: {exc}")
    try:
        problems += differences(verdict_of(res["exit"], res["stdout"], emitted), reference)
    except ValueError as exc:
        problems.append(f"exit {res['exit']}: {exc}")
    return problems


# -- aggregation ----------------------------------------------------------------------------


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[k]


def scale_to_reference(passes: list[Pass], brackets: list[float], first_setup: list[float]) -> list[float]:
    """Set each pass's scale from the calibrations before and after it
    (brackets[i] and brackets[i + 1]); return the setup samples at reference
    speed, each scaled by the calibration taken just before it."""
    for i, p in enumerate(passes):
        p.scale = CALIBRATION_REFERENCE_S * 2 / (brackets[i] + brackets[i + 1])
    setup = [t * CALIBRATION_REFERENCE_S / brackets[0] for t in first_setup]
    for i, p in enumerate(passes):
        setup += [t * CALIBRATION_REFERENCE_S / brackets[i] for t in p.setup]
    return setup


def spread(values: list[float]) -> str:
    """How a median was taken, for the human-readable metric lines."""
    if len(values) < 2:
        return f" (from {len(values)} sample)" if values else ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f" (median of {len(values)}; quartiles {q1:.4g} .. {q3:.4g})"


def layer_metrics(docs: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced pass from its children's span files."""
    out = {name: 0.0 for name in PER_LAYER if name != "tracing_overhead_s"}
    case_ms = []
    generated = distinct = 0
    for doc in docs:
        spans = doc["spans"]
        for (name, start, end, _), own in zip(spans, self_times(spans)):
            if f"{name}.self_s" in out:
                out[f"{name}.self_s"] += own
            if name == "search.case":
                case_ms.append((end - start) * 1000.0)
        for name, n in doc["counts"].items():
            out[name] += n
        generated += doc["generated_forms"]
        distinct += doc["distinct_forms"]
    case_ms.sort()
    if case_ms:
        out["search.case_p50_ms"] = statistics.median(case_ms)
        out["search.case_p99_ms"] = quantile(case_ms, 0.99)
    out["search.case_samples"] = float(len(case_ms))
    out["search.distinct_ratio"] = distinct / generated if generated else 0.0
    return out


def read_proc(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def record(root: Path) -> dict:
    """What the figures depend on besides the code: the machine and its load."""
    cpu = next(
        (line.split(":", 1)[1].strip() for line in read_proc("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_start": read_proc("/proc/loadavg"),
    }


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git (a benchmark
    checkout is usually not a repository)."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def prepare(root: Path) -> dict:
    """Compile the package's bytecode so every child starts from cached .pyc
    files, whatever state the checkout was in. Returns that state."""
    src = root / "src" / "formkit"
    modules = sorted(src.glob("*.py"))
    cached_before = all(Path(importlib.util.cache_from_source(str(m))).is_file() for m in modules)
    if not compileall.compile_dir(str(src), quiet=1):
        raise SystemExit("perfbench: formkit sources do not compile")
    return {"pyc_cached_at_start": cached_before, "pyc_cached_while_timing": True}


# -- main -----------------------------------------------------------------------------------


def run(args: argparse.Namespace) -> int:
    root = Path.cwd()
    if not (root / "src" / "formkit" / "cli.py").is_file():
        print("perfbench: run from the root of a formkit checkout (src/formkit/cli.py not found)", file=sys.stderr)
        return 2
    references = json.loads((HERE / "references.json").read_text())["commands"]
    started = perf_counter()
    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "emitted").mkdir(parents=True)
    (work / "spans").mkdir()
    rec = record(root)
    rec.update(prepare(root), workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    runner = Runner(root, work, started + RUN_DEADLINE_S)

    if args.workload == "verify":
        make_verify_inputs(runner, work)
    commands = workload_commands(args.workload, work, args.seed)
    rng = random.Random(args.seed)
    brackets = [runner.calibration()]
    first_setup = [runner.setup_sample() for _ in range(SETUP_SAMPLES_AT_START)]
    passes: list[Pass] = []
    failures: list[str] = []
    all_spans: list[dict] = []
    rss = 0.0
    t0 = perf_counter()
    while True:
        traced = bool(args.trace) and sum(p.traced for p in passes) < sum(not p.traced for p in passes)
        p = Pass(traced, [runner.setup_sample() for _ in range(SETUP_SAMPLES_PER_PASS)])
        for cmd in rng.sample(commands, len(commands)):
            spans_path = work / "spans" / "cmd.json" if traced else None
            if spans_path is not None:
                spans_path.unlink(missing_ok=True)
            res = runner.formkit(cmd, spans_path)
            problems = judge(cmd, res, references[cmd.id])
            if spans_path is not None:
                try:
                    doc = json.loads(spans_path.read_text())
                except (OSError, json.JSONDecodeError) as exc:
                    problems.append(f"no trace written: {exc}")
                else:
                    p.docs.append(doc)
                    all_spans.append({"command": cmd.id, "pass": len(passes), **doc})
            if problems:
                failures.append(f"{cmd.id}: {'; '.join(problems)}")
            p.times[cmd.id] = res["wall"]
            p.forms += cmd.forms
            if not traced:
                rss = max(rss, res["rss_mb"])
        passes.append(p)
        brackets.append(runner.calibration())
        elapsed = perf_counter() - t0
        per_pass = elapsed / len(passes)
        enough = not args.trace or any(q.traced for q in passes)
        if perf_counter() + per_pass > runner.deadline or (enough and elapsed + per_pass > args.seconds):
            break

    setup = scale_to_reference(passes, brackets, first_setup)
    untraced = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]

    rec["loadavg_end"] = read_proc("/proc/loadavg")
    rec["passes"] = {"untraced": len(untraced), "traced": len(traced_passes)}
    if args.trace:
        metrics = {name: statistics.median(layer_metrics(p.docs)[name] for p in traced_passes) for name in PER_LAYER if name != "tracing_overhead_s"}
        metrics["tracing_overhead_s"] = statistics.median(p.wall * p.scale for p in traced_passes) - statistics.median(p.wall * p.scale for p in untraced)
        units, samples = PER_LAYER, {}
        (root / ".perfbench_work" / f"spans-{args.workload}.json").write_text(json.dumps(all_spans))
    else:
        samples = {
            "wall_s": [p.wall * p.scale for p in untraced],
            "slowest_cmd_s": [max(p.times.values()) * p.scale for p in untraced],
            "forms_per_s": [p.forms / (p.wall * p.scale) for p in untraced],
            "setup_s": setup,
        }
        metrics = {name: rss if name == "peak_rss_mb" else statistics.median(samples[name]) for name in END_TO_END}
        units = END_TO_END
    rec["calibration_s"] = brackets
    rec["raw"] = {
        "pass_walls_s": {"untraced": [p.wall for p in untraced], "traced": [p.wall for p in traced_passes]},
        "command_times_s": {cid: [p.times[cid] for p in untraced] for cid in sorted(untraced[0].times)},
        "setup_samples_s": first_setup + [t for p in passes for t in p.setup],
    }
    rec["elapsed_s"] = perf_counter() - started
    attempted = sum(len(p.times) for p in passes)
    print("run-record " + json.dumps(rec, sort_keys=True))
    for line in failures:
        print("failed-op " + line)
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}{spread(samples.get(name, ()))}")
    print(f"metric failed_ops = {len(failures) / attempted:.6g} share ({len(failures)} of {attempted} commands)")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


def make_verify_inputs(runner: Runner, work: Path) -> None:
    """Emit the verify workload's form files once, before any timing."""
    (work / "inputs").mkdir()
    for label, args in VERIFY_INPUTS.items():
        path = work / "inputs" / f"{label}.json"
        res = runner.formkit(Command("setup", ["instance", *args, "--emit", str(path)]))
        if res["exit"] != 0:
            raise SystemExit(f"perfbench: could not emit {path.name}: {res['stderr'][-2000:]}")


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("theorems", "verify", "build", "search"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))

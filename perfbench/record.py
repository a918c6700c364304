"""Record the reference verdict of every benchmark command.

    python3 perfbench/record.py

Run from the root of a checkout whose answers are known to be right; it
rewrites perfbench/references.json. Search commands are recorded at the
default seed. Their verdict holds no seed, so it serves every seed on which
the search finds no counterexample.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path
from time import perf_counter

import run as bench
from verdict import verdict_of

NOTES = [
    "Every check-theorems command of the theorems workload exits 1 at the recording commit. "
    "transfer-laws fails on the clause section-strict-final (strict sections are final): "
    "11 violations on top[1,2,3]/theta, 11 on top[1,2,3]/b, 17 on grp8/normal-interval and "
    "51 on quot[1,2,3,4]/leq. top[1,2,3]/b also fails b-all-final with 39 violations, "
    "the refuted b-finality claim of acceptance criterion 7. These refutations are the correct "
    "answers, so exit 1 is the reference and not a failed op.",
    "Left out as too slow to repeat in every run of a benchmark sized for a 2-core machine: "
    "check-theorems --instance top --sizes 4 --order theta (159 s, almost all of it the "
    "roundtrip's 32.4M dense verify_closure checks) and instance quot --sizes 5 --emit "
    "(77 s, 2.78 GB peak RSS, a 658 MB file; build_quot_form([5]) alone is 30 s and 1.3 GB). "
    "The build and theorems workloads run the same code paths at sizes that repeat.",
    "verify form on top[4] is left out of the verify workload: it is one 20-30 s command, so a "
    "run holds a single sample, and across runs on a shared 2-vCPU virtual machine that sample spread "
    "by 0.22-0.28 (IQR over median), beyond any allowed bound. verify form on top[3,3,3] and "
    "quot[3,3,3] runs the same associativity and Galois sweeps at a size that repeats; "
    "instance top --sizes 4 --emit stays in the build workload.",
]


def main() -> int:
    root = Path.cwd()
    work = root / ".perfbench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    (work / "emitted").mkdir(parents=True)
    bench.prepare(root)
    runner = bench.Runner(root, work, perf_counter() + 3600)
    bench.make_verify_inputs(runner, work)
    commands = {}
    for workload in ("theorems", "verify", "build", "search"):
        for cmd in bench.workload_commands(workload, work, bench.DEFAULT_SEED):
            res = runner.formkit(cmd)
            emitted = None
            if cmd.emits is not None:
                with open(cmd.emits) as fh:
                    emitted = json.load(fh)
            commands[cmd.id] = verdict_of(res["exit"], res["stdout"], emitted)
            print(f"{cmd.id}: exit {res['exit']} in {res['wall']:.2f} s", file=sys.stderr)
    doc = {"seed": bench.DEFAULT_SEED, "search_budget": bench.SEARCH_BUDGET, "notes": NOTES, "commands": commands}
    (bench.HERE / "references.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

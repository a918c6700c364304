"""Run one formkit command the way the `formkit` console script does.

    python3 perfbench/child.py [--trace SPANS.json] -- ARGS...

With --trace, timing wrappers are installed before the command starts and
the spans and counters are written to SPANS.json when it ends. The exit
code is the command's own.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--trace"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from formkit.cli import main as formkit_main

    if spans_path is None:
        return _run(formkit_main, argv)
    from tracer import ROOT, Tracer

    tracer = Tracer()
    tracer.install()
    command = tracer.spanned(ROOT, _run)
    try:
        return command(formkit_main, argv)
    finally:
        tracer.dump(spans_path)


def _run(formkit_main, argv: list[str]) -> int:
    try:
        formkit_main.main(args=argv, prog_name="formkit", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Text the CLI prints besides its reports: every command's --help, the
stderr of malformed input, and the README's usage block run line by line.

The --help and stderr pins live under tests/pins/. Temporary directories
in stderr are replaced by ``<tmp>`` and the ``elapsed:`` line is dropped.
After an intended change to that text, regenerate with

    PYTHONPATH=src python tests/test_cli_pins.py --regen

and record in CHANGES.md which pins changed and why.
"""

from __future__ import annotations

import json
import re
import shlex
import sys
import tempfile
from argparse import ArgumentParser, _SubParsersAction
from pathlib import Path

import pytest

from cli_runner import CliRunner
from formkit.cli import build_parser
from test_cli import MALFORMED, _top2_inputs
from test_golden import CASES, _write_inputs

PINS = Path(__file__).parent / "pins"
README = Path(__file__).resolve().parents[1] / "README.md"

# Golden cases whose stderr is pinned as well as their stdout.
GOLDEN_STDERR = ("ct-files-broken-adjunction",)


def command_paths(parser: ArgumentParser | None = None, path: tuple[str, ...] = ()):
    """The argument prefix of every command and subcommand, the root first."""
    parser = build_parser() if parser is None else parser
    yield path
    for action in parser._actions:
        if isinstance(action, _SubParsersAction):
            for name, sub in sorted(action.choices.items()):
                yield from command_paths(sub, path + (name,))


def _help_pin(path: tuple[str, ...]) -> Path:
    return PINS / "help" / (("-".join(path) or "formkit") + ".txt")


def _help(path: tuple[str, ...]) -> str:
    return CliRunner().invoke([*path, "--help"]).stdout


def _stderr(result, tmp: str = "") -> str:
    text = result.stderr.replace(tmp, "<tmp>") if tmp else result.stderr
    lines = [line for line in text.splitlines(keepends=True) if not line.startswith("elapsed:")]
    return f"exit {result.exit_code}\n" + "".join(lines)


def _malformed_stderr(case: str, tmp: Path) -> str:
    result = CliRunner().invoke(MALFORMED[case](tmp, _top2_inputs(tmp)))
    return _stderr(result, str(tmp))


def test_every_command_has_a_help_pin():
    pinned = sorted(p.name for p in (PINS / "help").iterdir())
    assert pinned == sorted(_help_pin(path).name for path in command_paths())


@pytest.mark.parametrize("path", list(command_paths()), ids=lambda p: " ".join(p) or "formkit")
def test_help_is_pinned(path):
    assert _help(path) == _help_pin(path).read_text()


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_stderr_is_pinned(case, tmp_path):
    assert _malformed_stderr(case, tmp_path) == (PINS / "stderr" / f"{case}.txt").read_text()


def _golden_stderr(name: str) -> str:
    with CliRunner().isolated_filesystem():
        _write_inputs()
        return _stderr(CliRunner().invoke(CASES[name]))


@pytest.mark.parametrize("name", GOLDEN_STDERR)
def test_golden_stderr_is_pinned(name):
    assert _golden_stderr(name) == (PINS / "stderr" / f"{name}.txt").read_text()


def _readme_block(after: str) -> list[str]:
    """The lines of the first sh block that follows the line ``after``."""
    text = README.read_text()
    block = re.search(r"```sh\n(.*?)```", text[text.index(after):], re.S)
    return [line for line in block.group(1).splitlines() if line and not line.startswith("#")]


def test_readme_usage_block_runs():
    """Every command of README's usage block exits 0, in order, in one
    directory; then a failing witness is saved and replayed as README's
    replay block does."""
    runner = CliRunner()
    usage = _readme_block("## Command line")
    replay = _readme_block("replays that single check")
    assert len(usage) == 19
    with runner.isolated_filesystem():
        for line in usage:
            args = shlex.split(line)
            assert args[0] == "formkit"
            res = runner.invoke(args[1:])
            assert res.exit_code == 0, (line, res.stderr)
        battery, extract, replay_line = replay
        args = shlex.split(battery)
        assert args[0] == "formkit" and args[-2] == ">"
        res = runner.invoke(args[1:-2])
        assert res.exit_code == 1
        Path(args[-1]).write_text(res.stdout)
        python, flag, code = shlex.split(extract)
        assert (python, flag) == ("python3", "-c")
        exec(code, {})
        res = runner.invoke(shlex.split(replay_line)[1:])
        assert res.exit_code == 1
        (replayed,) = json.loads(res.stdout)["checks"]
        assert replayed["name"].startswith("replay:") and replayed["violations"]


def _regenerate() -> None:
    for sub in ("help", "stderr"):
        (PINS / sub).mkdir(parents=True, exist_ok=True)
    for path in command_paths():
        _help_pin(path).write_text(_help(path))
    for case in sorted(MALFORMED):
        with tempfile.TemporaryDirectory() as tmp:
            (PINS / "stderr" / f"{case}.txt").write_text(_malformed_stderr(case, Path(tmp)))
    for name in GOLDEN_STDERR:
        (PINS / "stderr" / f"{name}.txt").write_text(_golden_stderr(name))


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_cli_pins.py --regen")
    _regenerate()

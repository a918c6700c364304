"""A command runs with the cyclic garbage collector off (`formkit.cli.main`).

That is safe because reference counting frees everything a command builds:
the only cycles it leaves are those of its argparse parser tree, the same
number whatever the work. In-process callers get the collector back as
they had it.
"""

import gc

from cli_runner import CliRunner
from formkit import cli

SEARCH = ["--seed", "7", "search", "--claim", "transfer-laws", "--budget"]
BATTERY = ["check-theorems", "--instance", "quot", "--sizes", "1,2,3"]


def _parser_garbage(args: list[str]) -> int:
    """The cyclic garbage of parsing ``args`` and dropping the parser."""
    cli.build_parser().parse_known_args(args)
    return gc.collect()


def test_a_command_runs_without_the_collector_and_leaves_only_parser_garbage(monkeypatch):
    gc.collect()
    gc.disable()
    try:
        left = []
        for args, code in (([*SEARCH, "50"], 0), ([*SEARCH, "400"], 0), (BATTERY, 1)):
            parser_garbage = _parser_garbage(args)
            assert parser_garbage > 0
            assert CliRunner().invoke(args).exit_code == code
            assert not gc.isenabled()  # put back as this caller had it
            left.append(gc.collect())
            assert left[-1] == parser_garbage, args
        assert left[0] == left[1]  # the same at budget 50 as at 400
    finally:
        gc.enable()
    enabled = []
    run_checks = cli.run_checks
    monkeypatch.setattr(cli, "run_checks", lambda *args: enabled.append(gc.isenabled()) or run_checks(*args))
    assert CliRunner().invoke(BATTERY).exit_code == 1
    assert enabled == [False]  # off while the battery ran
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0

"""Run the formkit command line in process: an argument list in; the exit
code, stdout and stderr out, as a fresh `formkit` process would give them
(the program name is `formkit`). An exception the command does not handle
is raised, not recorded."""

from __future__ import annotations

import io
import os
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from typing import Iterator, NamedTuple

from formkit.cli import main


class Result(NamedTuple):
    exit_code: int
    stdout_bytes: bytes
    stderr: str

    @property
    def stdout(self) -> str:
        return self.stdout_bytes.decode()

    @property
    def output(self) -> str:
        """stdout, then stderr."""
        return self.stdout + self.stderr


class CliRunner:
    def invoke(self, args: list[str]) -> Result:
        out, err = io.BytesIO(), io.StringIO()
        stdout = io.TextIOWrapper(out, encoding="utf-8", newline="")
        try:
            with redirect_stdout(stdout), redirect_stderr(err):
                main(list(args))
            code = 0
        except SystemExit as exc:
            code = exc.code
        finally:
            stdout.flush()
            stdout.detach()
        return Result(code, out.getvalue(), err.getvalue())

    @contextmanager
    def isolated_filesystem(self) -> Iterator[str]:
        """Run the block in a new empty directory, removed after it."""
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                yield tmp
            finally:
                os.chdir(cwd)

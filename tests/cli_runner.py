"""Run the ecount command line inside the test process.

`invoke(args, env)` calls `ecount.cli.main` with stdout and stderr
captured and the given environment variables set for the call only.  It
returns what the call printed, its exit code, and the exception that
ended it: a SystemExit with a nonzero code, or any other exception
escaping `main`, which a real process would print as a traceback.
"""

from __future__ import annotations

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

from ecount.cli import main


class Result(NamedTuple):
    stdout: str
    stderr: str
    exit_code: int
    exception: BaseException | None

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def invoke(args, env: dict[str, str] | None = None) -> Result:
    """`ecount ARGS` in this process, with `env` added to os.environ."""
    env = env or {}
    saved = {key: os.environ.get(key) for key in env}
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    exit_code, exception = 0, None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            main(list(args), prog_name="ecount")
    except SystemExit as exc:
        exit_code = exc.code or 0
        if exit_code:
            exception = exc
    except Exception as exc:  # an escaped error, a traceback in a real process
        exit_code, exception = 1, exc
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return Result(out.getvalue(), err.getvalue(), exit_code, exception)

"""Golden transcript of the CLI: stdout, stderr and exit code of a fixed
command list, compared as text with `cli_golden.txt`.

Each block of the data file starts with a `$ ...` line naming the
command; the lines under it are its stdout, then its stderr after a
`[stderr]` line (the `# elapsed_ms=` timing line left out), then its
exit code.  A digit that changes shows up as a one-line diff.  After an
intended change to the output, rewrite the file with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import difflib
import shlex
from pathlib import Path

import pytest

from cli_runner import invoke

GOLDEN = Path(__file__).with_name("cli_golden.txt")

_COMPUTE = [
    "derangements --n 5",
    "dpoly-eval --n 3 --x 1/2",
    "paths --n 6",
    "path-length-sum --n 6",
    "cycles --n 6",
    "cycle-length-sum --n 6",
    "avg-path-length --n 6",
    "floor-e-nfact --n 6",
    "frac-e-nfact --n 5",
    "frac-e-nfact --n 5 --precision-bits 40",
    "eq2 --n 6",
    "eq3 --n 6",
    "eq4 --n 6",
    "eq5 --n 6",
    "eq5 --n 6 --m 4",
    "eq6 --n 6",
    "thm7 --n 6",
    "thm7 --n 6 --m 2",
    "hyp2f0 --n 3 --x 1/2",
    "hyp1f1 --n 2 --x 1/2",
    "hyp1f1 --n 2 --x -3 --precision-bits 40",
    "inc-gamma --n 3 --z -1/2",
    "integrals --n 2",
    "integrals --n 1 --tol 1/1000 --precision-bits 40",
    "bounds --n 5",
    "bounds --n 5 --m 3",
]

_VERIFY = [
    "eq1 --n-range 1..20",
    "derangement-family --n-range 1..8",
    "derangement-family --n-range 1..8 --m-range 3..4",
    "derangement-family --lambda 0 --n-range 1..6",
    "paths-cycles --n-range 3..12",
    "bounds-chain --n-range 2..10",
    "bounds-chain --n-range 2..6 --m-range 1..3",
    "special-fn --n-range 0..3",
    "special-fn --n-range 1..2 --precision-bits 60 --tol 1/1000",
    "oracle-equivalence --n-range 3..6",
    "all --n-range 3..5",
    "all",
]

_TABLES = [
    "derangements --n-range 0..6",
    "paths --n-range 3..7",
    "cycles --n-range 3..7",
    "path-length-sum --n-range 3..7",
    "cycle-length-sum --n-range 3..7",
    "avg-path-length --n-range 3..7",
    "floor-e-nfact --n-range 1..6",
    "frac-e-nfact --n-range 1..4",
    "bounds --n 5 --m-range 1..4",
]

_ERRORS = [
    "compute no-such-op --n 3",
    "compute paths",
    "compute dpoly-eval --n 3",
    "compute inc-gamma --n 3",
    "compute dpoly-eval --n 3 --x 0.5",
    "compute paths --n 2",
    "compute eq5 --n 4 --m 2",
    "compute bounds --n 1",
    "table paths --n-range 1..3",
    "table derangements",
    "table bounds",
    "verify bogus",
    "ECOUNT_PRECISION_CAP=4 compute floor-e-nfact --n 5",
    "ECOUNT_PRECISION_CAP=4 compute paths --n 5",
    "ECOUNT_PRECISION_CAP=4 table paths --n-range 3..5",
    "ECOUNT_PRECISION_CAP=4 verify eq1 --n-range 1..5",
]

COMMANDS = (
    [f"compute {c}" for c in _COMPUTE]
    + [f"compute {c} --format json" for c in _COMPUTE]
    + [f"verify {c}" for c in _VERIFY]
    + [f"table {c} --format {fmt}" for c in _TABLES for fmt in ("csv", "json", "md")]
    + _ERRORS
)


def _split(command: str) -> tuple[dict[str, str], list[str]]:
    """Leading VAR=value words become the environment of the call."""
    words = shlex.split(command)
    env = {}
    while "=" in words[0]:
        key, value = words.pop(0).split("=", 1)
        env[key] = value
    return env, words


def _header(command: str) -> str:
    env, words = _split(command)
    return "$ " + " ".join([f"{k}={v}" for k, v in env.items()] + ["ecount"] + words)


def run_block(command: str) -> str:
    """The transcript block of one command, header line included."""
    env, words = _split(command)
    # argparse wraps its usage lines to the terminal width, read from COLUMNS
    res = invoke(words, env={"COLUMNS": "80", **env})
    stderr = "".join(
        line for line in res.stderr.splitlines(True) if not line.startswith("# elapsed_ms=")
    )
    lines = [_header(command), res.stdout + "[stderr]", stderr + f"[exit {res.exit_code}]"]
    if res.exception is not None and not isinstance(res.exception, SystemExit):
        lines.append(f"[exception {type(res.exception).__name__}: {res.exception}]")
    return "\n".join(lines) + "\n"


def _golden_blocks() -> dict[str, str]:
    blocks: dict[str, str] = {}
    header = None
    for line in GOLDEN.read_text(encoding="utf-8").splitlines(True):
        if line.startswith("$ "):
            header = line.rstrip("\n")
            blocks[header] = line
        else:
            blocks[header] += line
    return blocks


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return _golden_blocks()


def test_golden_file_lists_every_command_once(golden):
    assert list(golden) == [_header(c) for c in COMMANDS]


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_matches_golden(golden, command):
    got = run_block(command)
    want = golden.get(_header(command), "")
    if got != want:
        diff = difflib.unified_diff(
            want.splitlines(True), got.splitlines(True), "cli_golden.txt", "now"
        )
        pytest.fail("".join(diff), pytrace=False)


if __name__ == "__main__":
    GOLDEN.write_text("".join(run_block(c) for c in COMMANDS), encoding="utf-8")

"""The cold_cli workload: one fresh `ecount compute` process per operation.

Every call runs in a child that inherits the caller's environment, with
only the source tree put on PYTHONPATH.  Nothing else is set: no
PYTHONINTMAXSTRDIGITS, no -X int_max_str_digits, no ECOUNT_PRECISION_CAP.

Each call's stdout and exit code are checked twice: against the pinned
sha256 digest in pins.json (so the CLI's output must stay byte-identical)
and against values from reference.py.  A failure is classified from the
exit code and stderr as `wrong`, `typed_error`, `traceback` or
`deadline`; today a traceback exits with code 1, like a genuine
violation, so stderr decides.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import reference
from workloads import DEADLINE_S, cli_argv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS_FILE = HERE / "pins.json"
WARMUP_ARGV = ["compute", "derangements", "--n", "10"]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    return env


def pin_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_pins() -> dict[str, str]:
    with open(PINS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


class Call(NamedTuple):
    """Outcome of one child process."""

    code: int | None  # None when the deadline killed the child
    out: bytes
    err: bytes
    wall_s: float
    rss_kb: int


def spawn(cmd: list[str], scratch: Path, deadline_s: float = DEADLINE_S["cold_cli"]) -> Call:
    """Run cmd to completion; time it from spawn to reaping."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out_fh, open(err_path, "wb") as err_fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out_fh, stderr=err_fh, env=child_env(), cwd=ROOT)
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(deadline_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if killed.is_set() else proc.returncode
    return Call(code, out_path.read_bytes(), err_path.read_bytes(), wall, usage.ru_maxrss)


def plain_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "ecount.cli", *argv]


def traced_cmd(argv: list[str], times_file: Path) -> list[str]:
    return [sys.executable, str(HERE / "cli_shim.py"), str(times_file), *argv]


# --- output checks ----------------------------------------------------------


def _dual(v: int) -> str:
    return f"{v}\nverified=true\nroutes agree on {v}\n"


def _frac_triple(ref: reference.Recurrences, n: int) -> list[str]:
    return [str(-ref.s(n)), str(math.factorial(n)), "0"]


def value_ok(op: tuple, out: bytes, ref: reference.Recurrences) -> bool:
    """Whether a successful call printed the right value (text format)."""
    kind, n = op[0], op[1]
    text = out.decode("utf-8")
    if kind == "derangements":
        return text == f"{ref.d(n)}\n"
    if kind in ("eq2", "eq3", "eq4", "eq5", "eq6", "thm7"):
        return text == _dual(ref.d(n))
    dual_values = {
        "floor-e-nfact": ref.s,
        "paths": ref.paths,
        "cycles": ref.cycles,
        "path-length-sum": ref.path_length_sum,
        "cycle-length-sum": ref.cycle_length_sum,
    }
    if kind in dual_values:
        return text == _dual(dual_values[kind](n))
    if kind == "dpoly-eval":
        return text == f"{reference.dpoly(n, Fraction(op[2]))}\n"
    lines = text.splitlines()
    if kind == "frac-e-nfact":
        value = json.loads(lines[0])
        iv = value["interval"]
        lo, hi = Fraction(iv["lo"]), Fraction(iv["hi"])
        return (
            len(lines) == 1
            and value["eform"] == _frac_triple(ref, n)
            and iv["precision_bits"] == 96
            and reference.eform_interval_check(lo, hi, -ref.s(n), math.factorial(n), 0)
        )
    if kind == "bounds":
        value = json.loads(lines[0])
        m_list = value["m_list"]
        nf = str(math.factorial(n))
        return (
            lines[1:] == ["verified=true"]
            and value["frac"] == _frac_triple(ref, n)
            and [e["m"] for e in m_list] == list(range(1, 9))
            and m_list[0]["M"] == str(Fraction(1, n))
            and m_list[1]["M"] == str(Fraction(n + 2, (n + 1) ** 2))
            and all(
                e["N"] == [str(ref.bound_n_head(n, e["m"])), nf, "0"] for e in m_list
            )
        )
    raise ValueError(f"unknown cli op {kind!r}")


def classify(op: tuple, call: Call, pins: dict, ref: reference.Recurrences) -> str:
    """'ok', 'wrong', 'typed_error', 'traceback' or 'deadline'."""
    if call.code is None:
        return "deadline"
    err = call.err.decode("utf-8", "replace")
    if "Traceback (most recent call last)" in err:
        return "traceback"
    if call.code == 0:
        pin = pins.get(pin_key(cli_argv(op)))
        if pin is not None and pin != hashlib.sha256(call.out).hexdigest():
            return "wrong"
        return "ok" if value_ok(op, call.out, ref) else "wrong"
    if call.code in (1, 3) and err.startswith(("domain error:", "violation:")):
        return "typed_error"
    return "wrong"

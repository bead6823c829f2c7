"""Regenerate pins.json: the stdout digest of every cold_cli input.

    python3 perfbench/make_pins.py

Runs every operation cold_cli can generate once, through the plain CLI,
and pins the sha256 of stdout for each call that exits 0 with a value
that reference.py confirms.  Calls that fail are reported, not pinned.
Run it only when the benchmark's input set changes: the point of the pins
is that a later change to the CLI must keep its stdout byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import cold_cli
import reference
import workloads


def main() -> int:
    sys.set_int_max_str_digits(0)  # this process only; see run.py
    ref = reference.Recurrences()
    pins: dict[str, str] = {}
    failures: dict[str, list[str]] = {}
    cold_cli.HERE.joinpath("out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=cold_cli.HERE / "out") as tmp:
        for op in workloads.all_cli_ops():
            argv = workloads.cli_argv(op)
            call = cold_cli.spawn(cold_cli.plain_cmd(argv), Path(tmp))
            status = cold_cli.classify(op, call, {}, ref)
            key = cold_cli.pin_key(argv)
            if status == "ok":
                pins[key] = hashlib.sha256(call.out).hexdigest()
            else:
                failures.setdefault(status, []).append(key)
            print(f"{status:12s} {call.wall_s:7.3f}s {key}", flush=True)
    with open(cold_cli.PINS_FILE, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=0, sort_keys=True)
        fh.write("\n")
    for status, keys in sorted(failures.items()):
        print(f"{status}: {len(keys)} inputs, e.g. {keys[:3]}")
    return 1 if "wrong" in failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Traced stand-in for the `ecount` console script.

    python3 perfbench/cli_shim.py TIMES_FILE compute paths --n 10

Runs `ecount.cli.main` on the remaining arguments exactly as the console
script does (same stdout, stderr and exit code), with every library layer
wrapped by tracer.Tracer and the call to `main` as the one cli span.  On
exit it writes the spans and its own timestamps (time.monotonic) to
TIMES_FILE.
"""

import time

_T_ENTRY = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

import ecount.cli  # noqa: E402

_T_IMPORTED = time.monotonic()

import tracer as tracing  # noqa: E402


def main() -> None:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tr = tracing.Tracer()
    tr.install()
    t_installed = time.monotonic()
    main_span: list[float] = []
    try:
        main_span.append(time.monotonic())
        tr.call("cli", "main", ecount.cli.main.main, args=argv, prog_name="ecount")
    finally:
        main_span.append(time.monotonic())
        record = {
            "entry": _T_ENTRY,
            "imported": _T_IMPORTED,
            "installed": t_installed,
            "main": main_span,
            "spans": tr.spans,
            "done": time.monotonic(),
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, separators=(",", ":"))


if __name__ == "__main__":
    main()

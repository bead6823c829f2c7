"""Run the benchmark over several seeds and record the results.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 30 [--workloads cold_cli,...]

For each workload it makes one untraced run per seed and one traced run
(first seed), prints the median, quartiles and spread (interquartile
range over median) of every end-to-end metric, and writes everything,
with a description of the machine, to perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "baseline.json"


def _machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu": cpu,
    }


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": time.monotonic() - t0, "summary": lines[:-1], **json.loads(lines[-1])}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = p.parse_args()
    seeds = _seeds(args.seeds)
    record = json.loads(OUT.read_text(encoding="utf-8")) if OUT.exists() else {}
    record["machine"] = _machine()
    record["seconds"] = args.seconds
    record.setdefault("workloads", {})
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            res = _run(workload, seed, args.seconds, 0)
            runs.append(res)
            print(workload, seed, f"{res['wall_s']:.1f}s", res["summary"][0], flush=True)
        stats = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            stats[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "values": values,
            }
            print(f"  {name:18s} median {med:.6g}  spread {stats[name]['spread']:.4f}")
        traced = _run(workload, seeds[0], args.seconds, 1)
        record["workloads"][workload] = {
            "seeds": seeds,
            "untraced": stats,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "latency_summary": runs[0]["summary"][1],
            "host_speed": [r["summary"][2] for r in runs],
            "wall_s": [r["wall_s"] for r in runs],
            "traced": {"seed": seeds[0], "wall_s": traced["wall_s"], "attempted": traced["attempted"],
                       "failed": traced["failed"], "metrics": traced["metrics"]},
        }
    OUT.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

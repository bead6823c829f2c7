"""Layered ecount benchmark.

    python3 perfbench/run.py --workload floor_sweep --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and NOTES.md): floor_sweep and special_fn run
in one workload child process (child.py); cold_cli starts one fresh
`ecount compute` process per operation.  Load is a closed loop with one
client: the next operation starts when the previous one has ended.

With --trace 0 the last stdout line holds the end-to-end metrics, with
every time in reference seconds (hostspeed.py); with --trace 1 it holds
the per-layer metrics of a traced run (half as many cycles, each
operation run once untraced and once traced, in alternating order, to
give the tracing overhead).  Either way the line is one JSON object with
the keys correct, attempted, failed and metrics.  Lines before it are a
readable summary, with the measured times.  Exit code 0 means the run
completed; `correct` says whether every output the program produced was
right.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import cold_cli
import hostspeed
import reference
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
FAIL_CLASSES = ("wrong", "typed_error", "traceback", "deadline")


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


# --- statistics ------------------------------------------------------------


def _rank(sorted_vals: list[float], pct: float) -> int:
    """Nearest-rank index of the pct-th percentile."""
    k = math.ceil(round(pct * len(sorted_vals) / 100, 9)) - 1
    return min(max(k, 0), len(sorted_vals) - 1)


def _band(sorted_vals: list[float], pct: float) -> list[float]:
    """Samples ranked within h percentile points of pct, h = min(5, (100-pct)/2)."""
    h = min(5.0, (100.0 - pct) / 2)
    return sorted_vals[_rank(sorted_vals, pct - h) : _rank(sorted_vals, pct + h) + 1]


def latency_stats(lat: list[float | None], fail_s: float) -> dict[str, float]:
    """Median and tail of per-operation latency over attempted operations.

    A failed operation (None) counts as missing any latency limit: it is
    ranked at fail_s, the workload's per-operation deadline, which no
    completed operation exceeds.  More failures can therefore only raise
    both figures.  Each percentile is read as the mean of the samples
    ranked in a narrow band around it (see _band).  Operation costs in a
    workload span several decades, so neighbouring ranks can differ by a
    quarter, and a single order statistic jumps when two operations swap
    places; the band mean does not.

    The tail is the highest percentile of TAIL_LADDER that has at least
    ten samples beyond it.  It depends on the number of attempted
    operations only, so it is fixed per workload and run length.
    """
    vals = sorted(fail_s if x is None else x for x in lat)
    tail_pct = next((p for p in TAIL_LADDER if len(vals) - 1 - _rank(vals, p) >= 10), 50.0)
    return {
        "p50_ms": statistics.fmean(_band(vals, 50.0)) * 1000,
        "tail_ms": statistics.fmean(_band(vals, tail_pct)) * 1000,
        "tail_pct": tail_pct,
        "samples": len(vals),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# --- in-process workloads ----------------------------------------------------


def _run_child(cmd: list[str]) -> dict:
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, env=cold_cli.child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(f"workload child exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode("utf-8").splitlines()[-1])


def _child_setup(cmd: list[str], sampler: hostspeed.Sampler) -> list[float]:
    """[time.monotonic() at its end, seconds] of one set-up."""
    sampler.sample()
    t0 = time.monotonic()
    ready = _run_child(cmd)["ready"]
    return [ready, ready - t0]


def run_inprocess(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    setup_cmd = cmd + ["--setup-only"]
    if trace:
        cmd += ["--spans-out", str(OUT_DIR / f"spans-{workload}-{seed}.json")]
    # set-up is timed before and after the timed run, so that its median
    # spans the same stretch of time as the run
    repeats = 0 if trace else SETUP_REPEATS // 2
    sampler = hostspeed.Sampler(hostspeed.ARITHMETIC)
    setups = [_child_setup(setup_cmd, sampler) for _ in range(repeats)]
    sampler.sample()
    t0 = time.monotonic()
    res = _run_child(cmd)
    setups.append([res["ready"], res["ready"] - t0])
    setups += [_child_setup(setup_cmd, sampler) for _ in range(repeats)]
    res["setups"] = setups
    res["kernel"] = sorted(res["kernel"] + sampler.samples)
    if trace:
        res["harness_s"] = res["harness_per_op_s"] * len(res["traced"]["lat"])
    return res


# --- cold_cli ----------------------------------------------------------------


def _cli_phase() -> dict:
    return {
        "lat": [], "dt": [], "at": [], "rss_kb": [], "fails": dict.fromkeys(FAIL_CLASSES, 0), "ok": 0,
        "op_time": 0.0, "summary": {}, "startup": [], "harness_s": 0.0, "unaccounted_s": 0.0,
        "spans": [],
    }


def _run_cli_op(op, ph: dict, traced: bool, scratch: Path, pins, ref) -> None:
    """Run one cold_cli call, plain or through the tracing shim, into ph."""
    argv = workloads.cli_argv(op)
    times_file = scratch / "times.json"
    if traced:
        times_file.unlink(missing_ok=True)
        call = cold_cli.spawn(cold_cli.traced_cmd(argv, times_file), scratch)
    else:
        call = cold_cli.spawn(cold_cli.plain_cmd(argv), scratch)
    status = cold_cli.classify(op, call, pins, ref)
    ph["op_time"] += call.wall_s
    ph["dt"].append(call.wall_s)
    ph["at"].append(time.monotonic())
    ph["rss_kb"].append(call.rss_kb)
    if status == "ok":
        ph["ok"] += 1
        ph["lat"].append(call.wall_s)
    else:
        ph["fails"][status] += 1
        ph["lat"].append(None)
    if traced and times_file.exists():
        rec = json.loads(times_file.read_text(encoding="utf-8"))
        ph["spans"].append(rec["spans"])
        tracing.merge(ph["summary"], tracing.summarize(rec["spans"]))
        main_s = rec["main"][1] - rec["main"][0]
        ph["startup"].append(call.wall_s - main_s)
        shim_own = (rec["installed"] - rec["imported"]) + (rec["done"] - rec["main"][1])
        ph["harness_s"] += shim_own
        ph["unaccounted_s"] += call.wall_s - main_s - (rec["imported"] - rec["entry"]) - shim_own


def _cli_setups(count: int, scratch: Path, sampler: hostspeed.Sampler) -> list[list[float]]:
    setups = []
    for _ in range(count):
        sampler.sample()
        call = cold_cli.spawn(cold_cli.plain_cmd(cold_cli.WARMUP_ARGV), scratch)
        if call.code != 0:
            raise BenchError("cold_cli warm-up call failed")
        setups.append([time.monotonic(), call.wall_s])
    return setups


def run_cold_cli(seed: int, seconds: float, trace: int, scratch: Path) -> dict:
    pins = cold_cli.load_pins()
    ref = reference.Recurrences()
    sampler = hostspeed.Sampler(hostspeed.SPAWN)
    res: dict = {"untraced": _cli_phase(), "kernel": sampler.samples}
    if not trace:
        setups = _cli_setups(SETUP_REPEATS - SETUP_REPEATS // 2, scratch, sampler)

        def run_one(op) -> None:
            _run_cli_op(op, res["untraced"], False, scratch, pins, ref)
            sampler.maybe_sample()

        workloads.run_cycles("cold_cli", seed, seconds, run_one)
        setups += _cli_setups(SETUP_REPEATS // 2, scratch, sampler)
        res["setups"] = setups
    else:
        # every operation runs once plain and once traced, in alternating
        # order, so both rates are taken across the same stretches of time
        res["traced"] = _cli_phase()

        def run_pair(op) -> None:
            traced_first = len(res["traced"]["lat"]) % 2 == 1
            for traced in (traced_first, not traced_first):
                phase = res["traced"] if traced else res["untraced"]
                _run_cli_op(op, phase, traced, scratch, pins, ref)
            sampler.maybe_sample()

        workloads.run_cycles("cold_cli", seed, seconds / 2, run_pair)
        spans_file = OUT_DIR / f"spans-cold_cli-{seed}.json"
        spans_file.write_text(json.dumps(res["traced"].pop("spans")), encoding="utf-8")
    return res


# --- reporting ---------------------------------------------------------------


def _ops_per_s(phase: dict) -> float:
    return phase["ok"] / phase["op_time"] if phase["op_time"] > 0 else 0.0


def end_to_end(workload: str, res: dict) -> dict:
    """End-to-end metrics, every time in reference seconds: multiplied by
    the host-speed factor of its moment (see hostspeed.py)."""
    phase = res["untraced"]
    speed = hostspeed.factors(res["kernel"], phase["at"])
    lat = latency_stats(
        [None if x is None else x * f for x, f in zip(phase["lat"], speed)],
        workloads.DEADLINE_S[workload],
    )
    scaled_time = sum(dt * f for dt, f in zip(phase["dt"], speed))
    setup_speed = hostspeed.factors(res["kernel"], [t for t, _ in res["setups"]])
    setup_s = statistics.median(s * f for (_, s), f in zip(res["setups"], setup_speed))
    if workload == "cold_cli":
        rss_mb = max(phase["rss_kb"]) / 1024
    else:
        rss_mb = res["rss_kb"] / 1024
    return {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric(phase["ok"] / scaled_time, "1/s"),
        "latency_p50_ms": _metric(lat["p50_ms"], "ms"),
        "latency_tail_ms": _metric(lat["tail_ms"], "ms"),
        "ok_ratio": _metric(phase["ok"] / len(phase["lat"]), "ratio"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }


PER_LAYER_UNITS = {
    "certified.eval_s": "s",
    "certified.enclose_s": "s",
    "certified.self_s": "s",
    "certified.calls": "count",
    "certified.evals_per_decision": "ratio",
    "certified.decisions": "count",
    "certified.decide_bits_max": "bits",
    "certified.endpoint_bits_max": "bits",
    "certified.raised": "count",
    "exact.self_s": "s",
    "exact.calls": "count",
    "exact.raised": "count",
    "counts.self_s": "s",
    "counts.calls": "count",
    "counts.raised": "count",
    "oracles.self_s": "s",
    "oracles.calls": "count",
    "oracles.quad_panels": "count",
    "oracles.endpoint_bits_max": "bits",
    "oracles.raised": "count",
    "specials.self_s": "s",
    "specials.calls": "count",
    "specials.exp_enclosure_s": "s",
    "specials.raised": "count",
    "cli.startup_ms_p50": "ms",
    "cli.self_s": "s",
    "cli.calls": "count",
    "cli.raised": "count",
    "host.slowdown": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.ops_per_s_traced": "1/s",
    "trace.ops_per_s_untraced": "1/s",
    "trace.op_s": "s",
    "trace.harness_s": "s",
    "trace.unaccounted_share": "ratio",
    "fail.wrong": "count",
    "fail.typed_error": "count",
    "fail.traceback": "count",
    "fail.deadline": "count",
}


def per_layer(workload: str, res: dict) -> dict:
    traced, untraced = res["traced"], res["untraced"]
    if workload == "cold_cli":
        summary = traced["summary"] or tracing.summarize([])
        startup = traced["startup"]
        harness_s = traced["harness_s"]
        unaccounted_s = traced["unaccounted_s"]
        summary["cli.startup_ms_p50"] = statistics.median(startup) * 1000 if startup else 0.0
    else:
        summary = res["summary"]
        harness_s = res["harness_s"]
        summary["cli.startup_ms_p50"] = 0.0
        unaccounted_s = traced["op_time"] - summary["trace.root_span_s"] - harness_s
    summary["certified.evals_per_decision"] = tracing.evals_per_decision(summary)
    summary["host.slowdown"] = statistics.fmean(s for _, s in res["kernel"])
    traced_rate, untraced_rate = _ops_per_s(traced), _ops_per_s(untraced)
    summary["trace.ops_per_s_traced"] = traced_rate
    summary["trace.ops_per_s_untraced"] = untraced_rate
    summary["trace.overhead_ratio"] = traced_rate / untraced_rate if untraced_rate else 0.0
    summary["trace.op_s"] = traced["op_time"]
    summary["trace.harness_s"] = harness_s
    summary["trace.unaccounted_share"] = (
        unaccounted_s / traced["op_time"] if traced["op_time"] else 0.0
    )
    for cls in FAIL_CLASSES:
        summary[f"fail.{cls}"] = untraced["fails"][cls] + traced["fails"][cls]
    return {name: _metric(summary[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args()
    # cold_cli outputs are compared as decimal text, some above 4300 digits;
    # this sets the limit of this process only, never of the ecount children
    sys.set_int_max_str_digits(0)
    if not (ROOT / "src" / "ecount" / "__init__.py").is_file():
        print(f"perfbench: no ecount source tree under {ROOT}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            if args.workload == "cold_cli":
                res = run_cold_cli(args.seed, args.seconds, args.trace, Path(tmp))
            else:
                res = run_inprocess(args.workload, args.seed, args.seconds, args.trace)
        lat = latency_stats(res["untraced"]["lat"], workloads.DEADLINE_S[args.workload])
        if args.trace:
            metrics = per_layer(args.workload, res)
        else:
            metrics = end_to_end(args.workload, res)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    phases = [res["untraced"]] + ([res["traced"]] if args.trace else [])
    attempted = sum(len(ph["lat"]) for ph in phases)
    fails = {cls: sum(ph["fails"][cls] for ph in phases) for cls in FAIL_CLASSES}
    failed = sum(fails.values())
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"attempted={attempted} failed={failed} "
        + " ".join(f"{cls}={count}" for cls, count in fails.items())
    )
    print(
        f"untraced latency: p50 and tail p{lat['tail_pct']:g} over {lat['samples']} "
        f"attempted operations (failed operations rank at the {workloads.DEADLINE_S[args.workload]:g} s deadline)"
    )
    slowdown = [s for _, s in res["kernel"]]
    print(
        f"host slowdown: mean {statistics.fmean(slowdown):.4g}, from {min(slowdown):.4g} "
        f"to {max(slowdown):.4g} over {len(slowdown)} samples; "
        f"measured p50 {lat['p50_ms']:.6g} ms, tail {lat['tail_ms']:.6g} ms, "
        f"ops_per_s {_ops_per_s(res['untraced']):.6g} 1/s"
        + (f", setup_s {statistics.median(s for _, s in res['setups']):.6g} s" if "setups" in res else "")
    )
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": fails["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

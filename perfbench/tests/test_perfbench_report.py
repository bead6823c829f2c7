"""The printed metrics match BENCHMARK.json, and latency ranks failures last."""

import json
import random
from pathlib import Path

import pytest

import hostspeed
import run
import workloads


def _fake_run(lat: list, slowdown: float) -> dict:
    """A run whose operations and single set-up all took place at t = 0."""
    return {
        "setups": [[0.0, 1.0]],
        "kernel": [[0.0, slowdown]],
        "rss_kb": 1024,
        "untraced": {
            "ok": sum(x is not None for x in lat),
            "lat": lat,
            "dt": [0.1] * len(lat),
            "at": [0.0] * len(lat),
        },
    }

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_benchmark_json_matches_printed_metrics():
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    e2e = run.end_to_end("floor_sweep", _fake_run([0.1] * 20, slowdown=1.0))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {k: v["unit"] for k, v in e2e.items()}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_tail_is_highest_percentile_with_ten_beyond():
    lat = [i / 1000 for i in range(1, 201)]  # 200 samples
    stats = run.latency_stats(lat, 5.0)
    assert stats["tail_pct"] == 95.0  # p99 would leave only 2 beyond
    assert stats["tail_ms"] == pytest.approx(190.0)
    assert stats["p50_ms"] == pytest.approx(100.0)


def test_failures_rank_at_the_deadline():
    lat = [0.001] * 80 + [None] * 20
    stats = run.latency_stats(lat, 5.0)
    assert stats["tail_pct"] == 90.0  # fixed by the 100 attempts, not by the failures
    # the p85..p95 band holds ranks 85..95, all failed operations
    assert stats["tail_ms"] == pytest.approx(5000.0)
    assert stats["p50_ms"] == pytest.approx(1.0)


def test_more_failures_only_raise_the_latency_figures():
    rng = random.Random(3)
    base = [rng.uniform(0.001, 2.0) for _ in range(120)]
    order = list(range(120))
    rng.shuffle(order)
    previous = None
    for failed in range(0, 121, 3):
        lat = list(base)
        for i in order[:failed]:
            lat[i] = None
        stats = run.latency_stats(lat, 5.0)
        assert stats["tail_pct"] == 90.0
        if previous is not None:
            assert stats["tail_ms"] >= previous["tail_ms"]
            assert stats["p50_ms"] >= previous["p50_ms"]
        previous = stats


def test_end_to_end_times_are_scaled_to_reference_seconds():
    lat = [0.1] * 80 + [None] * 20
    plain = run.end_to_end("floor_sweep", _fake_run(lat, slowdown=1.0))
    slow_host = run.end_to_end("floor_sweep", _fake_run(lat, slowdown=2.0))
    assert plain["setup_s"]["value"] == pytest.approx(1.0)
    assert slow_host["setup_s"]["value"] == pytest.approx(0.5)
    assert slow_host["ops_per_s"]["value"] == pytest.approx(2 * plain["ops_per_s"]["value"])
    assert slow_host["latency_p50_ms"]["value"] == pytest.approx(50.0)
    # failed operations stay at the deadline, which is not a measured time
    assert slow_host["latency_tail_ms"]["value"] == pytest.approx(5000.0)


def test_each_time_is_scaled_by_the_samples_nearest_to_it():
    # the host runs at half speed from t = 100 on
    samples = [[t / 5, 1.0] for t in range(500)] + [[100 + t / 5, 2.0] for t in range(500)]
    assert hostspeed.factors(samples, [10.0, 50.0, 150.0, 199.9]) == pytest.approx([1, 1, 0.5, 0.5])
    assert hostspeed.factors(samples, [100.0])[0] == pytest.approx(1 / 1.5, rel=0.2)

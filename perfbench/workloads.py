"""Seeded operation generators for the three workloads.

An operation is a tuple of JSON-friendly values: its kind, then its
inputs (rationals as "p/q" strings).  `cycles(workload, seed)` yields an
endless sequence of cycles.  In every cycle each kind of the workload
runs LADDER[workload] times, and its sizes take each rung of a fixed
ladder once: the midpoints of LADDER equal-probability strata of each
size distribution (log-uniform n, uniform n, log-uniform |x|, ...).
The seed decides the order of the operations and every input that is
not a size: lambda, the p/q value of z, the x of hyp2f0 and dpoly-eval,
and the random EForms of criterion 12.

A run executes whole cycles, so every run meets the same sizes.  The few
largest operations take most of the time; drawing sizes afresh in every
run made a run's throughput depend on how many of them it happened to
meet.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import islice

WORKLOADS = ("floor_sweep", "special_fn", "cold_cli")

FLOOR_KINDS = (
    "eq1", "eq2", "eq3", "eq4", "eq5", "eq6", "lambda", "thm7",
    "chain", "frac_bracket", "eform_floor", "eform_sign",
)
SPECIAL_KINDS = (
    "quad_gamma", "integrals", "hyp1f1", "inc_gamma", "hyp2f0_identity", "hyp2f0_special",
)
CLI_KINDS = (
    "derangements", "floor-e-nfact", "paths", "cycles", "path-length-sum",
    "cycle-length-sum", "eq2", "eq3", "eq4", "eq5", "eq6", "thm7",
    "frac-e-nfact", "bounds", "dpoly-eval",
)

FLOOR_N_MAX = 4000
CLI_N_MIN, CLI_N_MAX = 3, 4000
# operations of each kind per cycle; special_fn has twice as many rungs so
# that its one cycle per run gives the median band a dozen operations
LADDER = {"floor_sweep": 64, "special_fn": 16, "cold_cli": 8}
# typical seconds per cycle on a 2-vCPU x86-64 machine with CPython 3.11;
# a run makes round(seconds / CYCLE_S) cycles, at least one
CYCLE_S = {"floor_sweep": 2.5, "special_fn": 25.0, "cold_cli": 25.0}
DPOLY_X = ("-1", "1", "1/2", "-3/2", "2/3")
HYP2F0_X = ("1", "-1", "1/2", "-1/2", "2", "-2", "3/7")
# per-operation deadline: a slower operation counts as failed
DEADLINE_S = {"floor_sweep": 5.0, "special_fn": 60.0, "cold_cli": 60.0}


def _rungs(rungs: int) -> list[tuple[float, ...]]:
    """Ladder points (u, v, w): stratum midpoints, one per rung of u.

    v and w run through their rungs in fixed, differently strided orders,
    so that every size dimension meets all its strata once per cycle.
    """
    mid = [(i + 0.5) / rungs for i in range(rungs)]
    return [(mid[i], mid[(3 * i + 1) % rungs], mid[(5 * i + 2) % rungs]) for i in range(rungs)]


def _log_uniform(u: float, lo: int, hi: int) -> int:
    """Integer in [lo, hi] with log(n) uniform, from u in [0, 1)."""
    n = math.floor(lo * ((hi + 1) / lo) ** u)
    return min(max(n, lo), hi)


def _uniform(u: float, lo: int, hi: int) -> int:
    return min(lo + math.floor(u * (hi - lo + 1)), hi)


def _rat(q) -> str:
    return str(Fraction(q))


def _random_eform_shape(rng: random.Random) -> tuple:
    """One of the six EForm shapes of acceptance criterion 12."""
    shape = rng.randrange(6)
    if shape == 0:
        return (0, rng.randint(1, 60))
    if shape == 1:
        return (1, rng.randint(1, 60), rng.randint(-5, 5), rng.choice((-1, 1)))
    if shape == 2:
        return (2, rng.randint(1, 100))
    if shape == 3:
        return (3, rng.randint(2, 40), rng.randint(1, 6))
    if shape == 4:
        return (4, rng.randint(2, 30), rng.randint(1, 3))
    return (
        5,
        _rat(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))),
        rng.randint(-10**4, 10**4),
        rng.randint(-10**4, 10**4),
    )


def _floor_op(kind: str, uvw: tuple[float, ...], rng: random.Random) -> tuple:
    if kind == "eform_floor":
        return (kind, _random_eform_shape(rng))
    if kind == "eform_sign":
        return (kind, _random_eform_shape(rng), rng.choice((-1, 1)))
    lo = 1 if kind in ("eq1", "eq2", "lambda", "frac_bracket") else 2
    n = _log_uniform(uvw[0], lo, FLOOR_N_MAX)
    if kind == "eq5":
        return (kind, n, _uniform(uvw[1], 3, 6))
    if kind == "thm7":
        return (kind, n, _uniform(uvw[1], 1, 3))
    if kind == "chain":
        return (kind, n, _uniform(uvw[1], 1, 4))
    if kind == "lambda":
        q = rng.randint(2, 12)
        p = rng.randint(math.ceil(q / 3), q // 2)  # lam = p/q in [1/3, 1/2]
        return (kind, n, _rat(Fraction(p, q)))
    return (kind, n)


def _special_op(kind: str, uvw: tuple[float, ...], rng: random.Random) -> tuple:
    u, v, w = uvw
    if kind == "quad_gamma":
        z = ("-1", "0", "1", "pq")[_uniform(w, 0, 3)]
        if z == "pq":
            q = rng.randint(2, 7)
            z = _rat(Fraction(rng.randint(-q + 1, 2 * q - 1), q))
        return (kind, _uniform(u, 0, 25), z)
    if kind == "integrals":
        return (kind, _uniform(u, 1, 20))
    if kind in ("hyp1f1", "inc_gamma"):
        mag = Fraction(_log_uniform(u, 4, 3200), 8)  # |x| in [1/2, 400]
        return (kind, _uniform(v, 0, 20), _rat(mag if w < 0.5 else -mag))
    if kind == "hyp2f0_identity":
        return (kind, _uniform(u, 0, 30), rng.choice(HYP2F0_X))
    return (kind, _uniform(u, 1, 100), 1 if w < 0.5 else -1)  # hyp2f0_special


def _cli_op(kind: str, uvw: tuple[float, ...], rng: random.Random) -> tuple:
    n = _log_uniform(uvw[0], CLI_N_MIN, CLI_N_MAX)
    if kind == "dpoly-eval":
        return (kind, n, rng.choice(DPOLY_X))
    return (kind, n)


_SPEC = {
    "floor_sweep": (FLOOR_KINDS, _floor_op),
    "special_fn": (SPECIAL_KINDS, _special_op),
    "cold_cli": (CLI_KINDS, _cli_op),
}


def cycles(workload: str, seed: int):
    """Endless seeded sequence of cycles (lists of operations)."""
    kinds, make = _SPEC[workload]
    ladder = _rungs(LADDER[workload])
    rng = random.Random(f"{workload}:{seed}")
    while True:
        ops = [make(kind, uvw, rng) for kind in kinds for uvw in ladder]
        rng.shuffle(ops)
        yield ops


def op_list(workload: str, seed: int, n_cycles: int) -> list[tuple]:
    """The first n_cycles cycles, flattened."""
    return [op for cycle in islice(cycles(workload, seed), n_cycles) for op in cycle]


def run_cycles(workload: str, seed: int, seconds: float, run_op) -> None:
    """Call run_op on every operation of round(seconds / CYCLE_S) cycles.

    The number of cycles depends on the requested time only, not on how
    fast the machine happens to be, so every run of the same length does
    the same work.
    """
    n_cycles = max(1, round(seconds / CYCLE_S[workload]))
    for cycle in islice(cycles(workload, seed), n_cycles):
        for op in cycle:
            run_op(op)


def cli_argv(op: tuple) -> list[str]:
    """`ecount compute` arguments for a cold_cli operation."""
    kind, n = op[0], op[1]
    argv = ["compute", kind, "--n", str(n)]
    if kind == "dpoly-eval":
        argv += ["--x", op[2]]
    return argv


def all_cli_ops() -> list[tuple]:
    """Every operation cold_cli can generate."""
    ns = [_log_uniform(uvw[0], CLI_N_MIN, CLI_N_MAX) for uvw in _rungs(LADDER["cold_cli"])]
    ops = []
    for kind in CLI_KINDS:
        if kind == "dpoly-eval":
            ops.extend((kind, n, x) for n in ns for x in DPOLY_X)
        else:
            ops.extend((kind, n) for n in ns)
    return ops

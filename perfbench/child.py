"""Workload child for the in-process workloads (floor_sweep, special_fn).

Started by run.py, one at a time.  It imports ecount, runs one untimed
warm-up pass, then executes whole cycles of seeded operations in a closed
loop (one client, no concurrency) for about the given time.  A traced run
executes half as many cycles, each operation once untraced and once
traced.  Each operation is timed alone; its output is checked against
reference.py after the timer stops, and the host-speed kernel
(hostspeed.py) is sampled between operations.  The child prints one JSON
object on stdout.

    python3 perfbench/child.py --workload floor_sweep --seed 1 --seconds 10 \
        [--trace 0|1] [--setup-only] [--spans-out FILE]
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from fractions import Fraction

from ecount import certified, counts, oracles, specials
from ecount.errors import DomainError, InvariantViolation, PrecisionCapError

import hostspeed
import reference
import tracer as tracing
import workloads

Q = Fraction
TYPED_ERRORS = (DomainError, InvariantViolation, PrecisionCapError)
QUAD_TOL = Q(1, 10**9)
SPECIAL_BITS = 96


class Harness:
    """Builds each operation's inputs and checks its output."""

    def __init__(self) -> None:
        self.ref = reference.Recurrences()

    # --- inputs ---------------------------------------------------------

    def shape_triple(self, shape: list) -> tuple:
        """(a, b, c) of a criterion-12 EForm shape."""
        kind, *p = shape
        if kind == 0:
            return 0, math.factorial(p[0]), 0
        if kind == 1:
            return p[1], 0, p[2] * math.factorial(p[0])
        if kind == 2:
            return -self.ref.s(p[0]), math.factorial(p[0]), 0
        if kind == 3:
            return self.ref.bound_n_head(p[0], p[1]), math.factorial(p[0]), 0
        if kind == 4:
            nf = math.factorial(p[0])
            return self.ref.bound_n_head(p[0], p[1]), nf, nf
        return Q(p[0]), p[1], p[2]

    def prepare(self, op: list):
        """(call, check) for one operation: call() runs the library,
        check(result) says whether the output is right."""
        kind = op[0]
        ref = self.ref
        EForm = certified.EForm
        if kind == "eq1":
            f = EForm(0, math.factorial(op[1]), 0)
            return (lambda: certified.certified_floor(f)), (lambda r: r == ref.s(op[1]))
        if kind in ("eq2", "eq3", "eq4", "eq6"):
            fn_name, n = f"derangement_{kind}", op[1]
            return (lambda: getattr(counts, fn_name)(n)), (lambda r: r == ref.d(n))
        if kind in ("eq5", "thm7"):
            fn_name, n, m = f"derangement_{kind}", op[1], op[2]
            return (lambda: getattr(counts, fn_name)(n, m)), (lambda r: r == ref.d(n))
        if kind == "lambda":
            n, lam = op[1], Q(op[2])
            return (lambda: counts.derangement_lambda(n, lam)), (lambda r: r == ref.d(n))
        if kind == "chain":
            n, m = op[1], op[2]

            def check_chain(r):
                return (
                    r.n == n
                    and len(r.m_list) == m
                    and (r.frac.a, r.frac.b, r.frac.c) == (-ref.s(n), math.factorial(n), 0)
                )

            return (lambda: counts.chain_check(n, m)), check_chain
        if kind == "frac_bracket":
            n = op[1]
            lo, hi = EForm.from_rational(Q(1, n + 1)), EForm.from_rational(Q(1, n))

            def bracket():
                f = certified.frac_e_nfact(n)
                return f, certified.eform_lt(lo, f), certified.eform_lt(f, hi)

            def check_bracket(r):
                f, lo_ok, hi_ok = r
                return lo_ok and hi_ok and (f.a, f.b, f.c) == (-ref.s(n), math.factorial(n), 0)

            return bracket, check_bracket
        if kind == "eform_floor":
            a, b, c = self.shape_triple(op[1])
            f = EForm(a, b, c)
            return (
                lambda: certified.certified_floor_info(f),
                lambda r: r.value == reference.eform_floor_sign(Q(a), Q(b), Q(c))[0],
            )
        if kind == "eform_sign":
            s = op[2]
            a, b, c = (s * Q(v) for v in self.shape_triple(op[1]))
            f = EForm(a, b, c)
            return (
                lambda: certified.eform_sign(f),
                lambda r: r == reference.eform_floor_sign(a, b, c)[1],
            )
        return self._prepare_special(op)

    def _prepare_special(self, op: list):
        kind = op[0]
        ref = self.ref
        if kind == "quad_gamma":
            n, z = op[1], Q(op[2])

            def check_quad(r):
                v, err = reference.gamma_upper(n, z)
                return r.value.width <= QUAD_TOL and reference.contains(r.value.lo, r.value.hi, v, err)

            return (lambda: oracles.quad_gamma(n, z, QUAD_TOL)), check_quad
        if kind == "integrals":
            n = op[1]

            def check_integrals(records):
                nf, dn, sn = math.factorial(n), ref.d(n), ref.s(n)
                expected = {
                    "-1..inf": (0, dn, 0),
                    "0..inf": (nf, 0, 0),
                    "1..inf": (0, 0, sn),
                    "0..1": (nf, 0, -sn),
                    "-1..0": (-nf, dn, 0),
                    "-1..1": (0, dn, -sn),
                }
                if [r.label for r in records] != list(expected):
                    return False
                for r in records:
                    triple = expected[r.label]
                    f = r.closed_form
                    if (f.a, f.b, f.c) != triple:
                        return False
                    iv = r.enclosure
                    if not reference.eform_interval_check(iv.lo, iv.hi, *triple):
                        return False
                return True

            return (lambda: specials.integral_identities(n)), check_integrals
        if kind == "hyp1f1":
            n, x = op[1], Q(op[2])

            def check_hyp1f1(r):
                v, err = reference.hyp1f1_closed(n, x, SPECIAL_BITS)
                return reference.contains(r.lo, r.hi, v, err)

            return (lambda: specials.hyp1f1(n, x, SPECIAL_BITS)), check_hyp1f1
        if kind == "inc_gamma":
            n, z = op[1], Q(op[2])
            query = specials.GammaQuery(n, z, SPECIAL_BITS)

            def check_inc(r):
                v, err = reference.gamma_upper(n, z)
                return reference.contains(r.lo, r.hi, v, err)

            return (lambda: specials.inc_gamma_int(query)), check_inc
        if kind == "hyp2f0_identity":
            n, x = op[1], Q(op[2])
            return (
                lambda: specials.hyp2f0_identity_check(n, x),
                lambda r: r == reference.dpoly(n, x),
            )
        if kind == "hyp2f0_special":
            n, sign = op[1], op[2]
            want = ref.s(n) if sign == -1 else (-1) ** n * ref.d(n)
            return (lambda: specials.hyp2f0_special(n, sign)), (lambda r: r == want)
        raise ValueError(f"unknown operation kind {kind!r}")


# --- warm-up ---------------------------------------------------------------

# One operation of each kind.  floor_sweep uses the largest n and m it can
# draw, so the memo tables in exact and certified reach their full size
# before timing starts; special_fn uses mid-sized inputs.
_WARMUP = {
    "floor_sweep": [
        ["eq1", 4000], ["eq2", 4000], ["eq3", 4000], ["eq4", 4000], ["eq5", 4000, 6],
        ["eq6", 4000], ["lambda", 4000, "5/12"], ["thm7", 4000, 3], ["chain", 4000, 4],
        ["frac_bracket", 4000], ["eform_floor", [3, 40, 6]], ["eform_sign", [4, 30, 3], 1],
        ["eq1", 10], ["chain", 10, 4],
    ],
    "special_fn": [
        ["quad_gamma", 8, "1/2"], ["integrals", 4], ["hyp1f1", 6, "50"],
        ["inc_gamma", 6, "-50"], ["hyp2f0_identity", 10, "1/2"],
        ["hyp2f0_special", 10, -1], ["hyp2f0_special", 10, 1],
    ],
}


def _harness_overhead_s(samples: int = 2000) -> float:
    """Median time of the timed-call path around an empty operation."""
    clock = time.perf_counter
    noop = lambda: None  # noqa: E731
    times = []
    for _ in range(samples):
        t0 = clock()
        noop()
        times.append(clock() - t0)
    times.sort()
    return times[len(times) // 2]


class Phase:
    """Latencies, failures and operation time of the operations of one phase."""

    def __init__(self, harness: Harness, workload: str, sampler: hostspeed.Sampler) -> None:
        self.harness = harness
        self.sampler = sampler
        self.deadline = workloads.DEADLINE_S[workload]
        self.lat: list[float | None] = []  # seconds per attempted operation, None if failed
        self.dt: list[float] = []  # seconds per attempted operation
        self.at: list[float] = []  # time.monotonic() at its end
        self.fails = {"wrong": 0, "typed_error": 0, "traceback": 0, "deadline": 0}
        self.ok = 0
        self.op_time = 0.0

    def run(self, op) -> None:
        call, check = self.harness.prepare(op)
        clock = time.perf_counter
        t0 = clock()
        try:
            result = call()
        except TYPED_ERRORS:
            dt = clock() - t0
            status = "typed_error"
        except Exception:
            dt = clock() - t0
            status = "traceback"
        else:
            dt = clock() - t0
            if not check(result):
                status = "wrong"
            elif dt > self.deadline:
                status = "deadline"
            else:
                status = "ok"
        self.op_time += dt
        self.dt.append(dt)
        self.at.append(time.monotonic())
        if status == "ok":
            self.ok += 1
            self.lat.append(dt)
        else:
            self.fails[status] += 1
            self.lat.append(None)
        self.sampler.maybe_sample()

    def record(self) -> dict:
        return {
            "lat": self.lat, "dt": self.dt, "at": self.at, "fails": self.fails, "ok": self.ok,
            "op_time": self.op_time,
        }


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=tuple(_WARMUP))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out", default=None)
    args = p.parse_args()

    harness = Harness()
    for op in _WARMUP[args.workload]:
        call, _check = harness.prepare(op)
        call()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return

    out: dict = {"ready": ready}
    sampler = hostspeed.Sampler(hostspeed.ARITHMETIC)
    untraced = Phase(harness, args.workload, sampler)
    if not args.trace:
        workloads.run_cycles(args.workload, args.seed, args.seconds, untraced.run)
        out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        # every operation runs once untraced and once traced, in alternating
        # order, so both rates are taken across the same stretches of time
        traced = Phase(harness, args.workload, sampler)
        tr = tracing.Tracer()

        def run_pair(op) -> None:
            traced_first = len(traced.lat) % 2 == 1
            for tracing_on in (traced_first, not traced_first):
                if tracing_on:
                    tr.install()
                    traced.run(op)
                    tr.uninstall()
                else:
                    untraced.run(op)

        workloads.run_cycles(args.workload, args.seed, args.seconds / 2, run_pair)
        out["traced"] = traced.record()
        out["summary"] = tracing.summarize(tr.spans)
        out["harness_per_op_s"] = _harness_overhead_s()
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump(tr.spans, fh, separators=(",", ":"))
    out["untraced"] = untraced.record()
    out["kernel"] = sampler.samples
    json.dump(out, sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()

"""Command-line front end.

Four subcommands: `compute` evaluates a single quantity, `verify` runs
identity suites over ranges, `table` emits rows in csv/json/md, and
`bench` times the exact-sum route against the certified-floor route.

Exit codes: 0 success, 1 identity violation (or a certification that
could not complete), 2 usage error, 3 domain error.  All data output is
byte-deterministic for fixed inputs; elapsed time goes to a summary
line on stderr.  Big integers are printed as decimal strings, rationals
as "p/q", intervals as outward-rounded decimal endpoint pairs with an
explicit precision_bits field.  The precision cap of the certified
engine can be overridden with the ECOUNT_PRECISION_CAP env var.
"""

from __future__ import annotations

import json
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, NoReturn

import click

from . import certified, counts, exact, oracles, specials
from .certified import EForm, IntervalReal
from .errors import DomainError, InvariantViolation, PrecisionCapError

_Q = Fraction
_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class RationalParam(click.ParamType):
    """Accepts integers or p/q strings; decimal floats are rejected."""

    name = "rational"

    def convert(self, value, param, ctx):
        if isinstance(value, Fraction):
            return value
        text = str(value).strip()
        if not _RAT_RE.match(text):
            self.fail(
                f"{text!r} is not an integer or p/q rational "
                "(decimal floats are rejected to preserve exactness)",
                param,
                ctx,
            )
        try:
            return Fraction(text)
        except ZeroDivisionError:
            self.fail(f"{text!r} has a zero denominator", param, ctx)


class RangeParam(click.ParamType):
    """Inclusive integer range written as A..B."""

    name = "range"

    def convert(self, value, param, ctx):
        if isinstance(value, tuple):
            return value
        text = str(value).strip()
        m = re.match(r"^(-?\d+)\.\.(-?\d+)$", text)
        if not m:
            self.fail(f"{text!r} is not a range of the form A..B", param, ctx)
        lo, hi = int(m.group(1)), int(m.group(2))
        if lo > hi:
            self.fail(f"range {text!r} is empty (lo > hi)", param, ctx)
        return (lo, hi)


RAT = RationalParam()
RANGE = RangeParam()

_DEFAULT_TOL = _Q(1, 10**9)


def _digits_for_bits(bits: int) -> int:
    # 10^-d <= 2^-bits needs d >= bits * log10(2)
    return bits * 30103 // 100000 + 2


def _interval_json(iv: IntervalReal, bits: int) -> dict[str, Any]:
    digits = _digits_for_bits(bits)
    lo, hi = iv.to_decimal(digits)
    return {"lo": lo, "hi": hi, "precision_bits": bits}


def _eform_json(f: EForm) -> list[str]:
    return list(f.to_triple())


@dataclass
class CountReport:
    """One computed quantity with optional dual-route detail."""

    op: str
    params: dict[str, Any]
    value: Any
    verified: bool | None = None
    route_a: str | None = None
    route_b: str | None = None

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {"op": self.op, "params": self.params, "value": self.value}
        if self.verified is not None:
            out["verified"] = self.verified
        if self.route_a is not None:
            out["route_a"] = self.route_a
        if self.route_b is not None:
            out["route_b"] = self.route_b
        return out


def _value_text(value: Any) -> str:
    if isinstance(value, dict):
        if "lo" in value:
            return f"[{value['lo']}, {value['hi']}] (precision_bits={value['precision_bits']})"
        return json.dumps(value)
    if isinstance(value, list):
        return json.dumps(value)
    return str(value)


def _print_report(report: CountReport, fmt: str) -> None:
    if fmt == "json":
        click.echo(json.dumps(report.to_json(), indent=2))
        return
    click.echo(_value_text(report.value))
    if report.verified is not None:
        click.echo(f"verified={str(report.verified).lower()}")
        if report.route_a is not None and report.route_a == report.route_b:
            click.echo(f"routes agree on {report.route_a}")
        elif report.route_a is not None:
            click.echo(f"route_a={report.route_a} route_b={report.route_b}")


def _need(value, flag: str, op: str):
    if value is None:
        raise click.UsageError(f"{flag} is required for op {op!r}")
    return value


@click.group()
@click.version_option(package_name="ecount", prog_name="ecount")
@click.pass_context
def main(ctx: click.Context) -> None:
    """Exact counts in complete graphs, certified by enclosures of e."""
    # Counts run to tens of thousands of digits, and Python >= 3.11 refuses
    # str(int) past 4300 of them by default.  Lift that limit while the
    # command runs, and put it back when it ends.
    if hasattr(sys, "set_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        ctx.call_on_close(lambda: sys.set_int_max_str_digits(limit))


def _dual(op: str, params: dict, value: int, other: int) -> CountReport:
    return CountReport(
        op=op,
        params=params,
        value=str(value),
        verified=value == other,
        route_a=str(value),
        route_b=str(other),
    )


def _compute_report(
    op: str,
    n: int | None,
    m: int | None,
    x: Fraction | None,
    z: Fraction | None,
    bits: int,
    tol: Fraction,
) -> CountReport:
    p: dict[str, Any] = {}

    if op == "derangements":
        nn = _need(n, "--n", op)
        return CountReport(op, {"n": nn}, str(exact.derangements(nn)))
    if op == "dpoly-eval":
        nn, xx = _need(n, "--n", op), _need(x, "--x", op)
        return CountReport(op, {"n": nn, "x": str(xx)}, str(exact.dpoly_eval(nn, xx)))
    if op == "paths":
        nn = _need(n, "--n", op)
        value = counts.path_count(nn)
        other = certified.certified_floor(EForm(0, exact.factorial(nn - 2), 0))
        return _dual(op, {"n": nn}, value, other)
    if op == "path-length-sum":
        nn = _need(n, "--n", op)
        value = counts.path_length_sum(nn)
        other = 1 + (nn - 2) * counts.path_count(nn)
        return _dual(op, {"n": nn}, value, other)
    if op == "cycles":
        nn = _need(n, "--n", op)
        value = counts.cycle_count(nn)
        other = certified.certified_floor(EForm(0, exact.factorial(nn - 1), 0)) - nn
        return _dual(op, {"n": nn}, value, other)
    if op == "cycle-length-sum":
        nn = _need(n, "--n", op)
        value = counts.cycle_length_sum(nn)
        nf, pf = exact.factorial(nn), exact.factorial(nn - 1)
        other = (
            certified.certified_floor(EForm(0, nf, 0))
            - certified.certified_floor(EForm(0, pf, 0))
            - 2 * nn
            + 1
        )
        return _dual(op, {"n": nn}, value, other)
    if op == "avg-path-length":
        nn = _need(n, "--n", op)
        return CountReport(op, {"n": nn}, str(counts.average_path_length(nn)))
    if op == "floor-e-nfact":
        nn = _need(n, "--n", op)
        value = exact.partial_sum_pos(nn)
        other = certified.certified_floor(EForm(0, exact.factorial(nn), 0))
        return _dual(op, {"n": nn}, value, other)
    if op == "frac-e-nfact":
        nn = _need(n, "--n", op)
        f = certified.frac_e_nfact(nn)
        iv = certified.eform_eval(f, bits)
        return CountReport(
            op,
            {"n": nn, "precision_bits": bits},
            {"eform": _eform_json(f), "interval": _interval_json(iv, bits)},
        )
    if op in ("eq2", "eq3", "eq4", "eq6"):
        nn = _need(n, "--n", op)
        fn = {
            "eq2": counts.derangement_eq2,
            "eq3": counts.derangement_eq3,
            "eq4": counts.derangement_eq4,
            "eq6": counts.derangement_eq6,
        }[op]
        return _dual(op, {"n": nn}, fn(nn), exact.derangements(nn))
    if op == "eq5":
        nn = _need(n, "--n", op)
        mm = 3 if m is None else m
        return _dual(op, {"n": nn, "m": mm}, counts.derangement_eq5(nn, mm), exact.derangements(nn))
    if op == "thm7":
        nn = _need(n, "--n", op)
        mm = 1 if m is None else m
        return _dual(op, {"n": nn, "m": mm}, counts.derangement_thm7(nn, mm), exact.derangements(nn))
    if op == "hyp2f0":
        nn, xx = _need(n, "--n", op), _need(x, "--x", op)
        return CountReport(op, {"n": nn, "x": str(xx)}, str(specials.hyp2f0(nn, xx)))
    if op == "hyp1f1":
        nn, xx = _need(n, "--n", op), _need(x, "--x", op)
        iv = specials.hyp1f1(nn, xx, bits)
        return CountReport(
            op,
            {"n": nn, "x": str(xx), "precision_bits": bits},
            _interval_json(iv, bits),
            verified=True,
        )
    if op == "inc-gamma":
        nn, zz = _need(n, "--n", op), _need(z, "--z", op)
        iv = specials.inc_gamma_int(specials.GammaQuery(nn, zz, bits))
        return CountReport(
            op, {"n": nn, "z": str(zz), "precision_bits": bits}, _interval_json(iv, bits)
        )
    if op == "integrals":
        nn = _need(n, "--n", op)
        records = specials.integral_identities(nn, tol=tol, precision_bits=bits)
        value = [
            {
                "label": r.label,
                "eform": _eform_json(r.closed_form),
                "quadrature": _interval_json(r.enclosure, bits),
            }
            for r in records
        ]
        return CountReport(
            op, {"n": nn, "tol": str(tol), "precision_bits": bits}, value, verified=True
        )
    if op == "bounds":
        nn = _need(n, "--n", op)
        mm = 8 if m is None else m
        chain = counts.chain_check(nn, mm)
        value = {
            "frac": _eform_json(chain.frac),
            "m_list": [
                {"m": mi, "M": str(big_m), "N": _eform_json(big_n)}
                for mi, big_m, big_n in chain.m_list
            ],
        }
        return CountReport(op, {"n": nn, "m_max": mm}, value, verified=True)

    raise click.UsageError(f"unknown op {op!r}")


def _exit_out_of_resources(exc: MemoryError | RecursionError) -> NoReturn:
    """Exit 1 with a typed message for a computation that ran out of memory
    or stack.  The precision cap and the quadrature budget are what bound
    the work; this only keeps an input they miss from ending in a
    traceback."""
    detail = f": {exc}" if str(exc) else ""
    click.echo(f"violation: out of resources ({type(exc).__name__}{detail})", err=True)
    sys.exit(1)


@main.command("compute")
@click.argument("op")
@click.option("--n", type=int, default=None, help="Primary size parameter.")
@click.option("--m", type=int, default=None, help="Secondary index where the op takes one.")
@click.option("--x", type=RAT, default=None, help="Rational evaluation point (p/q or integer).")
@click.option("--z", type=RAT, default=None, help="Rational lower integration limit.")
@click.option("--precision-bits", "bits", type=int, default=96, show_default=True)
@click.option("--tol", type=RAT, default=_DEFAULT_TOL, help="Quadrature tolerance (rational).")
@click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True
)
def cmd_compute(op, n, m, x, z, bits, tol, fmt) -> None:
    """Compute one quantity; see README for the op list."""
    t0 = time.monotonic()
    try:
        report = _compute_report(op, n, m, x, z, bits, tol)
    except DomainError as exc:
        click.echo(f"domain error: {exc}", err=True)
        sys.exit(3)
    except (InvariantViolation, PrecisionCapError) as exc:
        click.echo(f"violation: {exc}", err=True)
        sys.exit(1)
    except (MemoryError, RecursionError) as exc:
        _exit_out_of_resources(exc)
    _print_report(report, fmt)
    click.echo(f"# elapsed_ms={int((time.monotonic() - t0) * 1000)}", err=True)
    if report.verified is False:
        sys.exit(1)


# --- verify suites ----------------------------------------------------


@dataclass
class SuiteResult:
    suite: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    def ok(self) -> None:
        self.checks += 1

    def fail(self, message: str) -> None:
        self.checks += 1
        self.failures.append(message)

    def expect(self, cond: bool, message: str) -> None:
        if cond:
            self.ok()
        else:
            self.fail(message)


def _suite_eq1(n_range: tuple[int, int] | None) -> SuiteResult:
    lo, hi = n_range or (1, 500)
    r = SuiteResult("eq1")
    for n in range(max(lo, 1), hi + 1):
        a = exact.partial_sum_pos(n)
        b = certified.certified_floor(EForm(0, exact.factorial(n), 0))
        r.expect(a == b, f"n={n}: partial sum {a} != certified floor {b}")
    return r


def _suite_derangement_family(
    n_range: tuple[int, int] | None,
    m_range: tuple[int, int] | None,
    lam: Fraction | None,
) -> SuiteResult:
    lo, hi = n_range or (1, 200)
    r = SuiteResult("derangement-family")
    if lam is not None:
        for n in range(max(lo, 1), hi + 1):
            got = counts.derangement_lambda(n, lam)
            r.expect(
                got == exact.derangements(n),
                f"lambda={lam}: n={n} gives {got}, derangements(n)={exact.derangements(n)}",
            )
        return r
    m5_lo, m5_hi = m_range or (3, 6)
    m7_lo, m7_hi = m_range or (1, 3)
    for n in range(max(lo, 1), hi + 1):
        dn = exact.derangements(n)
        r.expect(counts.derangement_eq2(n) == dn, f"eq2 fails at n={n}")
        for lam_fixed in (_Q(1, 3), _Q(5, 12), _Q(1, 2)):
            r.expect(
                counts.derangement_lambda(n, lam_fixed) == dn,
                f"lambda={lam_fixed} fails at n={n}",
            )
        if n < 2:
            continue
        r.expect(counts.derangement_eq3(n) == dn, f"eq3 fails at n={n}")
        r.expect(counts.derangement_eq4(n) == dn, f"eq4 fails at n={n}")
        r.expect(counts.derangement_eq6(n) == dn, f"eq6 fails at n={n}")
        for m in range(max(m5_lo, 3), m5_hi + 1):
            r.expect(counts.derangement_eq5(n, m) == dn, f"eq5 m={m} fails at n={n}")
        for m in range(max(m7_lo, 1), m7_hi + 1):
            r.expect(counts.derangement_thm7(n, m) == dn, f"thm7 m={m} fails at n={n}")
    return r


def _suite_paths_cycles(n_range: tuple[int, int] | None) -> SuiteResult:
    lo, hi = n_range or (3, 60)
    r = SuiteResult("paths-cycles")
    for n in range(max(lo, 3), hi + 1):
        try:
            pc = counts.path_cycle_counts(n)
            r.ok()
        except InvariantViolation as exc:
            r.fail(f"n={n}: {exc}")
            continue
        avg = counts.average_path_length(n)
        r.expect(
            avg - (n - 2) == _Q(1, pc.path_count),
            f"n={n}: average-length identity fails",
        )
        expected = {1, 2} if n == 3 else {n - 2, n - 1}
        r.expect(
            counts.path_argmax_lengths(n) == expected,
            f"n={n}: argmax set != {expected}",
        )
    return r


def _suite_bounds_chain(
    n_range: tuple[int, int] | None, m_range: tuple[int, int] | None
) -> SuiteResult:
    chain_lo, chain_hi = n_range or (2, 50)
    m_max = (m_range or (1, 8))[1]
    r = SuiteResult("bounds-chain")
    for n in range(max(chain_lo, 2), chain_hi + 1):
        try:
            counts.chain_check(n, m_max)
            r.ok()
        except InvariantViolation as exc:
            r.fail(str(exc))
    frac_lo, frac_hi = n_range or (1, 200)
    for n in range(max(frac_lo, 1), frac_hi + 1):
        f = certified.frac_e_nfact(n)
        lo_ok = certified.eform_lt(EForm.from_rational(_Q(1, n + 1)), f)
        hi_ok = certified.eform_lt(f, EForm.from_rational(_Q(1, n)))
        r.expect(lo_ok and hi_ok, f"n={n}: frac(e*n!) outside (1/(n+1), 1/n]")
    return r


def _suite_special_fn(
    n_range: tuple[int, int] | None, tol: Fraction, bits: int | None
) -> SuiteResult:
    r = SuiteResult("special-fn")
    x_set = [_Q(1), _Q(-1), _Q(1, 2), _Q(-1, 2), _Q(2), _Q(-2), _Q(3, 7)]
    lo, hi = n_range or (0, 30)
    for n in range(max(lo, 0), hi + 1):
        for x in x_set:
            try:
                specials.hyp2f0_identity_check(n, x)
                r.ok()
            except InvariantViolation as exc:
                r.fail(str(exc))
    sp_lo, sp_hi = n_range or (1, 100)
    for n in range(max(sp_lo, 1), sp_hi + 1):
        for sign in (-1, 1):
            try:
                specials.hyp2f0_special(n, sign)
                r.ok()
            except InvariantViolation as exc:
                r.fail(str(exc))
    ode_lo, ode_hi = n_range or (0, 50)
    for n in range(max(ode_lo, 0), ode_hi + 1):
        poly = exact.dpoly(n)
        deriv = poly.derivative_coeffs() + (0,)
        diff = tuple(a - b for a, b in zip(poly.coeffs, deriv))
        r.expect(
            diff == (0,) * n + (1,),
            f"n={n}: poly minus derivative is not x^n",
        )
    h_bits = bits or 40
    h_lo, h_hi = n_range or (0, 10)
    for n in range(max(h_lo, 0), h_hi + 1):
        for x in (_Q(1, 2), _Q(1), _Q(2)):
            try:
                iv = specials.hyp1f1(n, x, h_bits)
                r.expect(
                    iv.width <= _Q(1, 10**12),
                    f"hyp1f1 n={n} x={x}: width {float(iv.width)} > 1e-12",
                )
            except InvariantViolation as exc:
                r.fail(str(exc))
    int_lo, int_hi = n_range or (1, 15)
    for n in range(max(int_lo, 1), int_hi + 1):
        try:
            specials.integral_identities(n, tol=tol)
            r.ok()
        except InvariantViolation as exc:
            r.fail(str(exc))
    return r


def _suite_oracle_equivalence(n_range: tuple[int, int] | None) -> SuiteResult:
    r = SuiteResult("oracle-equivalence")
    d_lo, d_hi = n_range or (0, 9)
    for n in range(max(d_lo, 0), min(d_hi, oracles.MAX_BRUTE_DERANGEMENTS) + 1):
        r.expect(
            oracles.brute_derangements(n) == exact.derangements(n),
            f"derangements brute force disagrees at n={n}",
        )
    p_lo, p_hi = n_range or (3, 9)
    for n in range(max(p_lo, 3), min(p_hi, oracles.MAX_BRUTE_PATHS) + 1):
        res = oracles.brute_paths(n)
        r.expect(
            res.count == counts.path_count(n)
            and res.total_length == counts.path_length_sum(n),
            f"path enumeration disagrees at n={n}: {res}",
        )
    c_lo, c_hi = n_range or (3, 8)
    for n in range(max(c_lo, 3), min(c_hi, oracles.MAX_BRUTE_CYCLES) + 1):
        res = oracles.brute_cycles(n)
        r.expect(
            res.count == counts.cycle_count(n)
            and res.total_length == counts.cycle_length_sum(n),
            f"cycle enumeration disagrees at n={n}: {res}",
        )
    base = oracles.brute_paths(6)
    for pair in ((2, 5), (3, 4), (5, 0)):
        r.expect(
            oracles.brute_paths(6, pair) == base,
            f"path count depends on the vertex pair {pair}",
        )
    return r


_SUITES = (
    "eq1",
    "derangement-family",
    "paths-cycles",
    "bounds-chain",
    "special-fn",
    "oracle-equivalence",
)


@main.command("verify")
@click.argument("suite", type=click.Choice(_SUITES + ("all",)))
@click.option("--n-range", type=RANGE, default=None, help="Override as A..B.")
@click.option("--m-range", type=RANGE, default=None, help="Override as A..B.")
@click.option("--precision-bits", "bits", type=int, default=None)
@click.option("--tol", type=RAT, default=_DEFAULT_TOL, show_default="1/10^9")
@click.option("--lam", "--lambda", "lam", type=RAT, default=None, help="Check floor(n!/e + lam) instead of the stock family.")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write a JSON report.")
def cmd_verify(suite, n_range, m_range, bits, tol, lam, out) -> None:
    """Run an identity suite; exit 0 only if every check passes."""
    t0 = time.monotonic()
    selected = _SUITES if suite == "all" else (suite,)
    results: list[SuiteResult] = []
    try:
        for name in selected:
            if name == "eq1":
                results.append(_suite_eq1(n_range))
            elif name == "derangement-family":
                results.append(_suite_derangement_family(n_range, m_range, lam))
            elif name == "paths-cycles":
                results.append(_suite_paths_cycles(n_range))
            elif name == "bounds-chain":
                results.append(_suite_bounds_chain(n_range, m_range))
            elif name == "special-fn":
                results.append(_suite_special_fn(n_range, tol, bits))
            elif name == "oracle-equivalence":
                results.append(_suite_oracle_equivalence(n_range))
    except DomainError as exc:
        click.echo(f"domain error: {exc}", err=True)
        sys.exit(3)
    except PrecisionCapError as exc:
        click.echo(f"violation: {exc}", err=True)
        sys.exit(1)
    except (MemoryError, RecursionError) as exc:
        _exit_out_of_resources(exc)

    total = sum(r.checks for r in results)
    failed = sum(len(r.failures) for r in results)
    for r in results:
        click.echo(f"suite {r.suite}: {r.checks} checks, {len(r.failures)} failures")
        for message in r.failures[:5]:
            click.echo(f"  FAIL {message}")
        if len(r.failures) > 5:
            click.echo(f"  ... {len(r.failures) - 5} more")
    click.echo(f"verify: {total} checks, {failed} failures")
    if out:
        payload = {
            "suites": [
                {"suite": r.suite, "checks": r.checks, "failures": r.failures}
                for r in results
            ],
            "total_checks": total,
            "total_failures": failed,
        }
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    click.echo(f"# elapsed_ms={int((time.monotonic() - t0) * 1000)}", err=True)
    if failed:
        sys.exit(1)


# --- tables -----------------------------------------------------------

_TABLE_QUANTITIES = (
    "derangements",
    "paths",
    "cycles",
    "path-length-sum",
    "cycle-length-sum",
    "avg-path-length",
    "floor-e-nfact",
    "frac-e-nfact",
    "bounds",
)


def _emit_rows(rows: list[dict[str, Any]], fmt: str) -> None:
    if fmt == "json":
        click.echo(json.dumps(rows, indent=2))
        return
    if not rows:
        return
    headers = list(rows[0].keys())
    if fmt == "csv":
        click.echo(",".join(headers))
        for row in rows:
            click.echo(",".join(str(row[h]) for h in headers))
        return
    # markdown
    click.echo("| " + " | ".join(headers) + " |")
    click.echo("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        click.echo("| " + " | ".join(str(row[h]) for h in headers) + " |")


@main.command("table")
@click.argument("quantity", type=click.Choice(_TABLE_QUANTITIES))
@click.option("--n-range", type=RANGE, default=None, help="Rows over n (A..B).")
@click.option("--n", type=int, default=None, help="Fixed n (bounds table).")
@click.option("--m-range", type=RANGE, default=(1, 5), help="Rows over m for bounds.")
@click.option("--precision-bits", "bits", type=int, default=96, show_default=True)
@click.option(
    "--format", "fmt", type=click.Choice(["csv", "json", "md"]), default="csv",
    show_default=True,
)
def cmd_table(quantity, n_range, n, m_range, bits, fmt) -> None:
    """Emit one row per n (or per m for the bounds table)."""
    rows: list[dict[str, Any]] = []
    try:
        if quantity == "bounds":
            if n is None:
                raise click.UsageError("--n is required for the bounds table")
            digits = _digits_for_bits(bits)
            for m in range(m_range[0], m_range[1] + 1):
                n_iv = certified.eform_eval(counts.bound_N(n, m), bits)
                rows.append(
                    {
                        "m": m,
                        "M": str(counts.bound_M(n, m)),
                        "N_lo": n_iv.to_decimal(digits)[0],
                        "N_hi": n_iv.to_decimal(digits)[1],
                    }
                )
        else:
            if n_range is None:
                raise click.UsageError("--n-range is required for this table")
            lo, hi = n_range
            simple: dict[str, Callable[[int], Any]] = {
                "derangements": exact.derangements,
                "paths": counts.path_count,
                "cycles": counts.cycle_count,
                "path-length-sum": counts.path_length_sum,
                "cycle-length-sum": counts.cycle_length_sum,
                "avg-path-length": counts.average_path_length,
            }
            for k in range(lo, hi + 1):
                if quantity in simple:
                    rows.append({"n": k, "value": str(simple[quantity](k))})
                elif quantity == "floor-e-nfact":
                    rows.append({"n": k, "value": str(exact.partial_sum_pos(k))})
                else:  # frac-e-nfact
                    f = certified.frac_e_nfact(k)
                    iv = certified.eform_eval(f, bits)
                    dec = iv.to_decimal(_digits_for_bits(bits))
                    rows.append(
                        {
                            "n": k,
                            "a": str(f.a),
                            "b": str(f.b),
                            "c": str(f.c),
                            "lo": dec[0],
                            "hi": dec[1],
                        }
                    )
    except DomainError as exc:
        click.echo(f"domain error: {exc}", err=True)
        sys.exit(3)
    except (InvariantViolation, PrecisionCapError) as exc:
        click.echo(f"violation: {exc}", err=True)
        sys.exit(1)
    except (MemoryError, RecursionError) as exc:
        _exit_out_of_resources(exc)
    _emit_rows(rows, fmt)


@main.command("bench")
@click.option("--n-max", type=int, default=200, show_default=True)
@click.option("--repeat", type=int, default=3, show_default=True)
def cmd_bench(n_max, repeat) -> None:
    """Time the exact-sum route against the certified-floor route."""
    if n_max < 1:
        click.echo("domain error: --n-max must be >= 1", err=True)
        sys.exit(3)
    if repeat < 1:
        click.echo("domain error: --repeat must be >= 1", err=True)
        sys.exit(3)
    samples = sorted({1, 2, 5, 10, 20, 50, 100, 200, 500, n_max})
    samples = [s for s in samples if s <= n_max]
    click.echo(f"{'n':>5} {'exact_us':>12} {'certified_us':>14} {'ratio':>8} {'bits':>7}")
    for n in samples:
        best_exact = min(_time_exact_sum(n) for _ in range(repeat))
        f = EForm(0, exact.factorial(n), 0)
        infos = []
        best_cert = None
        for _ in range(repeat):
            t0 = time.perf_counter()
            info = certified.certified_floor_info(f)
            dt = time.perf_counter() - t0
            infos.append(info)
            best_cert = dt if best_cert is None else min(best_cert, dt)
        assert all(i.value == infos[0].value for i in infos)
        ratio = best_cert / best_exact if best_exact > 0 else float("inf")
        click.echo(
            f"{n:>5} {best_exact * 1e6:>12.1f} {best_cert * 1e6:>14.1f} "
            f"{ratio:>8.1f} {infos[0].precision_bits:>7}"
        )


def _time_exact_sum(n: int) -> float:
    t0 = time.perf_counter()
    acc = 1
    for k in range(1, n + 1):
        acc = k * acc + 1
    dt = time.perf_counter() - t0
    assert acc == exact.partial_sum_pos(n)
    return dt


if __name__ == "__main__":
    main()

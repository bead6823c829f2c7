"""Command-line front end.

Three subcommands: `compute` evaluates a single quantity, `verify` runs
identity suites over ranges, and `table` emits rows in csv/json/md.
`compute` and `table` are driven by one table of ops (`_OPS`): each op
names its flags and the library call behind it.  Where that call
already checks two routes against each other (paths, cycles and their
length sums), the CLI reports the agreement and does not recompute
either route; it computes a second route itself only where no library
function does (`floor-e-nfact` and the derangement floor forms).
`verify` dispatches through one registry of suites (`_SUITES`).

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
import os
import re
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Iterator

import click

import ecount

from .errors import DomainError, InvariantViolation, PrecisionCapError

if TYPE_CHECKING:
    from .certified import EForm, IntervalReal

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


@contextmanager
def _exit_codes() -> Iterator[None]:
    """Map the library's errors to exit codes: 3 for a domain error, 1 for
    a violation, a precision cap, or a computation that ran out of memory
    or stack.  The cap and the quadrature budget are what bound the work;
    the last case only keeps an input they miss from ending in a
    traceback."""
    try:
        yield
    except DomainError as exc:
        click.echo(f"domain error: {exc}", err=True)
        sys.exit(3)
    except (InvariantViolation, PrecisionCapError) as exc:
        click.echo(f"violation: {exc}", err=True)
        sys.exit(1)
    except (MemoryError, RecursionError) as exc:
        detail = f": {exc}" if str(exc) else ""
        click.echo(f"violation: out of resources ({type(exc).__name__}{detail})", err=True)
        sys.exit(1)


# --- the op table -------------------------------------------------------

# How an op's value is verified, where it is.  _ROUTES: the library
# function computes both routes and raises when they disagree, so the CLI
# reports the agreement without a second computation.  _CHECKED: the
# library checked an enclosure or a chain.  A callable instead computes a
# second route from the op's arguments, compared by the CLI.
_ROUTES = "routes"
_CHECKED = "checked"


@dataclass(frozen=True)
class Op:
    """One `compute` op.

    `params` are its JSON param keys in print order; each names the flag
    it comes from (see _FLAG).  `run` takes their values in that order.
    A flag left unset falls back to `defaults`, else it is required.
    """

    params: tuple[str, ...]
    run: Callable[..., Any]
    check: str | Callable[..., Any] | None = None
    defaults: dict[str, int] = field(default_factory=dict)


_FLAG = {"m_max": "m", "precision_bits": "bits"}


def _frac_e_nfact(n: int, bits: int) -> dict[str, Any]:
    f = ecount.frac_e_nfact(n)
    iv = ecount.eform_eval(f, bits)
    return {"eform": _eform_json(f), "interval": _interval_json(iv, bits)}


def _integrals(n: int, tol: Fraction, bits: int) -> list[dict[str, Any]]:
    return [
        {
            "label": r.label,
            "eform": _eform_json(r.closed_form),
            "quadrature": _interval_json(r.enclosure, bits),
        }
        for r in ecount.integral_identities(n, tol=tol, precision_bits=bits)
    ]


def _bounds(n: int, m: int) -> dict[str, Any]:
    chain = ecount.chain_check(n, m)
    return {
        "frac": _eform_json(chain.frac),
        "m_list": [
            {"m": mi, "M": str(big_m), "N": _eform_json(big_n)}
            for mi, big_m, big_n in chain.m_list
        ],
    }


def _derangements(n: int, *_: Any) -> int:
    return ecount.derangements(n)


# The ops reach the library through the package's public names, looked
# up when called, not at import: the package loads a layer on its first
# use, so a call loads only the layers its op needs, and a monkeypatched
# or traced layer attribute is the one that runs.
_OPS: dict[str, Op] = {
    "derangements": Op(("n",), lambda n: ecount.derangements(n)),
    "dpoly-eval": Op(("n", "x"), lambda n, x: ecount.dpoly_eval(n, x)),
    "paths": Op(("n",), lambda n: ecount.path_count(n), _ROUTES),
    "path-length-sum": Op(("n",), lambda n: ecount.path_length_sum(n), _ROUTES),
    "cycles": Op(("n",), lambda n: ecount.cycle_count(n), _ROUTES),
    "cycle-length-sum": Op(("n",), lambda n: ecount.cycle_length_sum(n), _ROUTES),
    "avg-path-length": Op(("n",), lambda n: ecount.average_path_length(n)),
    "floor-e-nfact": Op(
        ("n",),
        lambda n: ecount.partial_sum_pos(n),
        lambda n: ecount.certified_floor(ecount.EForm(0, ecount.factorial(n), 0)),
    ),
    "frac-e-nfact": Op(("n", "precision_bits"), _frac_e_nfact),
    "eq2": Op(("n",), lambda n: ecount.derangement_eq2(n), _derangements),
    "eq3": Op(("n",), lambda n: ecount.derangement_eq3(n), _derangements),
    "eq4": Op(("n",), lambda n: ecount.derangement_eq4(n), _derangements),
    "eq6": Op(("n",), lambda n: ecount.derangement_eq6(n), _derangements),
    "eq5": Op(("n", "m"), lambda n, m: ecount.derangement_eq5(n, m), _derangements, {"m": 3}),
    "thm7": Op(("n", "m"), lambda n, m: ecount.derangement_thm7(n, m), _derangements, {"m": 1}),
    "hyp2f0": Op(("n", "x"), lambda n, x: ecount.hyp2f0(n, x)),
    "hyp1f1": Op(
        ("n", "x", "precision_bits"),
        lambda n, x, bits: _interval_json(ecount.hyp1f1(n, x, bits), bits),
        _CHECKED,
    ),
    "inc-gamma": Op(
        ("n", "z", "precision_bits"),
        lambda n, z, bits: _interval_json(
            ecount.inc_gamma_int(ecount.GammaQuery(n, z, bits)), bits
        ),
    ),
    "integrals": Op(("n", "tol", "precision_bits"), _integrals, _CHECKED),
    "bounds": Op(("n", "m_max"), _bounds, _CHECKED, {"m_max": 8}),
}


def _op_args(name: str, op: Op, flags: dict[str, Any]) -> list[Any]:
    """The op's arguments from the command's flags, in params order."""
    args = []
    for key in op.params:
        flag = _FLAG.get(key, key)
        value = flags.get(flag)
        if value is None:
            value = op.defaults.get(key)
        if value is None:
            raise click.UsageError(f"--{flag} is required for op {name!r}")
        args.append(value)
    return args


def _compute_report(name: str, flags: dict[str, Any]) -> CountReport:
    op = _OPS.get(name)
    if op is None:
        raise click.UsageError(f"unknown op {name!r}")
    args = _op_args(name, op, flags)
    params = {k: v if isinstance(v, int) else str(v) for k, v in zip(op.params, args)}
    value = op.run(*args)
    shown = value if isinstance(value, (dict, list)) else str(value)
    if op.check is None:
        return CountReport(name, params, shown)
    if op.check == _CHECKED:
        return CountReport(name, params, shown, verified=True)
    other = value if op.check == _ROUTES else op.check(*args)
    return CountReport(name, params, shown, value == other, str(value), str(other))


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
def cmd_compute(op, fmt, **flags) -> None:
    """Compute one quantity; see README for the op list."""
    t0 = time.monotonic()
    with _exit_codes():
        report = _compute_report(op, flags)
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

    def expect(self, cond: bool, message: str) -> None:
        self.checks += 1
        if not cond:
            self.failures.append(message)

    def fail(self, message: str) -> None:
        self.expect(False, message)

    def attempt(self, check: Callable[..., Any], *args: Any, prefix: str = "") -> Any:
        """One check that a library call raises no InvariantViolation;
        returns the call's result, or None when it raised."""
        try:
            result = check(*args)
        except InvariantViolation as exc:
            self.fail(f"{prefix}{exc}")
            return None
        self.checks += 1
        return result


_Range = tuple[int, int] | None


def _suite_eq1(r: SuiteResult, n_range: _Range, **_: Any) -> None:
    from . import certified, exact
    from .certified import EForm

    lo, hi = n_range or (1, 500)
    for n in range(max(lo, 1), hi + 1):
        a = exact.partial_sum_pos(n)
        b = certified.certified_floor(EForm(0, exact.factorial(n), 0))
        r.expect(a == b, f"n={n}: partial sum {a} != certified floor {b}")


def _suite_derangement_family(
    r: SuiteResult, n_range: _Range, m_range: _Range, lam: Fraction | None, **_: Any
) -> None:
    from . import counts, exact

    lo, hi = n_range or (1, 200)
    if lam is not None:
        for n in range(max(lo, 1), hi + 1):
            got = counts.derangement_lambda(n, lam)
            r.expect(
                got == exact.derangements(n),
                f"lambda={lam}: n={n} gives {got}, derangements(n)={exact.derangements(n)}",
            )
        return
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


def _suite_paths_cycles(r: SuiteResult, n_range: _Range, **_: Any) -> None:
    from . import counts

    lo, hi = n_range or (3, 60)
    for n in range(max(lo, 3), hi + 1):
        pc = r.attempt(counts.path_cycle_counts, n, prefix=f"n={n}: ")
        if pc is None:
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


def _suite_bounds_chain(r: SuiteResult, n_range: _Range, m_range: _Range, **_: Any) -> None:
    from . import certified, counts
    from .certified import EForm

    chain_lo, chain_hi = n_range or (2, 50)
    m_max = (m_range or (1, 8))[1]
    for n in range(max(chain_lo, 2), chain_hi + 1):
        r.attempt(counts.chain_check, n, m_max)
    frac_lo, frac_hi = n_range or (1, 200)
    for n in range(max(frac_lo, 1), frac_hi + 1):
        f = certified.frac_e_nfact(n)
        lo_ok = certified.eform_lt(EForm.from_rational(_Q(1, n + 1)), f)
        hi_ok = certified.eform_lt(f, EForm.from_rational(_Q(1, n)))
        r.expect(lo_ok and hi_ok, f"n={n}: frac(e*n!) outside (1/(n+1), 1/n]")


def _suite_special_fn(
    r: SuiteResult, n_range: _Range, tol: Fraction, bits: int | None, **_: Any
) -> None:
    from . import exact, specials

    x_set = [_Q(1), _Q(-1), _Q(1, 2), _Q(-1, 2), _Q(2), _Q(-2), _Q(3, 7)]
    lo, hi = n_range or (0, 30)
    for n in range(max(lo, 0), hi + 1):
        for x in x_set:
            r.attempt(specials.hyp2f0_identity_check, n, x)
    sp_lo, sp_hi = n_range or (1, 100)
    for n in range(max(sp_lo, 1), sp_hi + 1):
        for sign in (-1, 1):
            r.attempt(specials.hyp2f0_special, n, sign)
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
        r.attempt(specials.integral_identities, n, tol)


def _suite_oracle_equivalence(r: SuiteResult, n_range: _Range, **_: Any) -> None:
    from . import counts, exact, oracles

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


# Each suite reads the options it needs from the keyword arguments of
# cmd_verify and records its checks in the SuiteResult it is given.  It
# imports the layers it checks when it runs, so `verify SUITE` loads
# only those.
_SUITES: dict[str, Callable[..., None]] = {
    "eq1": _suite_eq1,
    "derangement-family": _suite_derangement_family,
    "paths-cycles": _suite_paths_cycles,
    "bounds-chain": _suite_bounds_chain,
    "special-fn": _suite_special_fn,
    "oracle-equivalence": _suite_oracle_equivalence,
}


def _writable(ctx: click.Context, param: click.Parameter, out: str | None) -> str | None:
    """Refuse an --out path that cannot be written, before any suite runs."""
    if out is not None:
        target = out if os.path.exists(out) else os.path.dirname(os.path.abspath(out))
        if not os.access(target, os.W_OK):
            raise click.BadParameter(f"cannot write {out!r}", ctx, param)
    return out


@main.command("verify")
@click.argument("suite", type=click.Choice(tuple(_SUITES) + ("all",)))
@click.option("--n-range", type=RANGE, default=None, help="Override as A..B.")
@click.option("--m-range", type=RANGE, default=None, help="Override as A..B.")
@click.option("--precision-bits", "bits", type=int, default=None)
@click.option("--tol", type=RAT, default=_DEFAULT_TOL, show_default="1/10^9")
@click.option("--lam", "--lambda", "lam", type=RAT, default=None, help="Check floor(n!/e + lam) instead of the stock family.")
@click.option(
    "--out", type=click.Path(dir_okay=False), default=None, callback=_writable,
    help="Write a JSON report.",
)
def cmd_verify(suite, out, **options) -> None:
    """Run an identity suite; exit 0 only if every check passes."""
    t0 = time.monotonic()
    results = [SuiteResult(name) for name in (_SUITES if suite == "all" else (suite,))]
    with _exit_codes():
        for r in results:
            _SUITES[r.suite](r, **options)

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


def _bounds_rows(n: int, m_range: tuple[int, int], bits: int) -> list[dict[str, Any]]:
    digits = _digits_for_bits(bits)
    rows = []
    for m in range(m_range[0], m_range[1] + 1):
        n_lo, n_hi = ecount.eform_eval(ecount.bound_N(n, m), bits).to_decimal(digits)
        rows.append({"m": m, "M": str(ecount.bound_M(n, m)), "N_lo": n_lo, "N_hi": n_hi})
    return rows


def _op_row(quantity: str, n: int, bits: int) -> dict[str, Any]:
    op = _OPS[quantity]
    value = op.run(*_op_args(quantity, op, {"n": n, "bits": bits}))
    if quantity != "frac-e-nfact":
        return {"n": n, "value": str(value)}
    (a, b, c), iv = value["eform"], value["interval"]
    return {"n": n, "a": a, "b": b, "c": c, "lo": iv["lo"], "hi": iv["hi"]}


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
    with _exit_codes():
        if quantity == "bounds":
            if n is None:
                raise click.UsageError("--n is required for the bounds table")
            rows = _bounds_rows(n, m_range, bits)
        else:
            if n_range is None:
                raise click.UsageError("--n-range is required for this table")
            rows = [_op_row(quantity, k, bits) for k in range(n_range[0], n_range[1] + 1)]
    _emit_rows(rows, fmt)


if __name__ == "__main__":
    main()

"""Command-line front end.

Three subcommands: `compute` evaluates a single quantity, `verify` runs
identity suites over ranges, and `table` emits rows in csv/json/md.
`compute` and `table` are driven by one table of ops (`_OPS`): each op
names its flags and the library call behind it, and `_compute_report`
builds the one report dict that `compute` prints and `table` reads a
row's value from.  Where an op has two routes (paths, cycles and their
length sums, `floor-e-nfact` and the derangement floor forms), its call
is a checked entry of `counts`, which runs both and raises when they
disagree; the CLI reports the agreement and computes no route of its
own.  `verify` dispatches through one registry of suites (`_SUITES`).

Exit codes: 0 success, 1 identity violation (or a certification that
could not complete), 2 usage error (argparse's usage line and message
on stderr), 3 domain error.  All data output is byte-deterministic for
fixed inputs; elapsed time goes to a summary line on stderr.  Big
integers are printed as decimal strings, rationals as "p/q", intervals
as outward-rounded decimal endpoint pairs with an explicit
precision_bits field.  The precision cap of the certified engine can be
overridden with the ECOUNT_PRECISION_CAP env var.

The parser is stdlib argparse, a report is a plain dict and the record
that remains, `Op`, is a namedtuple: a cold call loads no third-party
package, and neither dataclasses nor inspect.  `json` is imported only
by `_json`, when JSON is written: `--format json`, a list or dict
value, `verify --out` and `table --format json`.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from collections import namedtuple
from contextlib import contextmanager
from fractions import Fraction

import ecount

from .errors import DomainError, InvariantViolation, PrecisionCapError, _require

# Annotations only; typing is not imported at run time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable, Iterator
    from typing import Any

    from .certified import EForm, IntervalReal

_Q = Fraction
_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_RANGE_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


class _UsageError(Exception):
    """A command line that parsed but names no valid call; exit code 2."""


def _rational(text: str) -> Fraction:
    """An integer or p/q string; decimal floats are rejected."""
    text = text.strip()
    if not _RAT_RE.match(text):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer or p/q rational "
            "(decimal floats are rejected to preserve exactness)"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        # argparse reports ValueError and TypeError from a type only
        raise argparse.ArgumentTypeError(f"{text!r} has a zero denominator") from None


def _range(text: str) -> tuple[int, int]:
    """Inclusive integer range written as A..B."""
    text = text.strip()
    m = _RANGE_RE.match(text)
    if not m:
        raise argparse.ArgumentTypeError(f"{text!r} is not a range of the form A..B")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise argparse.ArgumentTypeError(f"range {text!r} is empty (lo > hi)")
    return (lo, hi)


def _writable(out: str) -> str:
    """An --out path that can be written, checked before any suite runs."""
    if os.path.isdir(out):
        raise argparse.ArgumentTypeError(f"cannot write {out!r}: it is a directory")
    target = out if os.path.exists(out) else os.path.dirname(os.path.abspath(out))
    if not out or not os.access(target, os.W_OK):
        raise argparse.ArgumentTypeError(f"cannot write {out!r}")
    return out


_DEFAULT_TOL = _Q(1, 10**9)


def _digits_for_bits(bits: int) -> int:
    # 10^-d <= 2^-bits needs d >= bits * log10(2)
    return bits * 30103 // 100000 + 2


def _interval_json(iv: IntervalReal, bits: int) -> dict[str, Any]:
    digits = _digits_for_bits(bits)
    lo, hi = iv.to_decimal(digits)
    return {"lo": lo, "hi": hi, "precision_bits": bits}


def _eform_json(f: EForm, strings: dict[Fraction, str]) -> list[str]:
    """f's a, b, c as decimal strings; `strings` keeps one per value, so a
    call that prints one big coefficient in many forms converts it once."""
    out = []
    for q in (f.a, f.b, f.c):
        text = strings.get(q)
        if text is None:
            text = strings[q] = str(q)
        out.append(text)
    return out


def _json(value: Any, indent: int | None = None) -> str:
    import json  # here, not at the top: a command that writes no JSON never loads it

    return json.dumps(value, indent=indent)


def _value_text(value: Any) -> str:
    if isinstance(value, dict) and "lo" in value:
        return f"[{value['lo']}, {value['hi']}] (precision_bits={value['precision_bits']})"
    if isinstance(value, (dict, list)):
        return _json(value)
    return str(value)


def _print_report(report: dict[str, Any], fmt: str) -> None:
    if fmt == "json":
        print(_json(report, indent=2))
        return
    print(_value_text(report["value"]))
    if "verified" in report:
        print("verified=true")
    if "route_a" in report:
        print(f"routes agree on {report['route_a']}")


def _elapsed(t0: float) -> None:
    print(f"# elapsed_ms={int((time.monotonic() - t0) * 1000)}", file=sys.stderr)


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
        print(f"domain error: {exc}", file=sys.stderr)
        sys.exit(3)
    except (InvariantViolation, PrecisionCapError) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        sys.exit(1)
    except (MemoryError, RecursionError) as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"violation: out of resources ({type(exc).__name__}{detail})", file=sys.stderr)
        sys.exit(1)


# --- the op table -------------------------------------------------------

# How an op's value is verified, where it is.  _ROUTES: the op calls a
# checked entry of `counts`, which computes both routes and raises when
# they disagree, so the CLI reports the agreement.  _CHECKED: the library
# checked an enclosure or a chain.  The CLI computes no route itself.
_ROUTES = "routes"
_CHECKED = "checked"


class Op(namedtuple("Op", "params run check defaults", defaults=(None, {}))):
    """One `compute` op.

    `params` are its JSON param keys in print order; each names the flag
    it comes from (see _FLAG).  `run` takes their values in that order.
    `check` is None, _ROUTES or _CHECKED (see above).
    A flag left unset falls back to `defaults`, a dict from param key to
    value, else it is required.
    """

    __slots__ = ()


_FLAG = {"m_max": "m", "precision_bits": "bits"}


def _frac_e_nfact(n: int, bits: int) -> dict[str, Any]:
    f = ecount.frac_e_nfact(n)
    iv = ecount.eform_eval(f, bits)
    return {"eform": _eform_json(f, {}), "interval": _interval_json(iv, bits)}


def _integrals(n: int, tol: Fraction, bits: int) -> list[dict[str, Any]]:
    # bits only set the printed digits, so the library does not check them
    _require(bits >= 0, "precision_bits must be >= 0 (got {})", bits)
    strings: dict[Fraction, str] = {}
    return [
        {
            "label": r.label,
            "eform": _eform_json(r.closed_form, strings),
            "quadrature": _interval_json(r.enclosure, bits),
        }
        for r in ecount.integral_identities(n, tol=tol)
    ]


def _bounds(n: int, m: int) -> dict[str, Any]:
    chain = ecount.chain_check(n, m)
    # frac(e*n!) and every N_m have b = n!
    strings: dict[Fraction, str] = {}
    return {
        "frac": _eform_json(chain.frac, strings),
        "m_list": [
            {"m": mi, "M": str(big_m), "N": _eform_json(big_n, strings)}
            for mi, big_m, big_n in chain.m_list
        ],
    }


def _derangement_form(form: str) -> Callable[..., int]:
    """The op of the derangement floor form counts.<form>, checked in
    `counts` against derangements(n)."""
    return lambda *args: ecount.counts._checked_form(getattr(ecount.counts, form), *args)


# The ops reach the library through the package's public names, or its
# `counts` layer for the checked entries, looked up when called, not at
# import: the package loads a layer on its first use, so a call loads
# only the layers its op needs, and a monkeypatched or traced layer
# attribute is the one that runs.
_OPS: dict[str, Op] = {
    "derangements": Op(("n",), lambda n: ecount.derangements(n)),
    "dpoly-eval": Op(("n", "x"), lambda n, x: ecount.dpoly_eval(n, x)),
    "paths": Op(("n",), lambda n: ecount.path_count(n), _ROUTES),
    "path-length-sum": Op(("n",), lambda n: ecount.path_length_sum(n), _ROUTES),
    "cycles": Op(("n",), lambda n: ecount.cycle_count(n), _ROUTES),
    "cycle-length-sum": Op(("n",), lambda n: ecount.cycle_length_sum(n), _ROUTES),
    "avg-path-length": Op(("n",), lambda n: ecount.average_path_length(n)),
    "floor-e-nfact": Op(
        ("n",), lambda n: ecount.counts._checked_sum("floor_e_nfact", n, n), _ROUTES
    ),
    "frac-e-nfact": Op(("n", "precision_bits"), _frac_e_nfact),
    "eq2": Op(("n",), _derangement_form("derangement_eq2"), _ROUTES),
    "eq3": Op(("n",), _derangement_form("derangement_eq3"), _ROUTES),
    "eq4": Op(("n",), _derangement_form("derangement_eq4"), _ROUTES),
    "eq6": Op(("n",), _derangement_form("derangement_eq6"), _ROUTES),
    "eq5": Op(("n", "m"), _derangement_form("derangement_eq5"), _ROUTES, {"m": 3}),
    "thm7": Op(("n", "m"), _derangement_form("derangement_thm7"), _ROUTES, {"m": 1}),
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
            raise _UsageError(f"--{flag} is required for op {name!r}")
        args.append(value)
    return args


def _compute_report(name: str, flags: dict[str, Any]) -> dict[str, Any]:
    """The report of one op, as `compute --format json` prints it: op,
    params and value, then `verified` where the library checked the value
    and `route_a`, `route_b` where its two routes agreed on it."""
    op = _OPS.get(name)
    if op is None:
        raise _UsageError(f"unknown op {name!r}")
    args = _op_args(name, op, flags)
    params = {k: v if isinstance(v, int) else str(v) for k, v in zip(op.params, args)}
    value = op.run(*args)
    # One decimal string per value: both routes show it.
    if not isinstance(value, (dict, list)):
        value = str(value)
    report = {"op": name, "params": params, "value": value}
    if op.check:
        report["verified"] = True
        if op.check == _ROUTES:
            report["route_a"] = report["route_b"] = value
    return report


def cmd_compute(args: argparse.Namespace) -> None:
    """Compute one quantity; see README for the op list."""
    t0 = time.monotonic()
    with _exit_codes():
        report = _compute_report(args.op, vars(args))
    _print_report(report, args.fmt)
    _elapsed(t0)


# --- verify suites ----------------------------------------------------


class SuiteResult:
    """The checks one suite ran, and the message of each that failed."""

    __slots__ = ("suite", "checks", "failures")

    def __init__(self, suite: str) -> None:
        self.suite = suite
        self.checks = 0
        self.failures: list[str] = []

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


def _ns(n_range: _Range, lo: int, hi: int, top: int | None = None) -> range:
    """The values of a suite's --n-range (or --m-range) at or above lo,
    and at most top when it is given; lo..hi when no range was asked."""
    first, last = n_range or (lo, hi)
    return range(max(first, lo), (last if top is None else min(last, top)) + 1)


def _suite_eq1(r: SuiteResult, n_range: _Range, **_: Any) -> None:
    from . import counts

    for n in _ns(n_range, 1, 500):
        r.attempt(counts._checked_sum, "eq1", n, n)


def _suite_derangement_family(
    r: SuiteResult, n_range: _Range, m_range: _Range, lam: Fraction | None, **_: Any
) -> None:
    from . import counts, exact

    ns = _ns(n_range, 1, 200)
    if lam is not None:
        for n in ns:
            got = counts.derangement_lambda(n, lam)
            r.expect(
                got == exact.derangements(n),
                f"lambda={lam}: n={n} gives {got}, derangements(n)={exact.derangements(n)}",
            )
        return
    check = counts._checked_form
    for n in ns:
        r.attempt(check, counts.derangement_eq2, n)
        for lam_fixed in (_Q(1, 3), _Q(5, 12), _Q(1, 2)):
            r.attempt(check, counts.derangement_lambda, n, lam_fixed)
        if n < 2:
            continue
        r.attempt(check, counts.derangement_eq3, n)
        r.attempt(check, counts.derangement_eq4, n)
        r.attempt(check, counts.derangement_eq6, n)
        for m in _ns(m_range, 3, 6):
            r.attempt(check, counts.derangement_eq5, n, m)
        for m in _ns(m_range, 1, 3):
            r.attempt(check, counts.derangement_thm7, n, m)


def _suite_paths_cycles(r: SuiteResult, n_range: _Range, **_: Any) -> None:
    from . import counts

    for n in _ns(n_range, 3, 60):
        pc = r.attempt(counts.path_cycle_counts, n, prefix=f"n={n}: ")
        if pc is None:
            continue
        avg = counts.average_path_length(n)
        r.expect(
            avg - (n - 2) == _Q(1, pc.path_count),
            f"n={n}: average-length identity fails",
        )
        w = [counts.path_count_by_length(n, i) for i in range(1, n)]
        top = max(w)
        expected = {i for i, wi in enumerate(w, start=1) if wi == top}
        r.expect(
            counts.path_argmax_lengths(n) == expected,
            f"n={n}: argmax set != {expected}",
        )


def _suite_bounds_chain(r: SuiteResult, n_range: _Range, m_range: _Range, **_: Any) -> None:
    from . import certified, counts
    from .certified import EForm

    m_max = (m_range or (1, 8))[1]
    for n in _ns(n_range, 2, 50):
        r.attempt(counts.chain_check, n, m_max)
    for n in _ns(n_range, 1, 200):
        f = certified.frac_e_nfact(n)
        lo_ok = certified.eform_lt(EForm.from_rational(_Q(1, n + 1)), f)
        hi_ok = certified.eform_lt(f, EForm.from_rational(_Q(1, n)))
        r.expect(lo_ok and hi_ok, f"n={n}: frac(e*n!) outside (1/(n+1), 1/n]")


def _suite_special_fn(
    r: SuiteResult, n_range: _Range, tol: Fraction, bits: int | None, **_: Any
) -> None:
    from . import exact, specials

    x_set = [_Q(1), _Q(-1), _Q(1, 2), _Q(-1, 2), _Q(2), _Q(-2), _Q(3, 7)]
    for n in _ns(n_range, 0, 30):
        for x in x_set:
            r.attempt(specials.hyp2f0_identity_check, n, x)
    for n in _ns(n_range, 1, 100):
        for sign in (-1, 1):
            r.attempt(specials.hyp2f0_special, n, sign)
    for n in _ns(n_range, 0, 50):
        poly = exact.dpoly(n)
        deriv = poly.derivative_coeffs() + (0,)
        diff = tuple(a - b for a, b in zip(poly.coeffs, deriv))
        r.expect(
            diff == (0,) * n + (1,),
            f"n={n}: poly minus derivative is not x^n",
        )
    h_bits = 40 if bits is None else bits
    for n in _ns(n_range, 0, 10):
        for x in (_Q(1, 2), _Q(1), _Q(2)):
            try:
                iv = specials.hyp1f1(n, x, h_bits)
                r.expect(
                    iv.width <= _Q(1, 1 << h_bits),
                    f"hyp1f1 n={n} x={x}: width {float(iv.width)} > 2^-{h_bits}",
                )
            except InvariantViolation as exc:
                r.fail(str(exc))
    for n in _ns(n_range, 1, 15):
        r.attempt(specials.integral_identities, n, tol)


def _suite_oracle_equivalence(r: SuiteResult, n_range: _Range, **_: Any) -> None:
    from . import counts, exact, oracles

    for n in _ns(n_range, 0, 9, oracles.MAX_BRUTE_DERANGEMENTS):
        r.expect(
            oracles.brute_derangements(n) == exact.derangements(n),
            f"derangements brute force disagrees at n={n}",
        )
    for n in _ns(n_range, 3, 9, oracles.MAX_BRUTE_PATHS):
        res = oracles.brute_paths(n)
        r.expect(
            res.count == counts.path_count(n)
            and res.total_length == counts.path_length_sum(n),
            f"path enumeration disagrees at n={n}: {res}",
        )
    for n in _ns(n_range, 3, 8, oracles.MAX_BRUTE_CYCLES):
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


def cmd_verify(args: argparse.Namespace) -> None:
    """Run an identity suite; exit 0 only if every check passes."""
    t0 = time.monotonic()
    options = {key: getattr(args, key) for key in ("n_range", "m_range", "bits", "tol", "lam")}
    suites = _SUITES if args.suite == "all" else (args.suite,)
    results = [SuiteResult(name) for name in suites]
    with _exit_codes():
        # Checked once, before any suite runs, whichever suites read it.
        bits = args.bits
        _require(bits is None or bits >= 1, "precision_bits must be >= 1 (got {})", bits)
        _require(args.tol > 0, "tol must be > 0 (got {})", args.tol)
        for r in results:
            _SUITES[r.suite](r, **options)

    total = sum(r.checks for r in results)
    failed = sum(len(r.failures) for r in results)
    for r in results:
        print(f"suite {r.suite}: {r.checks} checks, {len(r.failures)} failures")
        for message in r.failures[:5]:
            print(f"  FAIL {message}")
        if len(r.failures) > 5:
            print(f"  ... {len(r.failures) - 5} more")
    print(f"verify: {total} checks, {failed} failures")
    if args.out:
        payload = {
            "suites": [
                {"suite": r.suite, "checks": r.checks, "failures": r.failures}
                for r in results
            ],
            "total_checks": total,
            "total_failures": failed,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(_json(payload, indent=2) + "\n")
    _elapsed(t0)
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
        print(_json(rows, indent=2))
        return
    if not rows:
        return
    headers = list(rows[0].keys())
    if fmt == "csv":
        print(",".join(headers))
        for row in rows:
            print(",".join(str(row[h]) for h in headers))
        return
    # markdown
    print("| " + " | ".join(headers) + " |")
    print("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        print("| " + " | ".join(str(row[h]) for h in headers) + " |")


def _bounds_rows(n: int, m_range: tuple[int, int], bits: int) -> list[dict[str, Any]]:
    rows = []
    for m, big_m, big_n in ecount.counts._bound_rows(n, *m_range):
        iv = _interval_json(ecount.eform_eval(big_n, bits), bits)
        rows.append({"m": m, "M": str(big_m), "N_lo": iv["lo"], "N_hi": iv["hi"]})
    return rows


def _op_row(quantity: str, n: int, bits: int) -> dict[str, Any]:
    value = _compute_report(quantity, {"n": n, "bits": bits})["value"]
    if quantity != "frac-e-nfact":
        return {"n": n, "value": value}
    (a, b, c), iv = value["eform"], value["interval"]
    return {"n": n, "a": a, "b": b, "c": c, "lo": iv["lo"], "hi": iv["hi"]}


def cmd_table(args: argparse.Namespace) -> None:
    """Emit one row per n (or per m for the bounds table)."""
    with _exit_codes():
        if args.quantity == "bounds":
            if args.n is None:
                raise _UsageError("--n is required for the bounds table")
            rows = _bounds_rows(args.n, args.m_range, args.bits)
        else:
            if args.n_range is None:
                raise _UsageError("--n-range is required for this table")
            lo, hi = args.n_range
            rows = [_op_row(args.quantity, k, args.bits) for k in range(lo, hi + 1)]
    _emit_rows(rows, args.fmt)


# --- the command line -------------------------------------------------


def _parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Exact counts in complete graphs, certified by enclosures of e.",
        allow_abbrev=False,
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s, version {ecount.__version__}"
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    compute = commands.add_parser(
        "compute", help="Compute one quantity; see README for the op list.",
        allow_abbrev=False,
    )
    compute.add_argument("op", metavar="OP")
    compute.add_argument("--n", type=int, help="Primary size parameter.")
    compute.add_argument("--m", type=int, help="Secondary index where the op takes one.")
    compute.add_argument("--x", type=_rational, help="Rational evaluation point (p/q or integer).")
    compute.add_argument("--z", type=_rational, help="Rational lower integration limit.")
    compute.add_argument(
        "--precision-bits", dest="bits", type=int, default=96, help="(default: 96)"
    )
    compute.add_argument(
        "--tol", type=_rational, default=_DEFAULT_TOL, help="Quadrature tolerance (rational)."
    )
    compute.add_argument(
        "--format", dest="fmt", choices=("text", "json"), default="text", help="(default: text)"
    )
    compute.set_defaults(run=cmd_compute, parser=compute)

    verify = commands.add_parser(
        "verify", help="Run an identity suite; exit 0 only if every check passes.",
        allow_abbrev=False,
    )
    verify.add_argument("suite", choices=(*_SUITES, "all"), metavar="SUITE", help="%(choices)s")
    verify.add_argument("--n-range", type=_range, metavar="A..B", help="Override the n range.")
    verify.add_argument("--m-range", type=_range, metavar="A..B", help="Override the m range.")
    verify.add_argument("--precision-bits", dest="bits", type=int)
    verify.add_argument("--tol", type=_rational, default=_DEFAULT_TOL, help="(default: 1/10^9)")
    verify.add_argument(
        "--lam", "--lambda", dest="lam", type=_rational,
        help="Check floor(n!/e + lam) instead of the stock family.",
    )
    verify.add_argument("--out", type=_writable, help="Write a JSON report.")
    verify.set_defaults(run=cmd_verify, parser=verify)

    table = commands.add_parser(
        "table", help="Emit one row per n (or per m for the bounds table).",
        allow_abbrev=False,
    )
    table.add_argument(
        "quantity", choices=_TABLE_QUANTITIES, metavar="QUANTITY", help="%(choices)s"
    )
    table.add_argument("--n-range", type=_range, metavar="A..B", help="Rows over n.")
    table.add_argument("--n", type=int, help="Fixed n (bounds table).")
    table.add_argument(
        "--m-range", type=_range, default=(1, 5), metavar="A..B",
        help="Rows over m for bounds (default: 1..5).",
    )
    table.add_argument(
        "--precision-bits", dest="bits", type=int, default=96, help="(default: 96)"
    )
    table.add_argument(
        "--format", dest="fmt", choices=("csv", "json", "md"), default="csv",
        help="(default: csv)",
    )
    table.set_defaults(run=cmd_table, parser=table)
    return parser


def _bind_values(argv: list[str]) -> list[str]:
    """argv with a flag joined to a value that starts with '-', as --x=-3/2.

    Every long flag but --help and --version takes one value, the next
    word whatever it looks like.  argparse alone reads a word that starts
    with '-' as a flag unless it looks like a negative number, and before
    Python 3.13 -3/2 and -2..5 do not.
    """
    out = argv[:1]
    for word in argv[1:]:
        flag = out[-1]
        if (
            word.startswith("-")
            and flag.startswith("--")
            and "=" not in flag
            and flag not in ("--", "--help", "--version")
        ):
            out[-1] = f"{flag}={word}"
        else:
            out.append(word)
    return out


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Run the command line `args` (default: sys.argv[1:]) and exit.

    Always ends in SystemExit with the command's exit code, 0 included.
    """
    parser = _parser(prog_name or "ecount")
    ns = parser.parse_args(_bind_values(sys.argv[1:] if args is None else list(args)))
    # Counts run to tens of thousands of digits, and Python >= 3.11 refuses
    # str(int) past 4300 of them by default.  Lift that limit while the
    # command runs, and put it back when it ends.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        ns.run(ns)
        sys.stdout.flush()
    except _UsageError as exc:
        ns.parser.error(str(exc))
    except BrokenPipeError:
        # The reader of stdout went away (`ecount table ... | head`): stop
        # quietly, and point stdout at devnull so the final flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        sys.exit(1)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    sys.exit(0)


# The traced entry point of the benchmark, perfbench/cli_shim.py, calls
# `ecount.cli.main.main(args=..., prog_name=...)`, the call shape of the
# click command group that `main` once was; tests/test_cli.py pins it.
main.main = main


if __name__ == "__main__":
    main()

"""End-to-end CLI behavior, run in process by tests/cli_runner.py."""

import json
import os
import subprocess
import sys
import time
from collections import namedtuple
from decimal import Decimal, localcontext
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_runner import invoke
from ecount import certified, cli, counts, exact, oracles
from ecount.errors import InvariantViolation, PrecisionCapError


def _run(*args):
    return invoke(args)


def test_compute_derangements():
    res = _run("compute", "derangements", "--n", "5")
    assert res.exit_code == 0
    assert res.stdout == "44\n"


def _decimal(n: int) -> str:
    """str(n) with Python's int-to-str digit limit (3.11+) lifted."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(n)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_main_main_alias_runs_main_with_args_and_prog_name(capsys):
    # perfbench/cli_shim.py runs the command through this alias.
    assert cli.main.main is cli.main
    with pytest.raises(SystemExit) as exc:
        cli.main.main(args=["compute", "derangements", "--n", "5"], prog_name="ecount")
    assert exc.value.code == 0
    assert capsys.readouterr().out == "44\n"
    with pytest.raises(SystemExit) as exc:
        cli.main.main(args=["compute", "no-such-op"], prog_name="shim")
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: shim compute ")


def test_compute_derangements_past_int_digit_limit():
    # D_1700 has 4,756 digits, more than the 4300 that str(int) allows
    # by default on Python 3.11+.
    d = 1
    for k in range(1, 1701):
        d = k * d + (-1) ** k
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    res = _run("compute", "derangements", "--n", "1700")
    assert res.exit_code == 0, res.output
    assert res.stdout == _decimal(d) + "\n"
    assert len(res.stdout) == 4757
    # The limit is lifted for the command only.
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_compute_paths_dual_route():
    res = _run("compute", "paths", "--n", "4")
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "5"
    assert lines[1] == "verified=true"


def test_compute_eq6_shows_route():
    res = _run("compute", "eq6", "--n", "3")
    assert res.exit_code == 0
    assert res.stdout.splitlines()[0] == "2"
    assert "verified=true" in res.stdout


@pytest.mark.parametrize("op", ["paths", "eq2"])
def test_a_report_makes_one_string_of_its_value(op):
    # The routes agreed, and both show the value's one decimal string.
    report = cli._compute_report(op, {"n": 400})
    assert report["verified"] is True
    assert report["route_a"] is report["value"] and report["route_b"] is report["value"]
    assert list(report) == ["op", "params", "value", "verified", "route_a", "route_b"]


def test_a_report_of_disagreeing_routes_shows_both(monkeypatch):
    # counts refuses the call, naming it and both routes' values, and the
    # CLI prints no value.
    monkeypatch.setattr(counts, "derangements", lambda n: 7)
    with pytest.raises(InvariantViolation, match=r"derangement_eq2\(5\): .* 44, .* 7$"):
        cli._compute_report("eq2", {"n": 5})
    res = _run("compute", "eq2", "--n", "5")
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert res.stderr == (
        "violation: derangement_eq2(5): certified route gives 44, exact route gives 7\n"
    )


def test_a_refused_second_route_makes_no_string_of_the_value(monkeypatch):
    # floor-e-nfact at a large n: the certified route refuses at the cap
    # before the exact value, a long decimal, is ever printed.
    strings = []

    class Recorded(int):
        def __str__(self):
            strings.append(int(self))
            return super().__str__()

    def refused(*args, **kw):
        raise PrecisionCapError("floor undecided at precision cap 4 bits")

    monkeypatch.setattr(counts, "partial_sum_pos", lambda n: Recorded(326))
    monkeypatch.setattr(counts, "certified_floor", refused)
    res = _run("compute", "floor-e-nfact", "--n", "5")
    assert res.exit_code == 1
    assert "precision cap" in res.stderr
    assert strings == []


def test_floor_e_nfact_is_refused_at_the_cap_before_its_exact_route(monkeypatch):
    # counts runs the certified floor first: when it refuses, the exact
    # partial sum (here one that would fail) never runs.
    def refused(*args, **kw):
        raise PrecisionCapError("floor undecided at precision cap 4 bits")

    def never(n):
        raise AssertionError("the exact route ran before the refusal")

    monkeypatch.setattr(counts, "partial_sum_pos", never)
    monkeypatch.setattr(counts, "certified_floor", refused)
    res = _run("compute", "floor-e-nfact", "--n", "5")
    assert res.exit_code == 1
    assert "precision cap" in res.stderr
    assert "Traceback" not in res.output
    assert isinstance(res.exception, SystemExit)


# The two-route ops of `compute`, each run at n = 6.  eq5 and eq6 subtract
# floor(e*n!) from another floor, and cycle-length-sum subtracts
# floor(e*(n-1)!) from it, so their certified side is shifted only on
# floor(e*n!): shifting every floor by one would cancel.
_TWO_ROUTES = (
    "paths", "path-length-sum", "cycles", "cycle-length-sum", "floor-e-nfact",
    "eq2", "eq3", "eq4", "eq5", "eq6", "thm7",
)
_E_NFACT_ONLY = ("cycle-length-sum", "eq5", "eq6")

# Ops with one route and no `verified` line.  avg-path-length divides two
# tallies that `counts` checks, but prints no `verified` line, so the
# golden transcript stays as it is.
_SINGLE_ROUTE = (
    "derangements", "dpoly-eval", "avg-path-length", "hyp2f0", "frac-e-nfact", "inc-gamma"
)


def test_every_op_is_fault_injected_checked_or_single_route():
    lists = {
        cli._ROUTES: set(_TWO_ROUTES),
        cli._CHECKED: {name for name, op in cli._OPS.items() if op.check == cli._CHECKED},
        None: set(_SINGLE_ROUTE),
    }
    for name, op in cli._OPS.items():
        assert [check for check, names in lists.items() if name in names] == [op.check], name
    assert set().union(*lists.values()) == set(cli._OPS)


@pytest.mark.parametrize("side", ["exact", "certified"])
@pytest.mark.parametrize("op", _TWO_ROUTES)
def test_a_fault_in_either_route_is_refused(monkeypatch, op, side):
    # One route of the op is moved by one; counts must refuse the call.
    n = 6
    moved = []

    def shifted(real, applies):
        def route(*a, **kw):
            value = real(*a, **kw)
            if applies(*a):
                moved.append(value)
                return value + 1
            return value

        return route

    if side == "certified":
        e_nfact = certified.EForm(0, factorial(n), 0)
        applies = (lambda f: f == e_nfact) if op in _E_NFACT_ONLY else (lambda f: True)
        monkeypatch.setattr(counts, "certified_floor", shifted(counts.certified_floor, applies))
    else:
        route = "derangements" if op.startswith(("eq", "thm")) else "partial_sum_pos"
        monkeypatch.setattr(counts, route, shifted(getattr(counts, route), lambda k: True))
    res = _run("compute", op, "--n", str(n))
    assert moved, "the fault reached no route"
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.startswith("violation: ")
    assert "verified=true" not in res.output
    assert "Traceback" not in res.output


def test_bounds_makes_one_string_of_n_factorial(monkeypatch):
    # frac(e*n!) and every N_m have b = n!: the report converts it to
    # decimal once.  Each form gets its own copy of n!, so only equal
    # values, not shared objects, are merged.
    n, m_max = 40, 8
    strings = []

    class Recorded(int):
        def __str__(self):
            strings.append(int(self))
            return super().__str__()

    class Form(namedtuple("Form", "a b c")):  # an EForm's printed face
        def to_triple(self):
            return tuple(str(q) for q in self)

    def recorded(f):
        assert f.b == factorial(n)
        return Form(f.a, Recorded(factorial(n)), f.c)

    real = counts.chain_check
    plain = cli._compute_report("bounds", {"n": n, "m": m_max})["value"]

    def chain_check(n, m):
        chain = real(n, m)
        return chain._replace(
            frac=recorded(chain.frac),
            m_list=tuple((m, big_m, recorded(big_n)) for m, big_m, big_n in chain.m_list),
        )

    monkeypatch.setattr(counts, "chain_check", chain_check)
    report = cli._compute_report("bounds", {"n": n, "m": m_max})
    assert report["value"] == plain
    assert strings == [factorial(n)]


def test_compute_json_format():
    res = _run("compute", "derangements", "--n", "8", "--format", "json")
    data = json.loads(res.stdout)
    assert data["op"] == "derangements"
    assert data["value"] == "14833"


def test_unknown_op_is_usage_error():
    res = _run("compute", "no-such-op", "--n", "3")
    assert res.exit_code == 2


def test_domain_error_exit_code():
    res = _run("compute", "paths", "--n", "2")
    assert res.exit_code == 3
    assert "n >= 3" in res.stderr


def test_missing_param_is_usage_error():
    res = _run("compute", "paths")
    assert res.exit_code == 2


def test_rational_option_rejects_floats():
    res = _run("compute", "dpoly-eval", "--n", "3", "--x", "0.5")
    assert res.exit_code == 2
    res = _run("compute", "dpoly-eval", "--n", "3", "--x", "1/2")
    assert res.exit_code == 0
    assert res.stdout == "79/8\n"


# --- argparse pitfalls ------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        ("dpoly-eval", "--n", "3", "--x", "-3/2"),
        ("dpoly-eval", "--n", "3", "--x=-3/2"),
        ("inc-gamma", "--n", "3", "--z", "-1/2"),
    ],
)
def test_a_negative_rational_is_a_value_not_a_flag(args):
    # argparse before Python 3.13 takes a word starting with '-' for a flag
    # unless it reads as a negative number, and -3/2 does not.
    res = _run("compute", *args)
    assert res.exit_code == 0, res.stderr
    if args[0] == "dpoly-eval":
        assert res.stdout == "3/8\n"  # D_3(-3/2) = 6 - 9 + 27/4 - 27/8
    else:
        assert res.stdout == _run("compute", "inc-gamma", "--n", "3", "--z=-1/2").stdout
        assert res.stdout.startswith("[5.976614606287964532326359105826, ")


@pytest.mark.parametrize(
    "args",
    [
        ("compute", "dpoly-eval", "--n", "3", "--x", "1/0"),
        ("compute", "inc-gamma", "--n", "3", "--z", "-1/0"),
        ("compute", "integrals", "--n", "1", "--tol=1/0"),
        ("verify", "derangement-family", "--lam", "1/0"),
    ],
)
def test_a_zero_denominator_is_a_usage_error(args):
    # argparse turns only ValueError and TypeError from a type into a usage
    # error; Fraction raises ZeroDivisionError.
    res = _run(*args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "has a zero denominator" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ("compute", "derangements", "--n", "5", "--prec", "40"),
        ("compute", "derangements", "--n", "5", "--form", "json"),
        ("compute", "derangements", "--n", "5", "--precision=40"),
        ("verify", "eq1", "--n-r", "1..3"),
        ("verify", "derangement-family", "--lamb", "0"),
        ("table", "derangements", "--n-range", "0..3", "--fo", "json"),
    ],
)
def test_an_abbreviated_flag_is_a_usage_error(args):
    res = _run(*args)
    assert res.exit_code == 2
    assert "unrecognized arguments" in res.stderr
    assert res.stdout == ""


def test_lam_and_lambda_are_one_flag():
    lam = _run("verify", "derangement-family", "--lam", "1/2", "--n-range", "1..6")
    lambda_ = _run("verify", "derangement-family", "--lambda", "1/2", "--n-range", "1..6")
    assert lam.exit_code == lambda_.exit_code == 0
    assert lam.stdout == lambda_.stdout == (
        "suite derangement-family: 6 checks, 0 failures\nverify: 6 checks, 0 failures\n"
    )
    failing = _run("verify", "derangement-family", "--lambda", "0", "--n-range", "1..6")
    assert failing.exit_code == 1
    assert failing.stdout == _run(
        "verify", "derangement-family", "--lam", "0", "--n-range", "1..6"
    ).stdout


def test_compute_integrals_text():
    res = _run("compute", "integrals", "--n", "1")
    assert res.exit_code == 0


def test_integrals_at_negative_precision_bits_is_a_domain_error():
    # The bits only set the printed digits, so the CLI refuses them itself.
    res = _run("compute", "integrals", "--n", "3", "--precision-bits", "-5")
    assert res.exit_code == 3
    assert res.stdout == ""
    assert "domain error: precision_bits must be >= 0 (got -5)" in res.stderr


def test_elapsed_goes_to_stderr():
    res = _run("compute", "derangements", "--n", "3")
    assert "elapsed_ms" not in res.stdout
    assert "# elapsed_ms=" in res.stderr


def test_stdout_byte_deterministic():
    a = _run("compute", "integrals", "--n", "3", "--format", "json")
    b = _run("compute", "integrals", "--n", "3", "--format", "json")
    assert a.stdout == b.stdout
    c = _run("verify", "paths-cycles", "--n-range", "3..12")
    d = _run("verify", "paths-cycles", "--n-range", "3..12")
    assert c.stdout == d.stdout


def test_verify_eq1_small():
    res = _run("verify", "eq1", "--n-range", "1..40")
    assert res.exit_code == 0
    assert "suite eq1: 40 checks, 0 failures" in res.stdout


def test_verify_lambda_counterexample():
    res = _run("verify", "derangement-family", "--lambda", "0", "--n-range", "1..6")
    assert res.exit_code == 1
    first_fail = next(l for l in res.stdout.splitlines() if "FAIL" in l)
    assert "n=2" in first_fail


def test_verify_out_report(tmp_path):
    out = tmp_path / "report.json"
    res = _run("verify", "eq1", "--n-range", "1..10", "--out", str(out))
    assert res.exit_code == 0
    data = json.loads(out.read_text())
    assert data["total_checks"] == 10
    assert data["total_failures"] == 0


def test_verify_unknown_suite():
    res = _run("verify", "bogus")
    assert res.exit_code == 2


def test_table_derangements_csv():
    res = _run("table", "derangements", "--n-range", "0..10")
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "n,value"
    assert lines[-1] == "10,1334961"


def test_table_paths_json():
    res = _run("table", "paths", "--n-range", "3..8", "--format", "json")
    rows = json.loads(res.stdout)
    assert len(rows) == 6
    assert rows[0] == {"n": 3, "value": "2"}


@pytest.mark.parametrize("quantity", [q for q in cli._TABLE_QUANTITIES if q != "bounds"])
def test_a_table_row_is_the_value_compute_reports(quantity):
    res = _run("table", quantity, "--n-range", "3..8", "--format", "json")
    assert res.exit_code == 0
    rows = json.loads(res.stdout)
    for n, row in zip(range(3, 9), rows, strict=True):
        report = json.loads(_run("compute", quantity, "--n", str(n), "--format", "json").stdout)
        if quantity == "frac-e-nfact":
            value = report["value"]
            (a, b, c), iv = value["eform"], value["interval"]
            assert row == {"n": n, "a": a, "b": b, "c": c, "lo": iv["lo"], "hi": iv["hi"]}
        else:
            assert row == {"n": n, "value": report["value"]}


def test_table_bounds_md_monotone():
    res = _run("table", "bounds", "--n", "5", "--m-range", "1..5", "--format", "md")
    assert res.exit_code == 0
    from fractions import Fraction

    rows = [l for l in res.stdout.splitlines() if l.startswith("|") and "---" not in l]
    ms = [Fraction(r.split("|")[2].strip()) for r in rows[1:]]
    assert ms == sorted(ms, reverse=True)


def test_table_requires_range():
    res = _run("table", "derangements")
    assert res.exit_code == 2


def test_table_bad_range():
    res = _run("table", "derangements", "--n-range", "9..3")
    assert res.exit_code == 2


def test_precision_cap_env(monkeypatch):
    monkeypatch.setenv("ECOUNT_PRECISION_CAP", "4")
    res = _run("compute", "floor-e-nfact", "--n", "5")
    assert res.exit_code == 1
    assert "violation" in res.stderr


_SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_verify_past_the_precision_cap_is_a_violation():
    # Run in a fresh interpreter so an escaped exception would show as a
    # real traceback on stderr.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", "from ecount.cli import main; main()",
         "verify", "special-fn", "--n-range", "0..0", "--precision-bits", "2000000"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert "violation: " in proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def test_verify_special_fn_refuses_zero_precision_bits():
    # An explicit --precision-bits 0 is refused, not replaced by the default.
    res = _run("verify", "special-fn", "--n-range", "0..1", "--precision-bits", "0")
    assert res.exit_code == 3
    assert "precision_bits must be >= 1 (got 0)" in res.stderr


@pytest.mark.parametrize("bits", [30, 60])
def test_verify_special_fn_holds_hyp1f1_to_the_width_it_asked_for(monkeypatch, bits):
    # hyp1f1 promises width <= 2^-bits: at 30 bits its honest intervals
    # pass, and at 60 bits one twice that wide is a failure.
    from ecount import specials

    res = _run("verify", "special-fn", "--n-range", "0..1", "--precision-bits", str(bits))
    assert res.exit_code == 0, res.stdout
    assert "FAIL" not in res.stdout
    honest = specials.hyp1f1

    def wide(n, x, precision_bits):
        iv = honest(n, x, precision_bits)
        return certified.IntervalReal(iv.lo, iv.lo + Fraction(2, 1 << precision_bits))

    monkeypatch.setattr(specials, "hyp1f1", wide)
    res = _run("verify", "special-fn", "--n-range", "0..1", "--precision-bits", str(bits))
    assert res.exit_code == 1
    assert f"FAIL hyp1f1 n=0 x=1/2: width {2.0**(1 - bits)} > 2^-{bits}" in res.stdout


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "eq1", "--n-range", "1..2", "--precision-bits", "-5"),
        ("verify", "all", "--precision-bits", "0"),
    ],
)
def test_verify_refuses_precision_bits_below_one_before_any_suite(monkeypatch, args):
    ran = []
    for name in cli._SUITES:
        monkeypatch.setitem(cli._SUITES, name, lambda r, **_: ran.append(r.suite))
    res = _run(*args)
    assert res.exit_code == 3
    assert ran == []
    assert "suite" not in res.stdout
    assert f"domain error: precision_bits must be >= 1 (got {args[-1]})" in res.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "eq1", "--tol", "0"),
        ("verify", "all", "--tol", "0"),
        ("verify", "all", "--tol", "-1/3"),
    ],
)
def test_verify_refuses_a_tol_of_zero_or_less_before_any_suite(monkeypatch, args):
    ran = []
    for name in cli._SUITES:
        monkeypatch.setitem(cli._SUITES, name, lambda r, **_: ran.append(r.suite))
    res = _run(*args)
    assert res.exit_code == 3
    assert ran == []
    assert "suite" not in res.stdout
    assert res.stderr == f"domain error: tol must be > 0 (got {args[-1]})\n"


@pytest.mark.parametrize(
    "args", [("compute", "floor-e-nfact", "--n", "0"), ("table", "floor-e-nfact", "--n-range", "0..2")]
)
def test_floor_e_nfact_below_one_is_refused_in_its_own_terms(monkeypatch, args):
    # Refused before either route runs, naming the op, not the exact
    # route's partial_sum_pos.
    def never(*a, **kw):
        raise AssertionError("a route ran on n = 0")

    monkeypatch.setattr(counts, "partial_sum_pos", never)
    monkeypatch.setattr(counts, "certified_floor", never)
    res = _run(*args)
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == "domain error: floor_e_nfact requires n >= 1 (got 0)\n"


def test_verify_quadrature_budget_overrun_is_a_violation(monkeypatch):
    monkeypatch.setattr(oracles, "_EVAL_BUDGET", 3)
    res = _run("verify", "special-fn", "--n-range", "1..1")
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "violation: " in res.stderr
    assert "Traceback" not in res.output


def test_verify_out_to_an_unwritable_path_is_a_usage_error(tmp_path):
    out = tmp_path / "missing" / "x.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", "from ecount.cli import main; main()",
         "verify", "paths-cycles", "--n-range", "3..3", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert str(out) in proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stdout + proc.stderr


def test_verify_out_to_a_directory_is_a_usage_error(tmp_path):
    res = _run("verify", "eq1", "--n-range", "1..2", "--out", str(tmp_path))
    assert res.exit_code == 2
    assert "is a directory" in res.stderr


def test_verify_out_to_an_empty_path_is_a_usage_error(monkeypatch):
    ran = []
    monkeypatch.setitem(cli._SUITES, "eq1", lambda r, **_: ran.append(r.suite))
    res = _run("verify", "eq1", "--out", "")
    assert res.exit_code == 2
    assert "cannot write ''" in res.stderr
    assert ran == [] and res.stdout == ""


def test_a_reader_that_stops_early_ends_the_command_quietly():
    # As in `ecount table ... | head -1`: the rows run to megabytes, far
    # past a pipe's buffer, and the reader closes after one line.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-c", "from ecount.cli import main; main()",
         "table", "derangements", "--n-range", "0..2000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"n,value\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""


def test_verify_refuses_an_unwritable_path_before_any_suite(monkeypatch, tmp_path):
    ran = []
    monkeypatch.setitem(cli._SUITES, "eq1", lambda r, **_: ran.append(r.suite))
    res = _run("verify", "eq1", "--out", str(tmp_path / "missing" / "x.json"))
    assert res.exit_code == 2
    assert ran == []
    res = _run("verify", "eq1", "--out", str(tmp_path / "x.json"))
    assert res.exit_code == 0
    assert ran == ["eq1"]


def test_verify_reports_a_violation_a_suite_does_not_catch(monkeypatch):
    def broken(n, *args, **kwargs):
        raise InvariantViolation(f"broken at n={n}")

    monkeypatch.setattr(counts, "average_path_length", broken)
    res = _run("verify", "paths-cycles", "--n-range", "3..4")
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "violation: broken at n=3" in res.stderr


@pytest.mark.parametrize(
    "args, floors",
    [
        (("compute", "paths", "--n", "40"), 1),
        (("compute", "cycles", "--n", "40"), 1),
        (("compute", "path-length-sum", "--n", "40"), 1),
        (("compute", "avg-path-length", "--n", "40"), 1),
        (("compute", "cycle-length-sum", "--n", "40"), 2),
        (("compute", "floor-e-nfact", "--n", "40"), 1),
        (("table", "paths", "--n-range", "3..12"), 10),
        (("verify", "paths-cycles", "--n-range", "3..60"), 4 * 58),
    ],
)
def test_each_certified_floor_runs_once(monkeypatch, args, floors):
    calls = []
    real = certified.certified_floor

    def counted(*a, **kw):
        calls.append(a)
        return real(*a, **kw)

    monkeypatch.setattr(certified, "certified_floor", counted)
    monkeypatch.setattr(counts, "certified_floor", counted)
    res = _run(*args)
    assert res.exit_code == 0, res.output
    assert len(calls) == floors


_RATIONALS = st.none() | st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))


@settings(max_examples=200, deadline=None)
@given(
    op=st.sampled_from(sorted(cli._OPS)),
    n=st.none() | st.integers(-2, 12),
    m=st.none() | st.integers(-1, 6),
    x=_RATIONALS,
    z=_RATIONALS,
    bits=st.integers(-2, 128),
    fmt=st.sampled_from(["text", "json"]),
)
def test_compute_contract_fuzz(op, n, m, x, z, bits, fmt):
    # Every input gets an answer or a typed error, promptly.
    args = ["compute", op, f"--precision-bits={bits}", f"--format={fmt}"]
    _assert_contract(args, (("--n", n), ("--m", m), ("--x", x), ("--z", z)))


def _assert_contract(args, flags):
    """Run args plus each flag that has a value: the call ends promptly
    with an answer or a typed error."""
    args = args + [f"{flag}={value}" for flag, value in flags if value is not None]
    t0 = time.monotonic()
    res = invoke(args)
    assert time.monotonic() - t0 < 5.0, args
    assert res.exit_code in (0, 1, 2, 3), (args, res.output)
    assert res.exception is None or isinstance(res.exception, SystemExit), args
    assert "Traceback" not in res.output


# Range flags as RangeParam reads them, ends in -2..12 and in either
# order, so empty ranges and every suite's lower clamps are reached.
_RANGE = st.builds("{}..{}".format, st.integers(-2, 12), st.integers(-2, 12))


@settings(max_examples=25, deadline=None)
@given(
    suite=st.sampled_from(sorted(cli._SUITES) + ["all"]),
    n_range=_RANGE,
    m_range=st.none() | _RANGE,
)
def test_verify_contract_fuzz(suite, n_range, m_range):
    _assert_contract(["verify", suite], (("--n-range", n_range), ("--m-range", m_range)))


@settings(max_examples=60, deadline=None)
@given(
    quantity=st.sampled_from(cli._TABLE_QUANTITIES),
    n_range=st.none() | _RANGE,
    n=st.none() | st.integers(-2, 12),
    m_range=st.none() | _RANGE,
    fmt=st.sampled_from(["csv", "json", "md"]),
)
def test_table_contract_fuzz(quantity, n_range, n, m_range, fmt):
    flags = (("--n-range", n_range), ("--n", n), ("--m-range", m_range))
    _assert_contract(["table", quantity, f"--format={fmt}"], flags)


@pytest.mark.parametrize("error", (MemoryError(), RecursionError("maximum recursion depth exceeded")))
@pytest.mark.parametrize(
    "args",
    [
        ("compute", "derangements", "--n", "5"),
        ("verify", "derangement-family", "--n-range", "1..3"),
        ("table", "derangements", "--n-range", "1..3"),
    ],
)
def test_running_out_of_memory_or_stack_is_a_violation(monkeypatch, args, error):
    # The library call fails as an exhausted process would, without
    # allocating anything; the CLI reports it as a typed violation.
    def exhausted(n):
        raise error

    # compute and table read derangements from exact; the derangement-family
    # suite checks its forms against the one counts reads.
    monkeypatch.setattr(exact, "derangements", exhausted)
    monkeypatch.setattr(counts, "derangements", exhausted)
    res = _run(*args)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert f"violation: out of resources ({type(error).__name__}" in res.stderr
    assert "Traceback" not in res.output


def test_an_interrupt_ends_the_command_with_exit_code_1(monkeypatch):
    def interrupted(n):
        raise KeyboardInterrupt

    monkeypatch.setattr(exact, "derangements", interrupted)
    res = _run("compute", "derangements", "--n", "5")
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stderr == "\nAborted!\n"


def test_table_past_the_precision_cap_is_a_violation(monkeypatch):
    monkeypatch.setenv("ECOUNT_PRECISION_CAP", "2")
    res = _run("table", "paths", "--n-range", "3..5")
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "violation: " in res.stderr
    assert res.stdout == ""


# --- large arguments to the special functions ----------------------------

# Each probe below timed out at 20 s before exp_enclosure reduced its
# argument; the bound is generous for a 2-vCPU machine.
_PROBE_SECONDS = 10.0
_PROBE_DIGITS = 1500


_PROBE_ADDRESS_SPACE = 800 << 20


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (_PROBE_ADDRESS_SPACE, _PROBE_ADDRESS_SPACE))


def _compute_in_child(*args):
    """`ecount compute ... --format json` in a fresh interpreter whose
    address space is limited in the child only; (process, seconds)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", "from ecount.cli import main; main()",
         "compute", *args, "--format", "json"],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=_limit_address_space,
    )
    return proc, time.monotonic() - t0


def _timed_compute(*args):
    t0 = time.monotonic()
    res = _run("compute", *args, "--format", "json")
    return res, time.monotonic() - t0


def _d_poly(n: int, x: int) -> int:
    return sum(factorial(n) // factorial(k) * x**k for k in range(n + 1))


def _exp_times(x: int, factor: int) -> tuple[Fraction, Fraction]:
    """e^x * factor in decimal, with an allowance for its rounding."""
    with localcontext() as ctx:
        ctx.prec = _PROBE_DIGITS
        v = Fraction(Decimal(x).exp() * factor)
    return v, abs(v) / 10 ** (_PROBE_DIGITS - 5)


@pytest.mark.parametrize(
    "op, n, arg",
    [("inc-gamma", 3, 2000), ("inc-gamma", 3, -2000), ("hyp1f1", 2, 3000), ("hyp1f1", 2, -3000)],
)
def test_large_argument_probes_answer_in_time(op, n, arg):
    flag = "--z" if op == "inc-gamma" else "--x"
    res, seconds = _timed_compute(op, "--n", str(n), flag, str(arg))
    assert res.exit_code == 0, res.output
    assert seconds < _PROBE_SECONDS
    value = json.loads(res.stdout)["value"]
    lo, hi = Fraction(value["lo"]), Fraction(value["hi"])
    # Gamma(n+1, z) = e^-z D_n(z); hyp1f1 = (n+1) (n! - e^-x D_n(x)) / x^(n+1)
    v, err = _exp_times(-arg, _d_poly(n, arg))
    if op == "hyp1f1":
        scale = Fraction(n + 1, arg ** (n + 1))
        v, err = (factorial(n) - v) * scale, err * abs(scale)
    assert lo <= v + err and v - err <= hi


@pytest.mark.parametrize(
    "op, flag, arg",
    [
        ("inc-gamma", "--z", "1000000"),
        ("inc-gamma", "--z", "-1000000"),
        ("hyp1f1", "--x", "1000000"),
        ("hyp1f1", "--x", "-1000000"),
        # Died with MemoryError after 6.9 s while it built 10^8-bit
        # brackets of e; the enclosures now refuse before any work.
        ("frac-e-nfact", "--precision-bits", "100000000"),
    ],
)
def test_huge_argument_probes_hit_the_precision_cap(op, flag, arg):
    # In a child with a limited address space: a cap check that let the
    # work start fails here, by MemoryError or the timeout, instead of
    # growing without bound.
    proc, seconds = _compute_in_child(op, "--n", "3", flag, arg)
    assert proc.returncode == 1
    assert seconds < _PROBE_SECONDS
    assert "precision cap" in proc.stderr


# --- large sizes for the counting sums ------------------------------------


@pytest.mark.parametrize("op", ["paths", "cycles"])
def test_large_count_probes_answer_in_time(op):
    # Each probe timed out at 30 s while every term was its own factorial
    # quotient, and peaked at 958 MB while one table growth filled the
    # factorial, partial-sum and derangement tables at once; now the
    # exact route reads S_{n-2} or S_{n-1} by one binary split from the
    # mark at 4096 and stores nothing above it.
    proc, seconds = _compute_in_child(op, "--n", "20000")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verified"] is True
    assert seconds < _PROBE_SECONDS


_BIG = "100000000000000000000"


@pytest.mark.parametrize(
    "args, call, size",
    [
        pytest.param(("eq2", "--n", _BIG), "derangement_eq2", "n", id="eq2"),
        pytest.param(("paths", "--n", _BIG), "path_count", "n", id="paths"),
        pytest.param(("derangements", "--n", _BIG), "derangements", "n", id="derangements"),
        pytest.param(("frac-e-nfact", "--n", _BIG), "frac_e_nfact", "n", id="frac-e-nfact"),
        pytest.param(("integrals", "--n", _BIG), "integral_identities", "n", id="integrals"),
        pytest.param(("dpoly-eval", "--n", _BIG, "--x", "1/2"), "dpoly_eval", "n", id="dpoly-eval"),
        pytest.param(("hyp2f0", "--n", _BIG, "--x", "1/2"), "hyp2f0", "n", id="hyp2f0"),
        pytest.param(("hyp1f1", "--n", _BIG, "--x", "-1/2"), "hyp1f1", "n", id="hyp1f1"),
        pytest.param(("inc-gamma", "--n", _BIG, "--z", "-1/2"), "inc_gamma_int", "n", id="inc-gamma"),
        pytest.param(("eq5", "--n", "10", "--m", _BIG), "derangement_eq5", "m", id="eq5-m"),
        pytest.param(("thm7", "--n", "10", "--m", _BIG), "derangement_thm7", "m", id="thm7-m"),
    ],
)
def test_counts_past_sys_maxsize_are_domain_errors(args, call, size):
    # eq2, paths and integrals ended in an OverflowError traceback from
    # math.factorial, derangements and frac-e-nfact ran past any timeout;
    # then paths was refused in the name of factorial at n - 2, and the
    # other six ran past a 5 s timeout.  Each is now refused in the name
    # of the library call the op makes.
    proc, seconds = _compute_in_child(*args)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.splitlines()[0] == (
        f"domain error: {call} requires {size} <= {sys.maxsize} (got {_BIG})"
    )
    assert "Traceback" not in proc.stderr
    assert seconds < _PROBE_SECONDS


def test_a_5000_digit_cap_gets_the_library_verdict(monkeypatch):
    # main lifts Python's int digit limit; the cap's length rule does not
    # depend on it, so the CLI refuses what a library call refuses.
    monkeypatch.setenv("ECOUNT_PRECISION_CAP", "1" * 5000)
    proc, _ = _compute_in_child("eq2", "--n", "5")
    assert proc.returncode == 3, proc.stdout
    assert proc.stderr.startswith("domain error: ECOUNT_PRECISION_CAP must be")
    assert "(got a string of 5000 characters)" in proc.stderr


def test_an_inc_gamma_refusal_names_inc_gamma_int():
    proc, _ = _compute_in_child("inc-gamma", "--n", "3", "--z", "-1000000")
    assert proc.returncode == 1
    assert proc.stderr.startswith("violation: inc_gamma_int at n=3, z=-1000000 needs ")


@pytest.mark.parametrize("op", ["paths", "cycle-length-sum"])
def test_count_probes_past_the_cap_are_refused_before_the_sum(op):
    # The certified floor at n = 10^5 is refused at the precision cap.
    # It runs before the exact sum, so the refusal costs no sum: 3.4 s
    # (paths) and 7.1 s (cycle-length-sum) while an O(n) sum ran first.
    proc, seconds = _compute_in_child(op, "--n", "100000")
    assert proc.returncode == 1
    assert "precision cap" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert seconds < 2.0


def test_large_bounds_probe_answers_in_time():
    # 4.6 s while each bound summed one product per term.
    res, seconds = _timed_compute("bounds", "--n", "2", "--m", "400")
    assert res.exit_code == 0, res.output
    assert seconds < 1.0

"""Deterministic inputs and independent reference values."""

import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

import cold_cli
import reference
import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_operations(workload):
    a = workloads.op_list(workload, 7, 20)
    b = workloads.op_list(workload, 7, 20)
    assert a == b
    assert json.loads(json.dumps(a)) == [list(map(_jsonable, op)) for op in a]


def _jsonable(x):
    return list(map(_jsonable, x)) if isinstance(x, tuple) else x


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_operations(workload):
    assert workloads.op_list(workload, 7, 20) != workloads.op_list(workload, 8, 20)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_cycle_meets_the_same_sizes(workload):
    kinds, _ = workloads._SPEC[workload]
    rungs = workloads.LADDER[workload]

    def sizes(seed):
        cycle = workloads.op_list(workload, seed, 1)
        assert sorted(op[0] for op in cycle) == sorted(k for k in kinds for _ in range(rungs))
        return sorted((op[0], op[1]) for op in cycle if isinstance(op[1], int))

    assert sizes(1) == sizes(2)


def test_floor_sizes_span_the_range():
    ns = [op[1] for op in workloads.op_list("floor_sweep", 11, 1) if op[0] == "eq1"]
    assert min(ns) < 2 and max(ns) > 3000
    assert all(1 <= n <= workloads.FLOOR_N_MAX for n in ns)


def test_cold_cli_inputs_are_all_pinned_or_failing():
    pins = cold_cli.load_pins()
    known = {cold_cli.pin_key(workloads.cli_argv(op)) for op in workloads.all_cli_ops()}
    assert set(pins) <= known
    generated = {cold_cli.pin_key(workloads.cli_argv(op)) for op in workloads.op_list("cold_cli", 5, 3)}
    assert generated <= known


def test_recurrences_match_closed_forms():
    ref = reference.Recurrences()
    for n in list(range(0, 30)) + [255, 256, 257, 700]:
        d = sum((-1) ** k * (math.factorial(n) // math.factorial(k)) for k in range(n + 1))
        s = sum(math.factorial(n) // math.factorial(k) for k in range(n + 1))
        assert ref.d(n) == d
        assert ref.s(n) == s
    assert [ref.paths(n) for n in (3, 4, 5)] == [2, 5, 16]
    assert [ref.cycles(n) for n in (3, 4)] == [2, 12]


def test_decimal_floor_matches_e():
    with localcontext() as ctx:
        ctx.prec = 80
        e = Decimal(1).exp()
        want = math.floor(e * math.factorial(30))
    assert reference.eform_floor_sign(Fraction(0), Fraction(math.factorial(30)), Fraction(0)) == (want, 1)
    assert reference.eform_floor_sign(Fraction(-3), Fraction(1), Fraction(0)) == (-1, -1)


def test_dpoly_reference():
    x = Fraction(1, 2)
    assert reference.dpoly(3, x) == Fraction(79, 8)
    assert reference.dpoly(5, Fraction(-1)) == 44


def _call(code, out=b"", err=b""):
    return cold_cli.Call(code, out, err, 0.1, 1000)


def test_cli_failures_are_classified_from_stderr():
    ref = reference.Recurrences()
    op = ("eq2", 7)
    right = f"{ref.d(7)}\nverified=true\nroutes agree on {ref.d(7)}\n".encode()
    wrong = right.replace(b"1854", b"1855")
    trace = b"Traceback (most recent call last):\n  ...\nValueError: Exceeds the limit\n"
    assert cold_cli.classify(op, _call(0, right), {}, ref) == "ok"
    assert cold_cli.classify(op, _call(0, wrong), {}, ref) == "wrong"
    assert cold_cli.classify(op, _call(1, err=trace), {}, ref) == "traceback"
    assert cold_cli.classify(op, _call(1, err=b"violation: routes disagree\n"), {}, ref) == "typed_error"
    assert cold_cli.classify(op, _call(3, err=b"domain error: n >= 1\n"), {}, ref) == "typed_error"
    assert cold_cli.classify(op, _call(None), {}, ref) == "deadline"


def test_cli_output_must_match_its_pin():
    ref = reference.Recurrences()
    op = ("derangements", 5)
    out = b"44\n"
    key = cold_cli.pin_key(workloads.cli_argv(op))
    assert cold_cli.classify(op, _call(0, out), {key: "0" * 64}, ref) == "wrong"

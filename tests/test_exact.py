"""Integer-arithmetic layer: factorials, partial sums, derangements,
and the derangement polynomial."""

import hashlib
import math
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecount import certified, exact
from ecount.errors import DomainError
from ecount.exact import (
    DerangementPoly,
    derangements,
    dpoly,
    dpoly_eval,
    factorial,
    partial_sum_pos,
)

# OEIS A000166, frozen.
DERANGEMENTS = [1, 0, 1, 2, 9, 44, 265, 1854, 14833, 133496, 1334961]

# S_n = sum_{i<=n} n!/i!, frozen from S_0 = 1, S_k = k*S_{k-1} + 1
# (OEIS A000522 from n = 1 on).
PARTIAL_SUMS = [2, 5, 16, 65, 326, 1957, 13700, 109601, 986410, 9864101]


@pytest.mark.parametrize("n,expected", list(enumerate(DERANGEMENTS)))
def test_derangements_frozen(n, expected):
    assert derangements(n) == expected


@pytest.mark.parametrize("n,expected", list(enumerate(PARTIAL_SUMS, start=1)))
def test_partial_sum_frozen(n, expected):
    assert partial_sum_pos(n) == expected


def test_partial_sum_closed_form():
    for n in range(1, 40):
        assert partial_sum_pos(n) == sum(
            factorial(n) // factorial(i) for i in range(n + 1)
        )


def test_derangements_closed_form():
    # D_n = n! * sum (-1)^i / i! is an integer identity after clearing
    # denominators.
    for n in range(40):
        total = sum(
            (-1) ** i * factorial(n) // factorial(i) for i in range(n + 1)
        )
        assert derangements(n) == total


def test_domain_errors():
    with pytest.raises(DomainError):
        factorial(-1)
    with pytest.raises(DomainError):
        derangements(-1)
    with pytest.raises(DomainError):
        partial_sum_pos(0)


@given(st.integers(min_value=1, max_value=300))
def test_recurrence_consistency(n):
    assert derangements(n) == n * derangements(n - 1) + (-1) ** n
    if n == 1:
        assert partial_sum_pos(1) == 2
    else:
        assert partial_sum_pos(n) == n * partial_sum_pos(n - 1) + 1


@given(st.integers(min_value=0, max_value=200))
def test_derangement_partial_sum_sum(n):
    # D_n + (n choose 1) D_{n-1} + ... counts all permutations, i.e.
    # sum_k C(n,k) D_{n-k} = n!.
    import math

    total = sum(math.comb(n, k) * derangements(n - k) for k in range(n + 1))
    assert total == factorial(n)


def test_dpoly_coefficients():
    # coeffs[i] is the coefficient of x^i, i.e. n!/i!.
    p = dpoly(4)
    assert p.coeffs == (24, 24, 12, 4, 1)
    assert dpoly(0).coeffs == (1,)
    assert dpoly(1).coeffs == (1, 1)


def test_dpoly_eval_points():
    # D_n(-1) is the derangement number, D_n(1) the partial sum.
    for n in range(12):
        assert dpoly_eval(n, -1) == derangements(n)
    for n in range(1, 10):
        assert dpoly_eval(n, 1) == partial_sum_pos(n)


def test_dpoly_eval_rational():
    # D_2(x) = x^2 + 2x + 2 at x = 1/2.
    assert dpoly_eval(2, Fraction(1, 2)) == Fraction(13, 4)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=120),
    st.fractions(max_denominator=10**6).filter(lambda x: abs(x) <= 10**6),
)
def test_dpoly_eval_matches_coefficient_form(n, x):
    # The one-pass integer evaluation against Horner's rule on the
    # coefficient form.
    assert dpoly_eval(n, x) == dpoly(n).eval(x)


def test_dpoly_derivative_is_shift():
    # d/dx D_n(x) = n * D_{n-1}(x) coefficientwise.
    for n in range(1, 20):
        d = DerangementPoly(n, dpoly(n).coeffs).derivative_coeffs()
        scaled = tuple(n * c for c in dpoly(n - 1).coeffs)
        assert d == scaled


@pytest.mark.parametrize("n", range(0, 51))
def test_ode_identity(n):
    # D_n(x) - D_n'(x) = x^n, checked on exact coefficient tuples.
    p = dpoly(n)
    deriv = p.derivative_coeffs() + (0,)
    diff = tuple(a - b for a, b in zip(p.coeffs, deriv))
    assert diff == (0,) * n + (1,)


def test_dpoly_rejects_negative():
    with pytest.raises(DomainError, match=r"^dpoly requires n >= 0 \(got -1\)$"):
        dpoly(-1)
    with pytest.raises(DomainError, match=r"^dpoly_eval requires n >= 0 \(got -1\)$"):
        dpoly_eval(-1, Fraction(1, 2))


# --- marks and split blocks ----------------------------------------------

N0 = exact._N0
# (x, function, marks) for T_n = sum_{i<=n} x^i * n!/i!
_SEQUENCES = (
    (0, factorial, "_FACT_MARKS"),
    (1, partial_sum_pos, "_PSUM_MARKS"),
    (-1, derangements, "_DER_MARKS"),
)


def _loop(x, n):
    """T_n by the plain recurrence T_0 = 1, T_k = k*T_{k-1} + x^k."""
    t = 1
    for k in range(1, n + 1):
        t = k * t + x**k
    return t


def _loops(x, n_max):
    """[T_0, ..., T_{n_max}] by the same plain recurrence."""
    values = [1]
    for k in range(1, n_max + 1):
        values.append(k * values[-1] + x**k)
    return values


@pytest.fixture
def empty_marks(monkeypatch):
    for _, _, name in _SEQUENCES:
        monkeypatch.setattr(exact, name, [1])


def test_marks_sit_below_512_and_at_every_8th_n_through_n0(empty_marks):
    want = list(range(512)) + list(range(512, N0 + 1, 8))
    for x, fn, name in _SEQUENCES:
        fn(N0)
        values = _loops(x, N0)
        assert getattr(exact, name) == [values[n] for n in want]


@pytest.mark.parametrize("x,fn,name", _SEQUENCES, ids=[s[2] for s in _SEQUENCES])
def test_sequences_agree_with_plain_loops(empty_marks, x, fn, name):
    values = _loops(x, N0 + 1)
    # first fill in order through 600, then read every residue mod 8
    # around marks, and the edges of the dense range and of N0
    indices = list(range(1 if x == 1 else 0, 601)) + [511, 512, 513]
    indices += list(range(1024, 1041)) + [N0 - 1, N0, N0 + 1, 2047, 2048, 2049, 600, 3]
    for n in indices:
        assert fn(n) == values[n], n
    for n in (5000, 20000):
        assert fn(n) == _loop(x, n), n


@settings(max_examples=60, deadline=None)
@given(
    x=st.sampled_from([-1, 0, 1]),
    lo=st.integers(0, 5000),
    steps=st.integers(0, 4 * exact._LEAF + 3),
)
@example(x=-1, lo=4095, steps=1000)
@example(x=1, lo=0, steps=4097)
@example(x=-1, lo=1, steps=4097)
def test_a_split_block_is_the_recurrence(x, lo, steps):
    hi = lo + steps
    p, r = exact._block(lo, hi, x)
    values = _loops(x, hi)
    assert p == math.prod(range(lo + 1, hi + 1))
    assert p * values[lo] + r == values[hi]


# sha256 of the little-endian bytes of D_100000 and S_100000, computed by
# the product tree of 2x2 matrices that served n > N0 before the split block
_DIGESTS_AT_100000 = (
    (derangements, "7164756427cd2d580aaac4ea67120206572422baafabb3ac764d1715dd577bae"),
    (partial_sum_pos, "44c583463af0120b7a4b21162d7e6fda349bd79ca559738b00b4ae5e00043017"),
)


@pytest.mark.parametrize("fn,digest", _DIGESTS_AT_100000, ids=["D", "S"])
def test_values_at_100000_keep_their_digests(fn, digest):
    v = fn(100000)
    assert hashlib.sha256(v.to_bytes((v.bit_length() + 7) // 8, "little")).hexdigest() == digest


def test_exact_reads_nothing_from_the_certified_brackets(empty_marks, monkeypatch):
    # The mirror of test_brackets_read_nothing_from_exact: with the
    # certified binary split broken, the exact route answers on both
    # sides of N0.
    def broken(*args):
        raise AssertionError("the exact route called the certified split")

    monkeypatch.setattr(certified, "_split", broken)
    monkeypatch.setattr(certified, "_series", broken)
    for x, fn, _ in _SEQUENCES:
        for n in (1, 700, N0, N0 + 1, 6000):
            assert fn(n) == _loop(x, n), (fn, n)


def test_threads_from_empty_marks_read_the_sequential_values(empty_marks):
    # Four readers start from empty marks at interleaved indices, the
    # first ones above N0, and fill the marks below while the others read.
    n_max = N0 + 400
    want = {x: _loops(x, n_max) for x, _, _ in _SEQUENCES}
    started = time.monotonic()
    failures = []

    def reader(offset):
        try:
            for n in range(n_max - offset, 0, -97):
                for x, fn, _ in _SEQUENCES:
                    if fn(n) != want[x][n]:
                        failures.append((fn.__name__, n))
        except BaseException as exc:  # reported below
            failures.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(i * 13,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert failures == []
    assert time.monotonic() - started < 60
    for x, _, name in _SEQUENCES:
        marks = getattr(exact, name)
        assert 512 < len(marks) <= 512 + (N0 - 512) // 8 + 1
        assert marks == [want[x][exact._index(i)] for i in range(len(marks))]

"""Integer-arithmetic layer: factorials, partial sums, derangements,
and the derangement polynomial."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

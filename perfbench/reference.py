"""Reference values that share no code with ecount.

Integers come from the defining recurrences

    D_0 = 1, D_n = n*D_{n-1} + (-1)^n      (derangements)
    S_0 = 1, S_n = n*S_{n-1} + 1           (S_n = floor(e*n!) for n >= 1)

and real values from the standard library's `decimal` module, whose exp
is correctly rounded.  A real check accepts a result only when the
decimal value, with a stated error allowance, decides it.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

_STEP = 256  # recurrence checkpoints are kept every _STEP indices


class Recurrences:
    """S_n and D_n, walking at most _STEP - 1 steps from a checkpoint."""

    def __init__(self) -> None:
        self._marks = {"S": [1], "D": [1]}

    @staticmethod
    def _step(kind: str, k: int, prev: int) -> int:
        if kind == "S":
            return k * prev + 1
        return k * prev + (-1 if k & 1 else 1)

    def _value(self, kind: str, n: int) -> int:
        if n < 0:
            raise ValueError(f"index must be >= 0 (got {n})")
        marks = self._marks[kind]
        while (len(marks) - 1) * _STEP < n:
            k0 = (len(marks) - 1) * _STEP
            v = marks[-1]
            for k in range(k0 + 1, k0 + _STEP + 1):
                v = self._step(kind, k, v)
            marks.append(v)
        base = n // _STEP
        v = marks[base]
        for k in range(base * _STEP + 1, n + 1):
            v = self._step(kind, k, v)
        return v

    def s(self, n: int) -> int:
        return self._value("S", n)

    def d(self, n: int) -> int:
        return self._value("D", n)

    def paths(self, n: int) -> int:
        return self.s(n - 2)

    def cycles(self, n: int) -> int:
        return self.s(n - 1) - n

    def path_length_sum(self, n: int) -> int:
        return 1 + (n - 2) * self.s(n - 2)

    def cycle_length_sum(self, n: int) -> int:
        return self.s(n) - self.s(n - 1) - 2 * n + 1

    def bound_n_head(self, n: int, m: int) -> Fraction:
        """Rational part of N_m(n): n! * (sum_{i=1}^m (n+2i-1)/(n+2i)! - S_{n+2m}/(n+2m)!)."""
        acc = sum(Fraction(n + 2 * i - 1, math.factorial(n + 2 * i)) for i in range(1, m + 1))
        top = n + 2 * m
        return math.factorial(n) * (acc - Fraction(self.s(top), math.factorial(top)))


def dpoly(n: int, x: Fraction) -> Fraction:
    """D_n(x) = sum_{i=0}^n (n!/i!) x^i, from the top coefficient down."""
    acc = Fraction(0)
    coef = 1  # n!/i! for i = n, n-1, ..., 0
    terms = []
    for i in range(n, -1, -1):
        terms.append(coef)
        coef *= i
    for c in terms:  # Horner from x^n down to x^0
        acc = acc * x + c
    return acc


def _digits(x) -> int:
    """Upper bound on the decimal digits of the integer part of |x|."""
    return math.floor(abs(x)).bit_length() * 30103 // 100000 + 1


def _dec(q: Fraction) -> Decimal:
    return Decimal(q.numerator) / Decimal(q.denominator)


def eform_value(a: Fraction, b: Fraction, c: Fraction, prec: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = prec
        e = Decimal(1).exp()
        return _dec(a) + _dec(b) * e + _dec(c) / e


def eform_floor_sign(a: Fraction, b: Fraction, c: Fraction) -> tuple[int, int]:
    """Exact (floor, sign) of a + b*e + c/e."""
    if b == 0 and c == 0:
        return math.floor(a), (a > 0) - (a < 0)
    size = abs(a) + 3 * abs(b) + abs(c) + 1
    prec = _digits(size) + 40
    for _ in range(12):
        v = eform_value(a, b, c, prec)
        err = Fraction(size) * Fraction(1, 10 ** (prec - 3))
        vq = Fraction(v)
        fl = math.floor(vq)
        if vq - err > fl and vq + err < fl + 1 and abs(vq) > err:
            return fl, (vq > 0) - (vq < 0)
        prec *= 2
    raise ArithmeticError("reference precision exhausted")


def exp_times(z: Fraction, factor: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """e^z * factor as (value, error allowance), prec significant digits."""
    with localcontext() as ctx:
        ctx.prec = prec
        v = _dec(z).exp() * _dec(factor)
    vq = Fraction(v)
    return vq, abs(vq) * Fraction(1, 10 ** (prec - 5)) + Fraction(1, 10 ** prec)


def gamma_upper(n: int, z: Fraction, prec: int = 60) -> tuple[Fraction, Fraction]:
    """Gamma(n+1, z) = e^-z * D_n(z) with an error allowance."""
    return exp_times(-z, dpoly(n, z), prec + _digits(z) + 2 * n)


def hyp1f1_closed(n: int, x: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """(n+1) * (n! - e^-x * D_n(x)) / x^(n+1), with an error allowance.

    The working precision covers the size of e^-x * D_n(x) and the
    2^-bits width of the enclosure being checked.
    """
    prec = 60 + bits // 3 + int(abs(x) * Fraction(4343, 10000)) + 2 * (n + 1) * (_digits(x) + 1)
    ed, err = exp_times(-x, dpoly(n, x), prec)
    scale = Fraction(n + 1) / x ** (n + 1)
    return (math.factorial(n) - ed) * scale, err * abs(scale)


def contains(lo: Fraction, hi: Fraction, value: Fraction, err: Fraction) -> bool:
    """Whether [lo, hi] meets [value - err, value + err]."""
    return lo <= value + err and value - err <= hi


def eform_interval_check(lo: Fraction, hi: Fraction, a, b, c) -> bool:
    """Whether [lo, hi] contains a + b*e + c/e."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    size = abs(a) + 3 * abs(b) + abs(c) + 1
    prec = _digits(size) + 60
    v = Fraction(eform_value(a, b, c, prec))
    return contains(lo, hi, v, size * Fraction(1, 10 ** (prec - 3)))

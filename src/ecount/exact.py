"""Exact integer and rational building blocks.

Everything here is computed with arbitrary-precision integers or
`fractions.Fraction`; there is no floating point anywhere.  The three
central sequences are

    n!                       factorials,
    S_n = sum_{i=0}^n n!/i!  (equals floor(e*n!) for n >= 1),
    D_n                      derangement numbers, D_0 = 1,
                             D_n = n*D_{n-1} + (-1)^n,

together with the polynomial D_n(x) = sum_{i=0}^n (n!/i!) x^i whose
value at -1 is D_n and at 1 is S_n.

All three are T_n = sum_{i=0}^n x^i * n!/i! for x = 0, 1 and -1, so
T_0 = 1 and T_k = k*T_{k-1} + x^k.  Up to n = 4096 they are read from
sparse marks of that recurrence: every value below 512 and every 8th
value from 512 through 4096 is kept, and a read past a mark applies the
at most 7 missing steps as one block.  Above 4096 nothing is stored:
n! is `math.factorial`, and S_n and D_n are the first row of a product
tree of the 2x2 matrices of the homogeneous recurrence
T_k = (k+x)*T_{k-1} - x*(k-1)*T_{k-2} (binary splitting, Brent &
Zimmermann, *Modern Computer Arithmetic* 4.9).  The certified layer
brackets e and 1/e by its own binary split of the series and never
calls this one.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple
from fractions import Fraction

from .errors import DomainError

__all__ = [
    "factorial",
    "partial_sum_pos",
    "derangements",
    "DerangementPoly",
    "dpoly",
    "dpoly_eval",
]

# Marks of the exact route, one list per sequence, shared by its callers:
# the value at every n below _DENSE, then at every _STRIDE-th n through
# _N0.  Each list is filled in order, on its own, to the largest mark
# asked of it, so factorial(n) fills neither S nor D, and no list grows
# past _N0.  _TABLE_LOCK guards the append-only filling; reads of
# already-filled marks are safe without it.
_DENSE, _STRIDE, _N0 = 512, 8, 4096
_TABLE_LOCK = threading.Lock()
_FACT_MARKS = [1]   # x = 0: n!
_PSUM_MARKS = [1]   # x = 1: S_n
_DER_MARKS = [1]    # x = -1: D_n
# steps per leaf of the product tree above _N0
_LEAF = 32


def _index(slot: int) -> int:
    """The n whose value a mark list holds at position `slot`."""
    return slot if slot < _DENSE else _DENSE + (slot - _DENSE) * _STRIDE


def _block(lo: int, hi: int, x: int) -> tuple[int, int]:
    """(P, R) with T_hi = P*T_lo + R, for T_k = k*T_{k-1} + x^k."""
    p, r = 1, 0
    s = x**lo
    for k in range(lo + 1, hi + 1):
        s *= x
        p *= k
        r = k * r + s
    return p, r


def _read(marks: list[int], x: int, n: int) -> int:
    """T_n for 0 <= n <= _N0, from the mark at or below n."""
    if n < _DENSE:
        slot = mark = n
    else:
        slot = _DENSE + (n - _DENSE) // _STRIDE
        mark = _index(slot)
    if slot >= len(marks):
        with _TABLE_LOCK:
            for s in range(len(marks), slot + 1):
                p, r = _block(_index(s - 1), _index(s), x)
                marks.append(p * marks[s - 1] + r)
    if mark == n:
        return marks[slot]
    p, r = _block(mark, n, x)
    return p * marks[slot] + r


def _matrix(lo: int, hi: int, x: int) -> tuple[int, int, int, int]:
    """M_hi * ... * M_{lo+1} as (a, b, c, d) = [[a, b], [c, d]], where
    M_k = [[k + x, -x*(k - 1)], [1, 0]] maps (T_{k-1}, T_{k-2}) to
    (T_k, T_{k-1})."""
    if hi - lo <= _LEAF:
        a, b, c, d = 1, 0, 0, 1
        for k in range(lo + 1, hi + 1):
            u, v = k + x, -x * (k - 1)
            a, b, c, d = u * a + v * c, u * b + v * d, a, b
        return a, b, c, d
    mid = (lo + hi) // 2
    a1, b1, c1, d1 = _matrix(mid, hi, x)
    a2, b2, c2, d2 = _matrix(lo, mid, x)
    return a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2


def _tree(x: int, n: int) -> int:
    """T_n for x = 1 or -1 and n >= 2, from (T_1, T_0) = (1 + x, 1)."""
    mid = (1 + n) // 2
    a1, b1, _, _ = _matrix(mid, n, x)
    a2, b2, c2, d2 = _matrix(1, mid, x)
    t1 = 1 + x
    return a1 * (a2 * t1 + b2) + b1 * (c2 * t1 + d2)


def factorial(n: int) -> int:
    """n! for n >= 0."""
    if n < 0:
        raise DomainError(f"factorial requires n >= 0 (got {n})")
    if n > _N0:
        return math.factorial(n)
    return _read(_FACT_MARKS, 0, n)


def partial_sum_pos(n: int) -> int:
    """sum_{i=0}^n n!/i! as an exact integer, for n >= 1.

    Defined by the recurrence S_0 = 1, S_k = k*S_{k-1} + 1, read from
    its marks up to n = 4096 and by a product tree above.  For n >= 1
    this integer equals floor(e*n!); the certified-floor route in
    :mod:`ecount.certified` re-derives the same value independently.
    """
    if n < 1:
        raise DomainError(f"partial_sum_pos requires n >= 1 (got {n})")
    if n > _N0:
        return _tree(1, n)
    return _read(_PSUM_MARKS, 1, n)


def derangements(n: int) -> int:
    """Number of permutations of n elements with no fixed point."""
    if n < 0:
        raise DomainError(f"derangements requires n >= 0 (got {n})")
    if n > _N0:
        return _tree(-1, n)
    return _read(_DER_MARKS, -1, n)


class DerangementPoly(namedtuple("DerangementPoly", "n coeffs")):
    """Coefficient form of D_n(x) = sum_{i=0}^n (n!/i!) x^i.

    `coeffs` is a tuple of ints, `coeffs[i]` the coefficient of x^i, so
    coeffs[n] = 1 and coeffs[0] = n!.  Instances are immutable.
    """

    __slots__ = ()

    def eval(self, x: Fraction) -> Fraction:
        """Exact value at a rational point, by Horner's rule."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative_coeffs(self) -> tuple[int, ...]:
        """Coefficients of the formal derivative D_n'(x)."""
        return tuple(i * c for i, c in enumerate(self.coeffs) if i > 0)


def dpoly(n: int) -> DerangementPoly:
    """Build D_n(x) by the descending recurrence on coefficients.

    coeffs[n] = 1 and coeffs[i] = (i+1)*coeffs[i+1], which unwinds to
    n!/i! without ever forming a quotient.
    """
    if n < 0:
        raise DomainError(f"dpoly requires n >= 0 (got {n})")
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    for i in range(n - 1, -1, -1):
        coeffs[i] = (i + 1) * coeffs[i + 1]
    return DerangementPoly(n, tuple(coeffs))


def dpoly_eval(n: int, x: Fraction) -> Fraction:
    """Exact rational value of D_n(x), in one integer pass.

    With x = p/q in lowest terms, q^n * D_n(x) = sum_i r_i p^i where
    r_i = (n!/i!) q^(n-i) is carried as the running product
    r_{i-1} = r_i * i * q and the sum is taken by Horner's rule in p.
    :meth:`DerangementPoly.eval` is the coefficient-form reference.
    """
    if n < 0:
        raise DomainError(f"dpoly_eval requires n >= 0 (got {n})")
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    acc = r = 1
    for i in range(n, 0, -1):
        r *= i * q
        acc = acc * p + r
    return Fraction(acc, q**n)

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
"""

from __future__ import annotations

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

# Memo tables of the exact route, shared by its callers.  Each table grows
# on its own, to the largest n asked of it, so factorial(n) builds neither
# S nor D.  _TABLE_LOCK guards the append-only growth; reads of
# already-filled slots are safe without it.  The certified layer builds
# its brackets of e and 1/e by binary splitting and never reads them.
_TABLE_LOCK = threading.Lock()
_FACT = [1]       # _FACT[n] = n!, via n! = n*(n-1)!
_PSUM = [1]       # _PSUM[n] = sum_{i=0}^n n!/i!, via S_n = n*S_{n-1} + 1
_DER = [1]        # _DER[n] = D_n, via D_n = n*D_{n-1} + (-1)^n


def _grow(table: list[int], n: int, step) -> None:
    """Extend table through index n by table[k] = step(k, table[k-1])."""
    with _TABLE_LOCK:
        for k in range(len(table), n + 1):
            table.append(step(k, table[k - 1]))


def factorial(n: int) -> int:
    """n! for n >= 0."""
    if n < 0:
        raise DomainError(f"factorial requires n >= 0 (got {n})")
    if n >= len(_FACT):
        _grow(_FACT, n, lambda k, prev: k * prev)
    return _FACT[n]


def partial_sum_pos(n: int) -> int:
    """sum_{i=0}^n n!/i! as an exact integer, for n >= 1.

    Computed by the recurrence S_0 = 1, S_k = k*S_{k-1} + 1.  For
    n >= 1 this integer equals floor(e*n!); the certified-floor route
    in :mod:`ecount.certified` re-derives the same value independently.
    """
    if n < 1:
        raise DomainError(f"partial_sum_pos requires n >= 1 (got {n})")
    if n >= len(_PSUM):
        _grow(_PSUM, n, lambda k, prev: k * prev + 1)
    return _PSUM[n]


def derangements(n: int) -> int:
    """Number of permutations of n elements with no fixed point."""
    if n < 0:
        raise DomainError(f"derangements requires n >= 0 (got {n})")
    if n >= len(_DER):
        _grow(_DER, n, lambda k, prev: k * prev + (-1 if k % 2 else 1))
    return _DER[n]


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

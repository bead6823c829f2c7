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

All of them are T_n = sum_{i=0}^n x^i * n!/i!, so T_0 = 1 and
T_k = k*T_{k-1} + x^k; with x = p/q, U_k = q^k*T_k is the integer
recurrence U_0 = 1, U_k = k*q*U_{k-1} + p^k, and it is the only route:
n!, S_n and D_n are q = 1 with p = 0, 1 and -1, and D_n(p/q) is one
block (P, R) from 0 to n, U_n = P*U_0 + R, over q^n.  The marks of n!,
S_n and D_n have fixed slots: every n below 512 and every 8th n from
512 through 4096.  A read at any n applies the steps from the slot at or
below min(n, 4096) as one block, U_n = P*U_mark + R, and a long block
splits itself in halves (binary splitting, Haible & Papanikolaou 1998).
A slot is stored only when a read first uses it, by one block from the
nearest stored slot below it, so a one-shot read at n = 4000 stores one
mark, not the ~950 below it.  Reads in ascending order cost what filling
every mark below them costs; a descending sweep pays the price, each
first read splitting from far below: all three sequences from 4096 down
to 1 take 1.7 s, against 44 ms ascending (CPython 3.11, one 2-vCPU
x86-64 host).  Above 4096 nothing more is stored, and n! is
`math.factorial`; past sys.maxsize, where it overflows and a block never
ends, `errors._size` refuses n, checked by the reads only outside
0..4096.  The certified layer brackets e and 1/e by its own binary
split of the series and never calls this one.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple
from fractions import Fraction

from . import _LAYERS
from .errors import _size

__all__ = [*_LAYERS["exact"]]

# Marks of the exact route, one list per sequence, shared by its callers:
# slot s holds T at _index(s), that is at every n below _DENSE, then at
# every _STRIDE-th n through _N0, or None until a read first uses it.
# Slot 0 holds T_0 = 1 from the start.  Each list is stored on its own,
# so factorial(n) stores neither S nor D.  _TABLE_LOCK guards the storing
# of a slot; a stored slot never changes, so reads of it need no lock.
_DENSE, _STRIDE, _N0 = 512, 8, 4096
_SLOTS = _DENSE + (_N0 - _DENSE) // _STRIDE + 1
_TABLE_LOCK = threading.Lock()
_FACT_MARKS = [1] + [None] * (_SLOTS - 1)   # x = 0: n!
_PSUM_MARKS = [1] + [None] * (_SLOTS - 1)   # x = 1: S_n
_DER_MARKS = [1] + [None] * (_SLOTS - 1)    # x = -1: D_n
# steps a block takes in one loop before it splits itself in halves
_LEAF = 32


def _index(slot: int) -> int:
    """The n whose value a mark list holds at position `slot`."""
    return slot if slot < _DENSE else _DENSE + (slot - _DENSE) * _STRIDE


def _block(lo: int, hi: int, p: int, q: int) -> tuple[int, int]:
    """(P, R) with U_hi = P*U_lo + R and P = q^(hi-lo)*hi!/lo!, for
    U_k = k*q*U_{k-1} + p^k; at q = 1 the leaf makes no multiply by q."""
    if hi - lo > _LEAF:
        mid = (lo + hi) // 2
        p1, r1 = _block(lo, mid, p, q)
        p2, r2 = _block(mid, hi, p, q)
        return p2 * p1, p2 * r1 + r2
    big_p, r = 1, 0
    s = p**lo
    for kq in range((lo + 1) * q, (hi + 1) * q, q):
        s *= p
        big_p *= kq
        r = kq * r + s
    return big_p, r


def _read(marks: list[int | None], x: int, n: int) -> int:
    """T_n for n >= 0, from the mark at or below min(n, _N0)."""
    if n < _DENSE:
        slot = mark = n
    else:
        slot = _DENSE + ((n if n < _N0 else _N0) - _DENSE) // _STRIDE
        mark = _index(slot)
    t = marks[slot]
    if t is None:
        with _TABLE_LOCK:
            t = marks[slot]
            if t is None:
                # slot 0 is always stored, so the scan ends
                low = slot - 1
                while marks[low] is None:
                    low -= 1
                p, r = _block(_index(low), mark, x, 1)
                t = marks[slot] = p * marks[low] + r
    if mark == n:
        return t
    p, r = _block(mark, n, x, 1)
    return p * t + r


def factorial(n: int) -> int:
    """n! for n >= 0."""
    if 0 <= n <= _N0:
        return _read(_FACT_MARKS, 0, n)
    _size("factorial", n, 0)
    return math.factorial(n)


def partial_sum_pos(n: int) -> int:
    """sum_{i=0}^n n!/i! as an exact integer, for n >= 1.

    Defined by the recurrence S_0 = 1, S_k = k*S_{k-1} + 1, read from
    its marks and one block of steps from the nearest one.  For n >= 1
    this integer equals floor(e*n!); the certified-floor route in
    :mod:`ecount.certified` re-derives the same value independently.
    """
    if not 1 <= n <= _N0:
        _size("partial_sum_pos", n, 1)
    return _read(_PSUM_MARKS, 1, n)


def derangements(n: int) -> int:
    """Number of permutations of n elements with no fixed point."""
    if not 0 <= n <= _N0:
        _size("derangements", n, 0)
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
    _size("dpoly", n, 0)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    for i in range(n - 1, -1, -1):
        coeffs[i] = (i + 1) * coeffs[i + 1]
    return DerangementPoly(n, tuple(coeffs))


def dpoly_eval(n: int, x: Fraction) -> Fraction:
    """Exact value of D_n(x) at x = p/q in lowest terms: U_n / q^n, with
    U_n one block of U_k = k*q*U_{k-1} + p^k from U_0 = 1.
    :meth:`DerangementPoly.eval` is the coefficient-form reference."""
    _size("dpoly_eval", n, 0)
    p, q = Fraction(x).as_integer_ratio()
    big_p, r = _block(0, n, p, q)
    return Fraction(big_p + r, q**n)

"""Certified interval enclosures of e and 1/e and floor evaluation.

The one expression shape every counting formula in this package reduces
to is

    a + b*e + c*(1/e)      with a, b, c rational,

captured by :class:`EForm`.  Its floor is computed by evaluating the
expression over shrinking interval enclosures of e and 1/e until both
interval endpoints share a floor.  Unless b = c = 0 the value is
irrational (this rests on the linear independence of 1, e, 1/e over the
rationals, a classical fact assumed here, not re-proved), so the
refinement always terminates; a precision cap turns a would-be
infinite loop on a rational-valued form into an error instead.  The cap
is ECOUNT_PRECISION_CAP, else 2^20 bits, and `_check_cap` is the one
test of a requested precision against it, here, in `specials` and in
`oracles`; it formats its message, naming values by `errors._name` and
bit counts by `_count`, only to refuse.

An EForm holds integers (A, B, C, D) for (A + B*e + C/e) / D, so its
arithmetic takes no gcd of numerators; `Fraction` appears only at the
API edge, in the reduced coefficients `.a`, `.b`, `.c`, made when they
are read, so floors and signs make no `Fraction`.  A form holds its
integers and nothing else, and nothing writes to it once it is built.

Floors and signs are decided by a fixed-point kernel, `_bounds`, which
divides nowhere: it gives the integer lo = A*2^p + B*x_b + C*x_c, with
lo <= D * f * 2^p <= lo + W for W = |B| + |C|.  e and 1/e enter it as
F = floor(x * 2^p), so F and F + 1 bound x * 2^p.  Each is cut from one
cached entry (P, lo) with lo <= x * 2^P < lo + 2, itself cut from the
exact brackets below by one floor division: once P >= p + 64, F is the
top of lo >> (P - p - 64), read in O(p) time, not O(P), unless the 64
bits below the cut are all ones, when more bits are read.  An entry
below p + 64 is first extended to p + 128 by the bracket's new terms
and one short division.  F depends on x and p alone, so no bound depends on what earlier calls
left in the cache.  :func:`eform_bounds` divides by D once, flooring lo
and ceiling lo + W, so its bounds round outward.  A form with |B| = |C|, such
as (e + 1/e)*n!, takes one product, of B with the summed endpoints of
e + 1/e or e - 1/e, where the others take one per nonzero coefficient.
One refinement loop, `_refine`, serves floors and signs and builds no
`Fraction`: a floor is decided when (lo >> p) // D equals
((lo + W + D - 1) >> p) // D, a sign when lo >= D or lo + W + D - 1 < 0,
the rules of the divided bounds lo // D and ceil((lo + W) / D), with
quotients as wide as the value, not as p; at D = 1 the floor takes the
shifts alone, lo >> p against (lo + W) >> p.  It
starts 64 bits above the magnitude of the form and then adds 64, 128,
256, ... bits, so a form thousands of bits wide retries a few words
finer rather than at twice its size; a step that would pass the cap is
tried at the cap first.  The loop, not the form, keeps the
kernel's last step: its products at the last p, which the kernel
extends to the next p by shifting them by the d new bits and adding B
and C times the change of the endpoints, about d bits wide.  That gives
the same integers as a fresh start at a cost linear in their size: the
reuse of the last approximation in Ziv's adaptive strategy, with one
code path for a first step and a retry.  Forms are plain values that
no decision writes to.  When |b| + |c| is small the loop asks the
kernel for a few guard bits more than p, so that the kernel's own
rounding does not outweigh the enclosure error.

:func:`eform_eval` and :class:`IntervalReal` stay exact: their endpoints
are `Fraction` values, so callers that print intervals get the same
digits as before.  :meth:`IntervalReal.round_out` rounds outward to
dyadic endpoints.  The quadrature oracle rounds each panel the same
way, but on integer numerators, and does not call it; the tests use it
as that rounding's `Fraction` reference.

Enclosures:

* e is bracketed by its exact Taylor partial sum S_k/k! with the tail
  bound  0 < e - S_k/k! < 1/(k!*k),  where S_k = sum_{i=0}^k k!/i! is an
  integer.  Successive brackets are nested: the lower endpoints increase,
  and the upper endpoints decrease because k*(k+2) <= (k+1)^2.
* 1/e is bracketed by consecutive partial sums of the alternating series
  sum (-1)^i/i!, i.e. [D_{2k-1}/(2k-1)!, D_{2k}/(2k)!] with width
  exactly 1/(2k)!.  Alternating-series brackets are nested as well.

The index k is the least one whose bracket width is at most 2^-p, by
one rule, `_bracket`, for the enclosures and the kernel alike: a binary
split of sum x^i * k!/i! (x = 1 for S_k, x = -1 for D_{2k-1}) runs to a
log-gamma estimate of k, and an exact test on the k! the split builds
moves k to the least index.  The enclosures split from the start of
the series; the kernel's cached entry of each grows by the split of the
new terms alone, to 128 bits past the precision asked for.  Neither
shares code with the recurrence marks and split blocks of
:mod:`ecount.exact`, which :func:`frac_e_nfact` alone reads: the two
routes behind every count stay independent.
"""

from __future__ import annotations

import math
import os
import threading
from collections import namedtuple
from fractions import Fraction
from math import ceil, floor

from . import _LAYERS
from .errors import _NAME_BITS, DomainError, PrecisionCapError, _name, _require
from .exact import factorial, partial_sum_pos

__all__ = [*_LAYERS["certified"], "DEFAULT_PRECISION_CAP", "ceil_log2", "fraction_to_decimal"]

DEFAULT_PRECISION_CAP = 1 << 20

_Q = Fraction
_ZERO = Fraction(0)
_CAP_KEY = os.environ.encodekey("ECOUNT_PRECISION_CAP")


def _resolve_cap() -> int:
    """Precision cap: ECOUNT_PRECISION_CAP, else DEFAULT_PRECISION_CAP.

    The variable is read at every call, through `os.environ`: a change
    made through `os.environ` holds from the next call on, and one made
    by a bare `os.putenv` is never seen.  It is looked up in the mapping
    `os.environ` itself reads, `os.environ._data`, under the encoded
    key, and decoded as `os.environ` decodes it: the value of
    `os.environ.get`, without the KeyError that `get` raises and catches
    when the variable is unset.  An invalid value is named in the
    DomainError, one longer than 80 characters by its length.
    """
    env = os.environ._data.get(_CAP_KEY)
    if env is None:
        return DEFAULT_PRECISION_CAP
    env = os.environ.decodevalue(env)
    try:
        cap = int(env)
    except ValueError:
        cap = -1
    if cap < 0:
        got = repr(env) if len(env) <= 80 else f"a string of {len(env)} characters"
        raise DomainError(
            f"ECOUNT_PRECISION_CAP must be a nonnegative integer bit count (got {got})"
        )
    return cap


def _count(bits: int) -> str:
    """A count of bits, written out up to _NAME_BITS bits and past them
    as "at least 2^k", so a message says its unit once after it."""
    size = bits.bit_length()
    return str(bits) if size <= _NAME_BITS else f"at least 2^{size - 1}"


def _check_cap(bits: int, template: str, *args: object) -> None:
    """PrecisionCapError when `bits` pass the cap, naming what needs them
    by `template` with each of args put in by `_name`, and the bits and
    the cap by `_count`; the message is made only then."""
    cap = _resolve_cap()
    if bits > cap:
        what = template.format(*map(_name, args))
        raise PrecisionCapError(
            f"{what} needs {_count(bits)} working bits, above the precision cap of {_count(cap)}"
        )


def _ceil_log2(num: int, den: int) -> int:
    """Smallest integer b with num / den <= 2^b, for positive integers."""
    b = num.bit_length() - den.bit_length()
    if (num <= den << b) if b >= 0 else (num << -b <= den):
        return b
    return b + 1


def ceil_log2(q: Fraction) -> int:
    """Smallest integer b with q <= 2^b, for q > 0."""
    _require(q > 0, "ceil_log2 requires q > 0 (got {})", q)
    return _ceil_log2(q.numerator, q.denominator)


def fraction_to_decimal(x: Fraction, digits: int, round_up: bool) -> str:
    """Decimal string of x with `digits` places, rounded down or up.

    Used to print interval endpoints outward: lower endpoints round
    down, upper endpoints round up, so the printed interval still
    contains the exact one.
    """
    _require(digits >= 0, "digits must be >= 0 (got {})", digits)
    scaled = x * 10**digits
    n = ceil(scaled) if round_up else floor(scaled)
    if digits == 0:
        return str(n)
    sign = "-" if n < 0 else ""
    s = str(abs(n)).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


_set = object.__setattr__


class IntervalReal:
    """Closed interval [lo, hi] with exact rational endpoints.

    Immutable; `==` and `hash` compare the endpoints.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi) -> None:
        lo = lo if type(lo) is Fraction else _Q(lo)
        hi = hi if type(hi) is Fraction else _Q(hi)
        if lo > hi:
            raise DomainError(f"interval endpoints out of order: {_name(lo)} > {_name(hi)}")
        _set(self, "lo", lo)
        _set(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError(f"IntervalReal is immutable (cannot set {name!r})")

    def __delattr__(self, name):
        raise AttributeError(f"IntervalReal is immutable (cannot delete {name!r})")

    def __reduce__(self):
        return IntervalReal, (self.lo, self.hi)

    def __eq__(self, other):
        if type(other) is not IntervalReal:
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"IntervalReal(lo={self.lo!r}, hi={self.hi!r})"

    @classmethod
    def point(cls, x) -> "IntervalReal":
        x = _Q(x)
        return cls(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __add__(self, other) -> "IntervalReal":
        if isinstance(other, IntervalReal):
            return IntervalReal(self.lo + other.lo, self.hi + other.hi)
        q = _Q(other)
        return IntervalReal(self.lo + q, self.hi + q)

    __radd__ = __add__

    def __neg__(self) -> "IntervalReal":
        return IntervalReal(-self.hi, -self.lo)

    def __sub__(self, other) -> "IntervalReal":
        if isinstance(other, IntervalReal):
            return IntervalReal(self.lo - other.hi, self.hi - other.lo)
        return self + (-_Q(other))

    def __rsub__(self, other) -> "IntervalReal":
        return (-self) + _Q(other)

    def __mul__(self, other) -> "IntervalReal":
        if isinstance(other, IntervalReal):
            products = (
                self.lo * other.lo,
                self.lo * other.hi,
                self.hi * other.lo,
                self.hi * other.hi,
            )
            return IntervalReal(min(products), max(products))
        q = _Q(other)
        if q >= 0:
            return IntervalReal(self.lo * q, self.hi * q)
        return IntervalReal(self.hi * q, self.lo * q)

    __rmul__ = __mul__

    def power(self, k: int) -> "IntervalReal":
        """Interval of x^k over x in [lo, hi], for integer k >= 0."""
        _require(k >= 0, "power requires k >= 0 (got {})", k)
        if k == 0:
            return IntervalReal.point(1)
        a, b = self.lo**k, self.hi**k
        if self.lo >= 0 or k % 2 == 1:
            return IntervalReal(a, b)
        if self.hi <= 0:
            return IntervalReal(b, a)
        # even power over an interval straddling zero
        return IntervalReal(_ZERO, max(a, b))

    def reciprocal(self) -> "IntervalReal":
        _require(not self.lo <= 0 <= self.hi, "reciprocal of an interval containing zero")
        return IntervalReal(1 / self.hi, 1 / self.lo)

    def contains(self, x) -> bool:
        x = _Q(x)
        return self.lo <= x <= self.hi

    def encloses(self, other: "IntervalReal") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "IntervalReal") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def round_out(self, bits: int) -> "IntervalReal":
        """Outward rounding to dyadic endpoints with denominator 2^bits."""
        _require(bits >= 1, "bits must be >= 1 (got {})", bits)
        scale = 1 << bits
        return IntervalReal(
            _Q(floor(self.lo * scale), scale), _Q(ceil(self.hi * scale), scale)
        )

    def to_decimal(self, digits: int) -> tuple[str, str]:
        """Outward decimal endpoint strings (lo down, hi up)."""
        return (
            fraction_to_decimal(self.lo, digits, round_up=False),
            fraction_to_decimal(self.hi, digits, round_up=True),
        )


def _ratio(q) -> tuple[int, int]:
    """(numerator, denominator) of a rational q, denominator > 0."""
    if isinstance(q, int):
        return q, 1
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return q.numerator, q.denominator


class EForm:
    """The rational-linear expression a + b*e + c*(1/e).

    Held as integers (A, B, C, D), D > 0, for (A + B*e + C/e) / D, not
    necessarily in lowest terms.  Three `int` coefficients give (a, b,
    c, 1) directly, with no `Fraction`; other coefficients are brought
    to the least common denominator D.  `+`, `-` and `scale` take no gcd
    when the denominators agree and one gcd of the two denominators when
    they differ; `==` and `hash` compare values.

    `.a`, `.b` and `.c` are reduced `Fraction`s, each made from A/D,
    B/D or C/D when it is read; none is kept.  A form holds nothing but
    its integers: floors, signs and bounds read it and never write it.
    """

    __slots__ = ("_ints",)

    def __init__(self, a, b, c) -> None:
        if type(a) is int and type(b) is int and type(c) is int:
            _set(self, "_ints", (a, b, c, 1))
            return
        (na, da), (nb, db), (nc, dc) = _ratio(a), _ratio(b), _ratio(c)
        d = da
        for x in (db, dc):
            if x != d and x != 1:
                d = d // math.gcd(d, x) * x
        _set(self, "_ints", (na * (d // da), nb * (d // db), nc * (d // dc), d))

    def __setattr__(self, name, value):
        raise AttributeError(f"EForm is immutable (cannot set {name!r})")

    def __delattr__(self, name):
        raise AttributeError(f"EForm is immutable (cannot delete {name!r})")

    def __reduce__(self):
        return _of, self._ints

    @property
    def a(self) -> Fraction:
        return _Q(self._ints[0], self._ints[3])

    @property
    def b(self) -> Fraction:
        return _Q(self._ints[1], self._ints[3])

    @property
    def c(self) -> Fraction:
        return _Q(self._ints[2], self._ints[3])

    @property
    def is_rational(self) -> bool:
        _, big_b, big_c, _ = self._ints
        return big_b == 0 and big_c == 0

    @classmethod
    def from_rational(cls, q) -> "EForm":
        num, den = _ratio(q)
        return _of(num, 0, 0, den)

    @classmethod
    def from_integers(cls, big_a: int, big_b: int, big_c: int, den: int) -> "EForm":
        """The form (big_a + big_b*e + big_c/e) / den for integers with
        den > 0, kept over den as given: no gcd is taken here, and .a, .b
        and .c are reduced when read."""
        if den <= 0:
            raise DomainError(f"EForm denominator must be > 0 (got {_name(den)})")
        return _of(big_a, big_b, big_c, den)

    def __eq__(self, other):
        if not isinstance(other, EForm):
            return NotImplemented
        a1, b1, c1, d1 = self._ints
        a2, b2, c2, d2 = other._ints
        if d1 == d2:
            return a1 == a2 and b1 == b2 and c1 == c2
        return a1 * d2 == a2 * d1 and b1 * d2 == b2 * d1 and c1 * d2 == c2 * d1

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c))

    def __repr__(self) -> str:
        return f"EForm(a={self.a!r}, b={self.b!r}, c={self.c!r})"

    def __add__(self, other) -> "EForm":
        return _sum(self._ints, _ints_of(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "EForm":
        big_a, big_b, big_c, den = self._ints
        return _of(-big_a, -big_b, -big_c, den)

    def __sub__(self, other) -> "EForm":
        return _sum(self._ints, _ints_of(other), -1)

    def __rsub__(self, other) -> "EForm":
        return _sum(_ints_of(other), self._ints, -1)

    def scale(self, q) -> "EForm":
        num, den = _ratio(q)
        big_a, big_b, big_c, d = self._ints
        return _of(big_a * num, big_b * num, big_c * num, d * den)

    def to_triple(self) -> tuple[str, str, str]:
        return (str(self.a), str(self.b), str(self.c))


def _of(big_a: int, big_b: int, big_c: int, den: int) -> EForm:
    """The EForm (big_a + big_b*e + big_c/e) / den, for den > 0."""
    f = object.__new__(EForm)
    _set(f, "_ints", (big_a, big_b, big_c, den))
    return f


def _ints_of(x) -> tuple[int, int, int, int]:
    if isinstance(x, EForm):
        return x._ints
    num, den = _ratio(x)
    return num, 0, 0, den


def _sum(f: tuple, g: tuple, sign: int) -> EForm:
    """f + sign*g over integer forms; one gcd, of the denominators, when
    they differ."""
    a1, b1, c1, d1 = f
    a2, b2, c2, d2 = g
    if sign < 0:
        a2, b2, c2 = -a2, -b2, -c2
    if d1 == d2:
        return _of(a1 + a2, b1 + b2, c1 + c2, d1)
    gcd = math.gcd(d1, d2)
    m1, m2 = d2 // gcd, d1 // gcd
    return _of(a1 * m1 + a2 * m2, b1 * m1 + b2 * m2, c1 * m1 + c2 * m2, d1 * m1)


# --- enclosures -------------------------------------------------------


def _split(a: int, b: int, x: int) -> tuple[int, int]:
    """(P, Q) with Q = b!/a! and P = sum_{i=a+1}^b x^(i-a) * b!/i!, x = +-1.

    Binary splitting: the halves at m combine as P = P_l*Q_r +
    x^(m-a)*P_r and Q = Q_l*Q_r, so the big products are balanced.  Short
    ranges run the recurrence P_j = j*P_{j-1} + x^(j-a) instead.
    """
    if b - a <= 16:
        p, q, s = 0, 1, 1
        for j in range(a + 1, b + 1):
            s *= x
            p = p * j + s
            q *= j
        return p, q
    m = (a + b) // 2
    pl, ql = _split(a, m, x)
    pr, qr = _split(m, b, x)
    if x < 0 and (m - a) % 2:
        pr = -pr
    return pl * qr + pr, ql * qr


def _estimate(p: int, ln_size) -> int:
    """Least k in 1..p+1 with the float ln_size(k) >= p*ln 2, by binary
    search; both brackets reach 2^-p by k = p+1, as (p+1)! >= 2^p."""
    target = p * math.log(2)
    lo, hi = 1, p + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if ln_size(mid) < target:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _ln_e(k: int) -> float:
    """ln(k!*k), for the e bracket at k of width 1/(k!*k)."""
    return math.lgamma(k + 1) + math.log(k)


def _ln_e_inv(k: int) -> float:
    """ln((2k)!), for the 1/e bracket at k of width 1/(2k)!."""
    return math.lgamma(2 * k + 1)


def _bracket(x: int, m: int, f: int, bits: int) -> tuple[int, int, int, int]:
    """(k, P, Q, f*Q): the least bracket index k >= m at bits, for x = 1
    (e) or -1 (1/e), with (P, Q) = _split(m, k, x) and f = m!, so f*Q = k!.

    The split runs to a log-gamma estimate of k, at least m; an exact
    test on k! then moves k to the least index, a term at a time (two for
    1/e, whose brackets sit at odd k), by the split's own recurrence, so
    k does not depend on floats and no factorial is taken afresh.
    """
    k = max(m, _estimate(bits, _ln_e) if x > 0 else 2 * _estimate(bits, _ln_e_inv) - 1)
    p_e, q_e = _split(m, k, x)
    f *= q_e
    # The bracket at k reaches 2^-bits when k!*k (e) or (k+1)! (1/e) does.
    n, tail = (1, 0) if x > 0 else (2, 1)
    while (f * (k + tail)).bit_length() <= bits:
        for _ in range(n):
            k += 1
            p_e, q_e, f = p_e * k + x ** (k - m), q_e * k, f * k
    while k > m:
        below = f // math.prod(range(k - n + 1, k + 1))
        if (below * (k - n + tail)).bit_length() <= bits:
            break
        for _ in range(n):
            p_e, q_e = (p_e - x ** (k - m)) // k, q_e // k
            k -= 1
        f = below
    return k, p_e, q_e, f


def enclose_e(precision_bits: int) -> IntervalReal:
    """Enclosure of e of width at most 2^-precision_bits.

    Lower endpoint is the exact partial sum S_k/k!; the width is the
    tail bound 1/(k!*k).  Raises PrecisionCapError, before any work,
    when precision_bits is above the precision cap.
    """
    _require(precision_bits >= 0, "precision_bits must be >= 0 (got {})", precision_bits)
    _check_cap(precision_bits, "enclose_e")
    # from m = 0: P = sum_{i=1}^k k!/i!, so S_k = k! + P
    k, p, _, f = _bracket(1, 0, 1, precision_bits)
    lo = _Q(f + p, f)
    return IntervalReal(lo, lo + _Q(1, f * k))


def enclose_e_inv(precision_bits: int) -> IntervalReal:
    """Enclosure of 1/e of width at most 2^-precision_bits.

    Consecutive partial sums of the alternating series sum (-1)^i/i!
    bracket the limit; with D_m the m-th derangement number the partial
    sum through i = m is exactly D_m/m!, so the bracket at odd k is
    [D_k/k!, D_(k+1)/(k+1)!] of width 1/(k+1)!, and
    D_(k+1) = (k+1)*D_k + 1.  Raises PrecisionCapError, before any
    work, when precision_bits is above the precision cap.
    """
    _require(precision_bits >= 0, "precision_bits must be >= 0 (got {})", precision_bits)
    _check_cap(precision_bits, "enclose_e_inv")
    # from the seed D_1 = 0 at m = 1: D_k = -P
    k, p, _, f = _bracket(-1, 1, 1, precision_bits)
    return IntervalReal(_Q(-p, f), _Q(1 - (k + 1) * p, (k + 1) * f))


def eform_eval(f: EForm, precision_bits: int) -> IntervalReal:
    """Interval enclosure of a + b*e + c/e.

    The width is at most (|b| + |c|) * 2^-precision_bits: each enclosure
    is evaluated at precision_bits, and scaling by a rational multiplies
    its width by the rational's magnitude.
    """
    _require(precision_bits >= 0, "precision_bits must be >= 0 (got {})", precision_bits)
    iv = IntervalReal.point(f.a)
    if f.b != 0:
        iv = iv + enclose_e(precision_bits) * f.b
    if f.c != 0:
        iv = iv + enclose_e_inv(precision_bits) * f.c
    return iv


# --- fixed-point kernel -----------------------------------------------

# _FIXED[name] = (P, lo, m, f, r) with lo <= x * 2^P < lo + 2, for x = e
# or 1/e.  It only ever grows.  The bracket's lower endpoint is s/f with
# f = m!, S_m/m! for e and D_m/m! (m = 2k-1) for 1/e, and r is the
# remainder of lo = (s << P) // f, from which the next, finer entry is
# extended; the seeds are the m = 1 brackets at P = 0.  A builder reads
# one entry and writes a new one, so it runs outside _FIXED_LOCK and only
# the swap is under it.
_FIXED_LOCK = threading.Lock()
_FIXED = {"e": (0, 2, 1, 1, 0), "e_inv": (0, 0, 1, 1, 0)}
_SIGN = {"e": 1, "e_inv": -1}
# Bits that _fixed reads below its cut before it reads more.
_GUARD = 64


def _grow(name: str, entry: tuple, bits: int) -> tuple:
    """The _FIXED entry of x = e (name "e") or 1/e ("e_inv") at bits > P.

    Its bracket index m' is the least one at bits: e - S_m'/m'! < 1/(m'!*m')
    and 1/e - D_m'/m'! < 1/(m'+1)!, each at most 2^-bits, so
    x * 2^bits < lo + 2.  The entry's bracket m is extended by the terms
    m+1..m' alone, with m' and (P_e, Q_e) = _split(m, m', x) from
    _bracket: s' = s*Q_e + (-1)^m*P_e over f' = f*Q_e = m'!, and
    s' * 2^bits = (lo << d) * f' + N with N = (r*Q_e << d) +
    ((-1)^m*P_e << bits), d = bits - P, so one division of N by f',
    whose quotient has about d + log2(m') bits, finishes lo and r; s
    itself is never needed again.
    """
    x = _SIGN[name]
    big_p, lo, m, f, r = entry
    k, p_e, q_e, f = _bracket(x, m, f, bits)
    if x < 0 and m % 2:
        p_e = -p_e
    q, r = divmod((r * q_e << (bits - big_p)) + (p_e << bits), f)
    return bits, (lo << (bits - big_p)) + q, k, f, r


def _fixed(name: str, p: int) -> int:
    """floor(x * 2^p) for x = e or 1/e, whatever the cache holds.

    With g guard bits and an entry at P >= p + g, t = lo >> (P - p - g)
    has t <= x * 2^(p+g) < t + 2, so the floor is t >> g unless the g
    bits of t below the cut are all ones: a read in time linear in p.
    g starts at _GUARD and doubles while those bits are all ones, which
    x, being irrational, ends; an entry below p + g first grows to
    p + 2g.  From an entry that already reaches p + _GUARD the floor is
    one shift and one test of the carry out of the guard bits.
    """
    g = _GUARD
    big_p, lo, _, _, _ = entry = _FIXED[name]
    while True:
        cut = big_p - p - g
        if cut < 0:
            entry = _grow(name, entry, p + 2 * g)
            with _FIXED_LOCK:
                if _FIXED[name][0] < entry[0]:
                    _FIXED[name] = entry
            big_p, lo, _, _, _ = entry
            cut = g
        top = lo >> cut
        floor_x = top >> g
        if (top + 1) >> g == floor_x:
            return floor_x
        g *= 2


def _bounds(ints: tuple, p: int, step: tuple | None) -> tuple[int, tuple]:
    """(lo, step): the integer lo = (A << p) + s for ints = (A, B, C, D),
    with lo <= (A + B*e + C/e) * 2^p <= lo + |B| + |C|, and the step
    (p, x_b, x_c, s).  Nothing is divided by D.

    e and 1/e enter as F = floor(x * 2^p), so F <= x * 2^p < F + 1.
    x_b and x_c are F or F + 1 of e and 1/e at p, whichever makes
    s = B*x_b + C*x_c a lower bound (F for a positive coefficient, F + 1
    for a negative one), so s + |B| + |C| is an upper bound.  s takes one
    product per nonzero coefficient, and one in all when |B| = |C|: B
    times the summed endpoints of e + 1/e or e - 1/e.  Given the step
    (p0, y_b, y_c, s0) of the same ints at p0 = p - d <= p, the kernel
    extends it instead, to the same integers: s = (s0 << d) +
    B*(x_b - (y_b << d)) + C*(x_c - (y_c << d)) is exactly B*x_b + C*x_c,
    and as both endpoints enclose the same number each correction is
    about d bits wide, so a step finer costs O(bits), not a product as
    wide as B.
    """
    big_a, big_b, big_c, _ = ints
    x_b = _fixed("e", p) + (big_b < 0) if big_b else 0
    x_c = _fixed("e_inv", p) + (big_c < 0) if big_c else 0
    if step is not None:
        p0, y_b, y_c, s = step
        d = p - p0
        s = (s << d) + big_b * (x_b - (y_b << d)) + big_c * (x_c - (y_c << d))
    elif not big_c:
        s = big_b * x_b
    elif not big_b:
        s = big_c * x_c
    elif big_b == big_c:
        s = big_b * (x_b + x_c)
    elif big_b == -big_c:
        s = big_b * (x_b - x_c)
    else:
        s = big_b * x_b + big_c * x_c
    return (big_a << p) + s, (p, x_b, x_c, s)


def eform_bounds(f: EForm, p: int) -> tuple[int, int]:
    """Integers lo <= (a + b*e + c/e) * 2^p <= hi, the kernel's bounds
    divided by D and rounded outward, with (hi - lo) * 2^-p <
    (|b| + |c|) * 2^-p + 2^(1-p).  They depend on f and p alone, not on
    earlier calls or what the cache holds.
    Raises PrecisionCapError, before any work, when p is above the cap.
    """
    _require(p >= 0, "precision_bits must be >= 0 (got {})", p)
    _check_cap(p, "eform_bounds")
    _, big_b, big_c, den = ints = f._ints
    q, r = divmod(_bounds(ints, p, None)[0], den)
    return q, q - (-(r + abs(big_b) + abs(big_c)) // den)


class CertifiedFloor(namedtuple("CertifiedFloor", "value precision_bits")):
    """Floor value (int) together with the precision (int) that decided it.

    precision_bits is 0 when the form was rational and no interval
    refinement was needed.
    """

    __slots__ = ()


# Builds a CertifiedFloor from a 2-tuple without the namedtuple's
# Python-level __new__.
_new_floor = tuple.__new__


def _decide_floor(lo: int, width: int, den: int, p: int) -> int | None:
    if den == 1:
        floor_lo = lo >> p
        return floor_lo if floor_lo == (lo + width) >> p else None
    floor_lo = (lo >> p) // den
    return floor_lo if floor_lo == ((lo + (width + den - 1)) >> p) // den else None


def _decide_sign(lo: int, width: int, den: int, p: int) -> int | None:
    if lo >= den:
        return 1
    if lo + (width + den - 1) < 0:
        return -1
    return None


def _form_name(f: EForm) -> str:
    """f as its (a, b, c) triple, or, when one of A, B, C and D is wider
    than _NAME_BITS, by their bit lengths, decided before any str runs:
    the rule of `errors._name`, for a form."""
    if max(x.bit_length() for x in f._ints) <= _NAME_BITS:
        return str(f.to_triple())
    return "a form with A, B, C, D of {}, {}, {}, {} bits".format(
        *(x.bit_length() for x in f._ints)
    )


def _refine(f: EForm, start_bits: int | None, decide, what: str) -> tuple[int, int]:
    """(answer, p) at the first p where decide(lo, width, den, bits)
    answers on the kernel's numerator lo of f at p plus the guard bits,
    with width = |B| + |C| and den = D; PrecisionCapError once p passes
    the cap.

    p starts at the start bits and then grows by 64, 128, 256, ... bits:
    a small form roughly doubles p, while a form whose start already
    spans thousands of bits retries a few words finer.  A step that would
    jump from below the cap to past it lands on the cap instead, so a
    form that decides at or below the cap is answered there, and refused
    only after that try; every p below the cap is the one the unclamped
    schedule tries.  p only grows, so each retry hands the kernel the
    step before, and only the first step multiplies B and C by
    full-width endpoints.  No step divides: decide reads the
    numerators, each quotient as wide as the value, and at D == 1 the
    floor and the start bits take no division at all.
    """
    cap = _resolve_cap()
    ints = f._ints
    big_a, big_b, big_c, den = ints
    width = abs(big_b) + abs(big_c)
    if start_bits is None:
        # |a| + 3|b| + |c| bounds the magnitude, so 64 bits above it
        # survive the cancellation in a + b*e + c/e.
        size = abs(big_a) + 2 * abs(big_b) + width
        start_bits = 64 + (size if den == 1 else size // den).bit_length()
    p = start_bits if start_bits > 8 else 8
    # Extra bits that keep the kernel's own rounding, 2^(1-p), below the
    # error (|b| + |c|) * 2^-p that the enclosures of e and 1/e carry at
    # p, so forms with tiny b and c decide at the same p as eform_eval.
    # A common factor of B, C and D moves it by at most one bit.
    guard = 2 + den.bit_length() - width.bit_length()
    if guard < 0:
        guard = 0
    step = None
    grow = 64
    while p <= cap:
        bits = p + guard
        lo, step = _bounds(ints, bits, step)
        result = decide(lo, width, den, bits)
        if result is not None:
            return result, p
        p = cap if p < cap < p + grow else p + grow
        grow *= 2
    raise PrecisionCapError(
        f"{what} of {_form_name(f)} undecided at precision cap {_count(cap)} bits"
    )


def certified_floor_info(f: EForm, *, start_bits: int | None = None) -> CertifiedFloor:
    """Floor of f with the deciding precision, by adaptive refinement.

    Precision grows from the start bits, by 64, 128, 256, ... bits,
    until both interval endpoints share a floor.  The result does not
    depend on the starting precision: any enclosure whose endpoints
    agree on a floor yields the floor of the enclosed value.  A rational
    form is floored exactly, at precision 0.  A step that would pass the
    precision cap is first tried at the cap itself, so a form decided
    there reports the cap as its precision_bits.
    """
    big_a, big_b, big_c, den = f._ints
    if not (big_b or big_c):
        return _new_floor(CertifiedFloor, (big_a // den, 0))
    return _new_floor(CertifiedFloor, _refine(f, start_bits, _decide_floor, "floor"))


def certified_floor(f: EForm, *, start_bits: int | None = None) -> int:
    """Certified floor of a + b*e + c/e; see certified_floor_info."""
    return certified_floor_info(f, start_bits=start_bits).value


def eform_sign(f: EForm) -> int:
    """Sign of f as -1, 0 or 1.

    Exact for rational forms (the only way to return 0); otherwise the
    enclosure is refined until it excludes zero.
    """
    big_a, big_b, big_c, _ = f._ints
    if not (big_b or big_c):
        return (big_a > 0) - (big_a < 0)
    return _refine(f, None, _decide_sign, "sign")[0]


def eform_lt(f: EForm, g: EForm) -> bool:
    """Certified strict comparison f < g."""
    return eform_sign(g - f) == 1


def frac_e_nfact(n: int) -> EForm:
    """Fractional part of e*n! as the EForm e*n! - floor(e*n!), n >= 1.

    The floor is supplied by the exact partial-sum route; the identity
    floor(e*n!) = sum_{i=0}^n n!/i! is itself checked elsewhere by the
    certified route.
    """
    _require(n >= 1, "frac_e_nfact requires n >= 1 (got {})", n)
    return EForm(-partial_sum_pos(n), factorial(n), 0)

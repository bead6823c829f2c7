"""Certified interval enclosures of e and 1/e and floor evaluation.

The one expression shape every counting formula in this package reduces
to is

    a + b*e + c*(1/e)      with a, b, c rational,

captured by :class:`EForm`.  Its floor is computed by evaluating the
expression over shrinking interval enclosures of e and 1/e until both
interval endpoints share a floor.  Unless b = c = 0 the value is
irrational (this rests on the linear independence of 1, e, 1/e over the
rationals, a classical fact assumed here, not re-proved), so the
refinement always terminates; a configurable precision cap turns a
would-be infinite loop on a rational-valued form into an error instead.

Floors and signs are decided by a fixed-point kernel,
:func:`eform_bounds`: integers lo <= f * 2^p <= hi at the shared scale
2^-p, with `Fraction` kept at the API edge (the coefficients a, b, c).
e and 1/e are each held as one cached triple (P, lo, hi) with
lo <= x * 2^P <= hi, cut from the exact brackets below by one floor
division; a request for p <= P shifts it right, flooring the lower and
ceiling the upper endpoint, and a larger p rebuilds it at exactly p.
The coefficients are put over one denominator, and the sums are divided
by it once, with floor division for lo and ceiling division for hi, so
every step rounds outward and the refinement loop builds no `Fraction`.
One driver serves floors and signs: a floor is decided when
lo >> p == hi >> p, a sign when lo > 0 or hi < 0.  When |b| + |c| is
small it asks the kernel for a few guard bits more than p, so that the
kernel's own rounding does not outweigh the enclosure error.

:func:`eform_eval` and :class:`IntervalReal` stay exact: their endpoints
are `Fraction` values, so callers that print intervals get the same
digits as before.  :meth:`IntervalReal.round_out` rounds outward to
dyadic endpoints; `oracles.quad_gamma` applies it to every panel
enclosure, so its endpoints stay a few bits finer than the tolerance.

Enclosures:

* e is bracketed by its exact Taylor partial sum S_k/k! with the tail
  bound  0 < e - S_k/k! < 1/(k!*k),  where S_k = sum_{i=0}^k k!/i! is an
  integer.  Successive brackets are nested: the lower endpoints increase,
  and the upper endpoints decrease because k*(k+2) <= (k+1)^2.
* 1/e is bracketed by consecutive partial sums of the alternating series
  sum (-1)^i/i!, i.e. [D_{2k-1}/(2k-1)!, D_{2k}/(2k)!] with width
  exactly 1/(2k)!.  Alternating-series brackets are nested as well.

The index k is the least one whose bracket width is at most 2^-p: a
log-gamma estimate picks it and an exact integer test corrects it.
Each bracket is built by its own binary split of sum x^i * k!/i!
(x = 1 for S_k, x = -1 for D_{2k-1}), so this layer keeps no tables
and grows nothing past the precision asked for.  It shares no code with
the recurrence tables of :mod:`ecount.exact`, which :func:`frac_e_nfact`
alone reads: the two routes behind every count stay independent.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from .errors import DomainError, PrecisionCapError
from .exact import factorial, partial_sum_pos

__all__ = [
    "DEFAULT_PRECISION_CAP",
    "IntervalReal",
    "EForm",
    "CertifiedFloor",
    "enclose_e",
    "enclose_e_inv",
    "eform_eval",
    "eform_bounds",
    "certified_floor",
    "certified_floor_info",
    "eform_sign",
    "eform_lt",
    "frac_e_nfact",
    "fraction_to_decimal",
    "ceil_log2",
]

DEFAULT_PRECISION_CAP = 1 << 20

_Q = Fraction
_ZERO = Fraction(0)


def _resolve_cap(cap: int | None) -> int:
    """Precision cap: explicit argument, else ECOUNT_PRECISION_CAP, else default."""
    if cap is not None:
        return cap
    env = os.environ.get("ECOUNT_PRECISION_CAP")
    if env is None:
        return DEFAULT_PRECISION_CAP
    try:
        return int(env)
    except ValueError:
        raise DomainError(
            f"ECOUNT_PRECISION_CAP must be an integer bit count (got {env!r})"
        ) from None


def ceil_log2(q: Fraction) -> int:
    """Smallest integer b with q <= 2^b, for q > 0."""
    if q <= 0:
        raise DomainError(f"ceil_log2 requires q > 0 (got {q})")
    b = q.numerator.bit_length() - q.denominator.bit_length() - 1
    while q > Fraction(1 << max(b, 0), 1 << max(-b, 0)):
        b += 1
    return b


def fraction_to_decimal(x: Fraction, digits: int, round_up: bool) -> str:
    """Decimal string of x with `digits` places, rounded down or up.

    Used to print interval endpoints outward: lower endpoints round
    down, upper endpoints round up, so the printed interval still
    contains the exact one.
    """
    if digits < 0:
        raise DomainError(f"digits must be >= 0 (got {digits})")
    scaled = x * 10**digits
    n = ceil(scaled) if round_up else floor(scaled)
    if digits == 0:
        return str(n)
    sign = "-" if n < 0 else ""
    s = str(abs(n)).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


@dataclass(frozen=True)
class IntervalReal:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", _Q(self.lo))
        object.__setattr__(self, "hi", _Q(self.hi))
        if self.lo > self.hi:
            raise DomainError(f"interval endpoints out of order: {self.lo} > {self.hi}")

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
        if k < 0:
            raise DomainError(f"power requires k >= 0 (got {k})")
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
        if self.lo <= 0 <= self.hi:
            raise DomainError("reciprocal of an interval containing zero")
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
        if bits < 1:
            raise DomainError(f"bits must be >= 1 (got {bits})")
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


@dataclass(frozen=True)
class EForm:
    """The rational-linear expression a + b*e + c*(1/e)."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _Q(self.a))
        object.__setattr__(self, "b", _Q(self.b))
        object.__setattr__(self, "c", _Q(self.c))

    @property
    def is_rational(self) -> bool:
        return self.b == 0 and self.c == 0

    @classmethod
    def from_rational(cls, q) -> "EForm":
        return cls(_Q(q), _ZERO, _ZERO)

    def __add__(self, other) -> "EForm":
        if isinstance(other, EForm):
            return EForm(self.a + other.a, self.b + other.b, self.c + other.c)
        return EForm(self.a + _Q(other), self.b, self.c)

    __radd__ = __add__

    def __neg__(self) -> "EForm":
        return EForm(-self.a, -self.b, -self.c)

    def __sub__(self, other) -> "EForm":
        if not isinstance(other, EForm):
            other = EForm.from_rational(other)
        return self + (-other)

    def __rsub__(self, other) -> "EForm":
        return (-self) + _Q(other)

    def scale(self, q) -> "EForm":
        q = _Q(q)
        return EForm(self.a * q, self.b * q, self.c * q)

    def to_triple(self) -> tuple[str, str, str]:
        return (str(self.a), str(self.b), str(self.c))


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


def _series(k: int, x: int) -> tuple[int, int]:
    """(sum_{i=0}^k x^i * k!/i!, k!): S_k for x = 1, D_k for x = -1."""
    p, q = _split(0, k, x)
    return q + p, q


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


def _k_for_e(precision_bits: int) -> int:
    """Least k >= 1 with k!*k >= 2^p: the e bracket at k has width 1/(k!*k).

    A log-gamma estimate picks k; the exact test moves it to the least
    such k, so the index, and every bracket, does not depend on floats.
    """
    p = precision_bits
    k = _estimate(p, lambda k: math.lgamma(k + 1) + math.log(k))
    f = math.factorial(k)
    while (f * k).bit_length() <= p:  # x >= 2^p  iff  bit_length(x) >= p+1
        k += 1
        f *= k
    while k > 1 and (f // k * (k - 1)).bit_length() > p:
        f //= k
        k -= 1
    return k


def _k_for_e_inv(precision_bits: int) -> int:
    """Least k >= 1 with (2k)! >= 2^p: the 1/e bracket at k has width 1/(2k)!."""
    p = precision_bits
    k = _estimate(p, lambda k: math.lgamma(2 * k + 1))
    f = math.factorial(2 * k)
    while f.bit_length() <= p:
        k += 1
        f *= 2 * k * (2 * k - 1)
    while k > 1 and (f // (2 * k * (2 * k - 1))).bit_length() > p:
        f //= 2 * k * (2 * k - 1)
        k -= 1
    return k


def _check_precision(what: str, precision_bits: int) -> None:
    if precision_bits < 0:
        raise DomainError(f"precision_bits must be >= 0 (got {precision_bits})")
    cap = _resolve_cap(None)
    if precision_bits > cap:
        raise PrecisionCapError(
            f"{what} at {precision_bits} bits is above the precision cap of {cap} bits"
        )


def enclose_e(precision_bits: int) -> IntervalReal:
    """Enclosure of e of width at most 2^-precision_bits.

    Lower endpoint is the exact partial sum S_k/k!; the width is the
    tail bound 1/(k!*k).  Raises PrecisionCapError, before any work,
    when precision_bits is above the precision cap.
    """
    _check_precision("enclose_e", precision_bits)
    k = _k_for_e(precision_bits)
    s, f = _series(k, 1)
    lo = _Q(s, f)
    return IntervalReal(lo, lo + _Q(1, f * k))


def enclose_e_inv(precision_bits: int) -> IntervalReal:
    """Enclosure of 1/e of width at most 2^-precision_bits.

    Consecutive partial sums of the alternating series sum (-1)^i/i!
    bracket the limit; with D_m the m-th derangement number the partial
    sum through i = m is exactly D_m/m!, so the bracket is
    [D_{2k-1}/(2k-1)!, D_{2k}/(2k)!] of width 1/(2k)!, and
    D_{2k} = 2k*D_{2k-1} + 1.  Raises PrecisionCapError, before any
    work, when precision_bits is above the precision cap.
    """
    _check_precision("enclose_e_inv", precision_bits)
    k = _k_for_e_inv(precision_bits)
    d, f = _series(2 * k - 1, -1)
    return IntervalReal(_Q(d, f), _Q(2 * k * d + 1, 2 * k * f))


def eform_eval(f: EForm, precision_bits: int) -> IntervalReal:
    """Interval enclosure of a + b*e + c/e.

    The width is at most (|b| + |c|) * 2^-precision_bits: each enclosure
    is evaluated at precision_bits, and scaling by a rational multiplies
    its width by the rational's magnitude.
    """
    iv = IntervalReal.point(f.a)
    if f.b != 0:
        iv = iv + enclose_e(precision_bits) * f.b
    if f.c != 0:
        iv = iv + enclose_e_inv(precision_bits) * f.c
    return iv


# --- fixed-point kernel -----------------------------------------------

# _FIXED[name] = (P, lo, hi) with lo <= x * 2^P <= hi, for x = e or 1/e.
# It only ever grows, to exactly the largest precision asked for.  The
# builders share no state, so a triple is built outside _FIXED_LOCK and
# only swapped in under it.
_FIXED_LOCK = threading.Lock()
_FIXED = {"e": (0, 2, 3), "e_inv": (0, 0, 1)}


def _build_e(bits: int) -> tuple[int, int, int]:
    # e - S_k/k! < 1/(k!*k) <= 2^-bits, so lo + 2 bounds e * 2^bits.
    s, f = _series(_k_for_e(bits), 1)
    lo = (s << bits) // f
    return bits, lo, lo + 2


def _build_e_inv(bits: int) -> tuple[int, int, int]:
    # 1/e - D_{2k-1}/(2k-1)! < 1/(2k)! <= 2^-bits, so lo + 2 bounds it.
    d, f = _series(2 * _k_for_e_inv(bits) - 1, -1)
    lo = (d << bits) // f
    return bits, lo, lo + 2


_BUILDERS = {"e": _build_e, "e_inv": _build_e_inv}


def _fixed(name: str, p: int) -> tuple[int, int]:
    """Integers lo <= x * 2^p <= hi for x = e or 1/e; hi - lo <= 2."""
    triple = _FIXED[name]
    if triple[0] < p:
        triple = _BUILDERS[name](p)
        with _FIXED_LOCK:
            if _FIXED[name][0] < p:
                _FIXED[name] = triple
    big_p, lo, hi = triple
    shift = big_p - p
    return lo >> shift, -(-hi >> shift)


def _integer_form(f: EForm) -> tuple[int, int, int, int]:
    """Integers (A, B, C, D) with f = (A + B*e + C/e) / D and D > 0."""
    a, b, c = f.a, f.b, f.c
    ad, bd, cd = a.denominator, b.denominator, c.denominator
    return a.numerator * bd * cd, b.numerator * ad * cd, c.numerator * ad * bd, ad * bd * cd


def eform_bounds(f: EForm, p: int) -> tuple[int, int]:
    """Integers lo <= (a + b*e + c/e) * 2^p <= hi, rounded outward.

    e and 1/e enter as fixed-point enclosures of width at most 2 * 2^-p,
    and the one division by the common denominator of a, b, c floors lo
    and ceils hi, so (hi - lo) * 2^-p < 2 * (|b| + |c|) * 2^-p + 2^(1-p).
    """
    if p < 0:
        raise DomainError(f"precision_bits must be >= 0 (got {p})")
    big_a, big_b, big_c, den = _integer_form(f)
    lo, spread = big_a << p, 0
    for num, name in ((big_b, "e"), (big_c, "e_inv")):
        if num:
            x_lo, x_hi = _fixed(name, p)
            lo += num * (x_lo if num > 0 else x_hi)
            spread += abs(num) * (x_hi - x_lo)
    q, r = divmod(lo, den)
    return q, q - (-(r + spread) // den)


@dataclass(frozen=True)
class CertifiedFloor:
    """Floor value together with the precision that decided it.

    precision_bits is 0 when the form was rational and no interval
    refinement was needed.
    """

    value: int
    precision_bits: int


def _start_bits(f: EForm) -> int:
    # Normalize for the coefficient scale: |a| + 3|b| + |c| bounds the
    # magnitude, so 64 guard bits survive the cancellation in a + b*e + c/e.
    big_a, big_b, big_c, den = _integer_form(f)
    return 64 + ((abs(big_a) + 3 * abs(big_b) + abs(big_c)) // den).bit_length()


def _decide_floor(lo: int, hi: int, p: int) -> int | None:
    lo >>= p
    return lo if lo == hi >> p else None


def _decide_sign(lo: int, hi: int, p: int) -> int | None:
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    return None


def _guard_bits(f: EForm) -> int:
    # Extra bits that keep the kernel's own rounding, 2^(1-p), below the
    # error (|b| + |c|) * 2^-p that the enclosures of e and 1/e carry at
    # p, so forms with tiny b and c decide at the same p as eform_eval.
    _, big_b, big_c, den = _integer_form(f)
    return max(0, 2 + den.bit_length() - (abs(big_b) + abs(big_c)).bit_length())


def _refine(
    f: EForm, start_bits: int | None, cap: int | None, decide, what: str
) -> tuple[int, int]:
    """(answer, p) at the first p, doubling from the start, where
    decide(lo, hi, bits) answers on the eform_bounds of f at p plus the
    guard bits; PrecisionCapError once p passes the cap."""
    cap = _resolve_cap(cap)
    p = max(8, _start_bits(f) if start_bits is None else start_bits)
    guard = _guard_bits(f)
    while p <= cap:
        lo, hi = eform_bounds(f, p + guard)
        result = decide(lo, hi, p + guard)
        if result is not None:
            return result, p
        p *= 2
    raise PrecisionCapError(
        f"{what} of {f.to_triple()} undecided at precision cap {cap} bits"
    )


def certified_floor_info(
    f: EForm,
    *,
    start_bits: int | None = None,
    max_precision_bits: int | None = None,
) -> CertifiedFloor:
    """Floor of f with the deciding precision, by adaptive refinement.

    Precision doubles until both interval endpoints share a floor.  The
    result does not depend on the starting precision: any enclosure
    whose endpoints agree on a floor yields the floor of the enclosed
    value.
    """
    if f.is_rational:
        return CertifiedFloor(floor(f.a), 0)
    return CertifiedFloor(*_refine(f, start_bits, max_precision_bits, _decide_floor, "floor"))


def certified_floor(
    f: EForm,
    *,
    start_bits: int | None = None,
    max_precision_bits: int | None = None,
) -> int:
    """Certified floor of a + b*e + c/e; see certified_floor_info."""
    return certified_floor_info(
        f, start_bits=start_bits, max_precision_bits=max_precision_bits
    ).value


def eform_sign(f: EForm, *, max_precision_bits: int | None = None) -> int:
    """Sign of f as -1, 0 or 1.

    Exact for rational forms (the only way to return 0); otherwise the
    enclosure is refined until it excludes zero.
    """
    if f.is_rational:
        return (f.a > 0) - (f.a < 0)
    return _refine(f, None, max_precision_bits, _decide_sign, "sign")[0]


def eform_lt(f: EForm, g: EForm, *, max_precision_bits: int | None = None) -> bool:
    """Certified strict comparison f < g."""
    return eform_sign(g - f, max_precision_bits=max_precision_bits) == 1


def frac_e_nfact(n: int) -> EForm:
    """Fractional part of e*n! as the EForm e*n! - floor(e*n!), n >= 1.

    The floor is supplied by the exact partial-sum route; the identity
    floor(e*n!) = sum_{i=0}^n n!/i! is itself checked elsewhere by the
    certified route.
    """
    if n < 1:
        raise DomainError(f"frac_e_nfact requires n >= 1 (got {n})")
    return EForm(-partial_sum_pos(n), factorial(n), _ZERO)

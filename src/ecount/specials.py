"""Hypergeometric and incomplete-gamma forms of the counting results.

The terminating series

    F(n; x) = sum_{k=0}^n (-1)^k * (n!/(n-k)!) * x^k

(a 2F0 with a negative integer parameter) packages the derangement
polynomial: x^n * F(n; -1/x) = D_n(x), and its values at x = -1 and
x = 1 are floor(e*n!) and (-1)^n * floor((n!+1)/e).

The lower 1F1 series with parameters (n+1, n+2) at -x evaluates to
(n+1) * (n! - e^-x * D_n(x)) / x^(n+1); both sides are computed here as
certified intervals from independent routes and must overlap.

Finally, integral over [z, inf) of e^-t * t^n dt equals e^-z * D_n(z),
which turns six specific integrals of e^-t * t^n into exact e-linear
closed forms; each must lie in its enclosure from the rigorous
quadrature oracle, a containment the certified kernel decides.
One quadrature pass, cut at -1, 0 and 1, gives the enclosures of all six:
the finite ranges are sums of their own panels, and the ranges to
infinity add the panels beyond and the tail bound.

Both hot routes work with integers at a scale 2^-w and round outward,
with `Fraction` kept at the API edge:

* `exp_enclosure` reduces the argument, r = |x| / 2^s <= 2^-8, sums the
  Taylor series of e^r with floored terms for the lower and ceiled terms
  for the upper endpoint plus a tail bound, squares the interval s times
  (floor below, ceiling above) and, for x < 0, takes the reciprocal
  interval.  It shares no code with the certified kernel's enclosures of
  e and 1/e or with the quadrature oracle's e^x, so the tests that
  compare those routes compare independent computations.
* the series side of `hyp1f1` carries each term as an integer interval,
  swapping floor and ceiling when the term ratio is negative, with guard
  bits taken from the largest term; if the width still misses 2^-bits
  the guard doubles and the sum runs again.
* Gamma(n+1, z) = e^-z * D_n(z) has one integer route, `_gamma_ints`:
  the exp step's integers times the numerator and denominator of
  D_n(z), swapped once for D_n(z) < 0, over one denominator.
  `inc_gamma_int` returns that interval, and the closed-form side of
  `hyp1f1`, (n+1)/x^(n+1) * (n! - Gamma(n+1, x)), is built from it and
  meets the series in two cross-multiplied integer comparisons.

Both read the integers of x for their set-up, so a Fraction is made only
for a returned interval or a failure message.  Each works out its
precision w before any big work and passes it to `_check_cap`, the
certified layer's one cap test, which raises PrecisionCapError when w
passes the precision cap (ECOUNT_PRECISION_CAP, else 2^20 bits),
instead of running for hours; it names n and x = num/den only when it
refuses, an x wider than 256 bits by its bit lengths and such a w as
"at least 2^k".  For a
positive argument `inc_gamma_int` and `hyp1f1` also bound the exp
step's bits from below through D_n(x) >= n!, and test that bound
before evaluating D_n(x).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from . import _LAYERS
from .certified import (
    EForm,
    IntervalReal,
    _ceil_log2,
    _check_cap,
    certified_floor,
    eform_eval,
    eform_sign,
)
from .counts import derangement_eq2
from .errors import InvariantViolation, _name, _require
from .exact import derangements, dpoly_eval, factorial, partial_sum_pos

__all__ = [*_LAYERS["specials"]]

_Q = Fraction

# Rational bounds: 14426/10000 < log2(e) < 14427/10000, log2(3) < 317/200.
_LOG2_E_DOWN = _Q(14426, 10000)
_LOG2_E_UP = _Q(14427, 10000)
_LOG2_3_UP = _Q(317, 200)


class GammaQuery(namedtuple("GammaQuery", "n z precision_bits")):
    """Arguments of the incomplete-gamma evaluation Gamma(n+1, z): ints
    n and precision_bits, a rational z."""

    __slots__ = ()


def hyp2f0(n: int, x: Fraction) -> Fraction:
    """Exact sum of the terminating series F(n; x).

    Terms follow the ratio t_{k+1} = t_k * (k - n) * x, so the series
    stops by itself after n+1 terms.  With x = p/q it runs on integers:
    term is t_k * q^k and acc the k-th partial sum times q^k.
    """
    _require(n >= 0, "hyp2f0 requires n >= 0 (got {})", n)
    p, q = _Q(x).as_integer_ratio()
    term = acc = 1
    for k in range(n):
        term *= (k - n) * p
        acc = acc * q + term
    return _Q(acc, q**n)


def hyp2f0_identity_check(n: int, x: Fraction) -> Fraction:
    """Evaluate x^n * F(n; -1/x) and certify it equals D_n(x) exactly."""
    x = _Q(x)
    _require(x != 0, "hyp2f0_identity_check requires x != 0")
    value = hyp2f0(n, -1 / x) * x**n
    expected = dpoly_eval(n, x)
    if value != expected:
        raise InvariantViolation(
            f"hyp2f0 transform at n={_name(n)}, x={_name(x)}: got {_name(value)}, "
            f"polynomial gives {_name(expected)}"
        )
    return value


def hyp2f0_special(n: int, sign: int) -> int:
    """F(n; -1) = floor(e*n!) and F(n; 1) = (-1)^n * floor((n!+1)/e).

    `sign` selects the evaluation point x = sign; n >= 1.  The series
    value is checked against the independent floor route and returned.
    """
    _require(n >= 1, "hyp2f0_special requires n >= 1 (got {})", n)
    _require(sign in (-1, 1), "sign must be -1 or 1 (got {})", sign)
    value = hyp2f0(n, _Q(sign))
    if sign == -1:
        expected = _Q(partial_sum_pos(n))
    else:
        expected = _Q((-1) ** n * derangement_eq2(n))
    if value != expected:
        raise InvariantViolation(
            f"hyp2f0 special value at n={_name(n)}, x={sign}: got {_name(value)}, "
            f"expected {_name(expected)}"
        )
    return int(expected)


def _square_out(lo: int, hi: int, w: int, s: int) -> tuple[int, int]:
    """Bounds on (lo 2^-w)^(2^s) and (hi 2^-w)^(2^s) at scale 2^-w.

    Each squaring floors the lower and ceils the upper endpoint.
    """
    for _ in range(s):
        lo = lo * lo >> w
        hi = -(-hi * hi >> w)
    return lo, hi


def _mul_up(a: int, den: int, c: Fraction) -> int:
    """ceil(a / den * c) for integers a and den > 0."""
    return -(-a * c.numerator // (den * c.denominator))


def _log2_factorial_down(n: int) -> int:
    """A lower bound on log2(n!), from n! >= (n/e)^n and
    log2(n) >= bit_length(n) - 1; it needs no factorial and no float."""
    return n * (n.bit_length() - 1) - _mul_up(n, 1, _LOG2_E_UP)


def _exp_ints(num: int, den: int, bits: int) -> tuple[int, int, int]:
    """e^x at x = num/den in lowest terms, as (lo, hi, k) with
    lo / 2^k <= e^x <= hi / 2^k: the integers of `exp_enclosure`."""
    if num == 0:
        return 1, 1, 0
    a = abs(num)
    s = max(0, _ceil_log2(a, den) + 8)
    if num > 0:
        t = bits
        mag = _mul_up(a, den, _LOG2_E_UP)  # E <= 2^mag
    else:
        # 2^-t <= 3^-(floor(-x)+1) * 2^-bits, and 1/E <= 2^(mag-1)
        t = bits + _mul_up(a // den + 1, 1, _LOG2_3_UP)
        mag = 1 - a * _LOG2_E_DOWN.numerator // (den * _LOG2_E_DOWN.denominator)
    base = t + mag + s
    g = base.bit_length() + 4
    w = base + g
    _check_cap(max(w, t + 2), "exp_enclosure at x={}", (num, den))

    one = 1 << w
    den <<= s
    small = 1 << (g - 3)
    lo = hi = t_lo = t_hi = one
    k = 1
    while True:
        t_lo = t_lo * a // (den * k)
        t_hi = -(-t_hi * a // (den * k))
        if t_hi <= small:
            break
        lo += t_lo
        hi += t_hi
        k += 1
    # the terms from the k-th on sum to at most t_k / (1 - r/(k+1)),
    # and r/(k+1) <= 2^-9
    lo += t_lo
    hi += t_hi + (t_hi >> 8) + 1
    lo, hi = _square_out(lo, hi, w, s)
    if num > 0:
        return lo, hi, w
    top = 1 << (w + t + 2)
    return top // hi, -(-top // lo), t + 2


def exp_enclosure(x: Fraction, precision_bits: int) -> IntervalReal:
    """Certified enclosure of e^x with dyadic endpoints.

    The width is at most 2^-precision_bits for x > 0 and at most
    3^-(floor(-x)+1) * 2^-precision_bits for x < 0, so it stays small
    relative to the value also for strongly negative x.

    With a = |x| and r = a / 2^s <= 2^-8, E = e^a = (e^r)^(2^s) is
    bounded at scale 2^-w.  The Taylor sum of e^r floors each term for
    the lower and ceils it for the upper endpoint; it stops at the first
    term of at most 2^(g-3) units, and that term times (1 + 2^-8) bounds
    it and all that follow.  `_square_out` then squares s times, each
    squaring at most doubling the relative width and adding 2^(1-w), so
    g guard bits cover the roughly w/8 rounded terms and the squarings.
    For x > 0 the width asked for is 2^-t, and w adds mag >= log2(E)
    bits.  For x < 0 the result is [1/hi, 1/lo] at scale 2^-(t+2); its
    width is about the relative width of E divided by E, so w needs
    fewer bits by about log2(E).  s, t and mag come from the numerator
    and denominator of x by integer floor and ceiling (`_exp_ints`).
    Raises PrecisionCapError when w or t + 2 passes the precision cap.
    """
    _require(precision_bits >= 1, "precision_bits must be >= 1 (got {})", precision_bits)
    x = _Q(x)
    lo, hi, k = _exp_ints(x.numerator, x.denominator, precision_bits)
    return IntervalReal(_Q(lo, 1 << k), _Q(hi, 1 << k))


def _gamma_ints(n: int, z: Fraction, bits: int) -> tuple[int, int, int]:
    """Gamma(n+1, z) = e^-z * D_n(z) as (lo, hi, den), den > 0, at most
    2^-(bits+2) wide for any integer bits: with D_n(z) = dn/dd, |dn/dd| <=
    2^a for a >= 0 and e^-z in [e_lo, e_hi] / 2^k from `_exp_ints` at
    max(bits + a, 0) + 2 bits, it is [e_lo * dn, e_hi * dn] / (dd * 2^k),
    the endpoints swapped for dn < 0."""
    d = dpoly_eval(n, z)
    dn, dd = d.numerator, d.denominator
    a = _ceil_log2(abs(dn), dd) if abs(dn) > dd else 0
    lo, hi, k = _exp_ints(-z.numerator, z.denominator, max(bits + a, 0) + 2)
    if dn < 0:
        lo, hi = hi, lo
    return lo * dn, hi * dn, dd << k


def inc_gamma_int(query: GammaQuery) -> IntervalReal:
    """Certified enclosure of Gamma(n+1, z) = e^-z * D_n(z), the interval
    of `_gamma_ints`, at most 2^-(precision_bits+2) wide.

    For z > 0 every term of D_n(z) is positive, so D_n(z) >= n! and the
    exp step needs at least precision_bits + log2(n!) + 6 bits; that bound
    meets the precision cap before `dpoly_eval` runs.  For z <= 0, D_n(z)
    is evaluated first and the exp step checks the cap.
    """
    n, z, bits = query.n, _Q(query.z), query.precision_bits
    _require(n >= 0, "inc_gamma_int requires n >= 0 (got {})", n)
    _require(bits >= 1, "precision_bits must be >= 1 (got {})", bits)
    zn, zd = z.numerator, z.denominator
    if zn > 0:
        _check_cap(bits + _log2_factorial_down(n) + 6, "inc_gamma_int at n={}, z={}", n, (zn, zd))
    lo, hi, den = _gamma_ints(n, z, bits)
    return IntervalReal(_Q(lo, den), _Q(hi, den))


def _series_ints(n: int, num: int, den: int, bits: int) -> tuple[int, int, int]:
    """The 1F1 series of `hyp1f1` at x = num/den in lowest terms, as
    (lo, hi, w) with the sum in [lo, hi] / 2^w and hi - lo <= 2^(w-bits).

    Each term is an integer interval [lo, hi]; multiplying it by the
    ratio p/q floors the lower and ceils the upper endpoint, taking them
    from the other end when p < 0.  Every term is at most e^|x| <= 2^mag,
    so each of the K rounded terms carries error of order 2^mag units and
    the guard is mag + log2(K) bits; if the width still misses 2^-bits
    the guard doubles and the sum runs again.  The ratio's magnitude is
    below 1/2 from the term after k_geo = ceil(2|x|) - 1 on: for rational
    x, 2|x| <= k + 1 exactly when k >= k_geo, so the loop tests ints only.
    """
    a = abs(num)
    mag = _mul_up(a, den, _LOG2_E_UP)
    two_ax = -(-2 * a // den)
    k_geo = two_ax - 1
    # about 2|x| terms until the ratio drops to 1/2, then mag + bits more
    terms = two_ax + mag + bits + 2
    guard = mag + terms.bit_length() + 2
    while True:
        # the tail target 2^-(bits+1) is 2^guard units
        w = bits + 1 + guard
        _check_cap(w, "hyp1f1 series at n={}, x={}", n, (num, den))
        lo = hi = acc_lo = acc_hi = 1 << w
        k = 0
        while True:
            p = -num * (n + 1 + k)
            q = den * (n + 2 + k) * (k + 1)
            if p >= 0:
                lo, hi = lo * p // q, -(-hi * p // q)
            else:
                lo, hi = hi * p // q, -(-lo * p // q)
            k += 1
            acc_lo += lo
            acc_hi += hi
            # after the ratio drops below 1/2 the tail is geometric
            if k >= k_geo:
                big = 2 * max(-lo, hi) * a * (n + 2 + k)
                bound = -(-big // (den * (n + 3 + k) * (k + 1)))
                if bound <= 1 << guard:
                    break
        acc_lo -= bound
        acc_hi += bound
        if acc_hi - acc_lo <= 1 << (guard + 1):
            return acc_lo, acc_hi, w
        guard *= 2


def _meets(a_lo: int, a_hi: int, a_den: int, b_lo: int, b_hi: int, b_den: int) -> bool:
    """Whether [a_lo, a_hi] / a_den and [b_lo, b_hi] / b_den overlap, for
    positive denominators: two cross-multiplied integer comparisons."""
    return a_lo * b_den <= b_hi * a_den and b_lo * a_den <= a_hi * b_den


def hyp1f1(n: int, x: Fraction, precision_bits: int) -> IntervalReal:
    """Lower 1F1 series with parameters (n+1, n+2) evaluated at -x.

    Direct route (`_series_ints`, over integers): partial sums with term
    ratio t_{k+1}/t_k = -x * (n+1+k) / ((n+2+k) * (k+1)), truncated
    once the ratio magnitude stays below 1/2, with a geometric tail
    bound.  For x != 0 the enclosure must overlap the closed form
    (n+1) * (n! - Gamma(n+1, x)) / x^(n+1), an independent route through
    the integers of `_gamma_ints` at precision_bits +
    ceil(log2 |(n+1) / x^(n+1)|) + 2 bits, so at most
    2^-(precision_bits+4) wide; the overlap is two cross-multiplied
    integer comparisons (`_meets`).  For x > 0 every term of D_n(x) is
    positive, so D_n(x) >= n! and the exp step needs at least
    precision_bits + log2((n+1)!) - (n+1) * log2(x) + 8 bits; that bound
    meets the precision cap before the series and `dpoly_eval` run.  For
    x < 0 the series and D_n(x) are evaluated first and the exp step
    checks the cap.
    """
    _require(n >= 0, "hyp1f1 requires n >= 0 (got {})", n)
    _require(precision_bits >= 1, "precision_bits must be >= 1 (got {})", precision_bits)
    x = _Q(x)
    num, den = x.numerator, x.denominator
    if num == 0:
        return IntervalReal.point(1)
    if num > 0:
        spare = _log2_factorial_down(n + 1) - (n + 1) * _ceil_log2(num, den)
        _check_cap(precision_bits + max(spare, 0) + 8, "hyp1f1 at n={}, x={}", n, (num, den))

    s_lo, s_hi, w = _series_ints(n, num, den, precision_bits)

    # (n+1) / x^(n+1) = sn / sd with sn > 0
    sn, sd = (n + 1) * den ** (n + 1), num ** (n + 1)
    g_lo, g_hi, g_den = _gamma_ints(n, x, precision_bits + _ceil_log2(sn, abs(sd)) + 2)
    u = factorial(n) * g_den
    c_lo, c_hi, c_den = (u - g_hi) * sn, (u - g_lo) * sn, g_den * sd
    if sd < 0:
        c_lo, c_hi, c_den = -c_hi, -c_lo, -c_den
    series_iv = IntervalReal(_Q(s_lo, 1 << w), _Q(s_hi, 1 << w))
    if not _meets(s_lo, s_hi, 1 << w, c_lo, c_hi, c_den):
        closed_iv = IntervalReal(_Q(c_lo, c_den), _Q(c_hi, c_den))
        raise InvariantViolation(
            f"hyp1f1 routes disagree at n={_name(n)}, x={_name(x)}: "
            f"series {series_iv.to_decimal(20)}, closed form {closed_iv.to_decimal(20)}"
        )
    return series_iv


class IntegralIdentity(namedtuple("IntegralIdentity", "label closed_form enclosure")):
    """One checked integral of e^-t * t^n over a fixed range: its label,
    its closed form (an EForm) and its quadrature enclosure (an
    IntervalReal)."""

    __slots__ = ()


def integral_identities(
    n: int, tol: Fraction = _Q(1, 10**9)
) -> tuple[IntegralIdentity, ...]:
    """Six integrals of e^-t * t^n as exact EForms, against quadrature.

    Ranges: [-1, inf), [0, inf), [1, inf), [0, 1], [-1, 0], [-1, 1].
    Every floor entering a closed form is certified.  The [-1, 0] case
    is e*D_n - n!, that is -e * frac(n!/e) for odd n and
    e - e * frac(n!/e) for even n, and its sign (negative for odd n,
    positive for even n) is certified against the parity.
    The [-1, 1] case is e*D_n - floor(e*n!)/e; for n >= 2 the D_n here
    is produced as the two-floor difference
    floor((e + 1/e)*n!) - floor(e*n!), a rewriting that is only valid
    from n = 2 on.  Each closed form must lie in its quadrature
    enclosure, which the certified kernel decides as the signs of
    f - lo and hi - f, else InvariantViolation naming every range that
    fails, with the closed form's value printed to 15 digits from a
    64-bit enclosure.

    The enclosures come from one quadrature pass over [-1, U], cut at 0
    and 1, with pieces P1 = [-1, 0], P2 = [0, 1] and P3 = [1, U]:
    1..inf is P3 plus the tail bound, 0..inf and -1..inf add P2 and then
    P1, and the finite ranges are P2, P1 and P1 + P2, with no tail.  The
    ranges to infinity are at most tol wide, the finite ones tol/2.
    Raises PrecisionCapError if the pass runs out of its evaluation
    budget.
    """
    _require(n >= 1, "integral_identities requires n >= 1 (got {})", n)
    tol = _Q(tol)
    nf = factorial(n)
    dn = derangements(n)
    floor_e = certified_floor(EForm(0, nf, 0))
    floor_shift = derangement_eq2(n)
    # coefficient of e in the [-1, 1] form: the two-floor difference
    # needs n >= 2, below that the derangement number enters directly
    b_sym = certified_floor(EForm(0, nf, nf)) - floor_e if n >= 2 else dn

    # one quadrature pass: pieces over [-1, 0], [0, 1] and [1, U]; the
    # oracle loads here, so the other specials leave it unloaded
    from .oracles import _quad_pieces

    call = f"integral_identities(n={n})"
    (p_left, p_mid, p_right), tail, _ = _quad_pieces(n, [-1, 0, 1], tol, call)
    q_1 = p_right + IntervalReal(0, tail)
    q_0 = p_mid + q_1
    q_m1 = p_left + q_0

    # [-1, 0]: e*D_n - n!, whose sign follows the parity of n
    left_form = EForm(-nf, dn, 0)
    expected_sign = -1 if n % 2 else 1
    if eform_sign(left_form) != expected_sign:
        raise InvariantViolation(
            f"integral over [-1,0] at n={n}: sign does not match parity"
        )

    records = (
        IntegralIdentity("-1..inf", EForm(0, floor_shift, 0), q_m1),
        IntegralIdentity("0..inf", EForm(nf, 0, 0), q_0),
        IntegralIdentity("1..inf", EForm(0, 0, floor_e), q_1),
        IntegralIdentity("0..1", EForm(nf, 0, -floor_e), p_mid),
        IntegralIdentity("-1..0", left_form, p_left),
        IntegralIdentity("-1..1", EForm(0, b_sym, -floor_e), p_left + p_mid),
    )
    outside = [
        rec
        for rec in records
        if eform_sign(rec.closed_form - rec.enclosure.lo) < 0
        or eform_sign(rec.enclosure.hi - rec.closed_form) < 0
    ]
    if outside:
        raise InvariantViolation(
            "; ".join(
                f"integral over [{rec.label}] at n={n}: closed form "
                f"{eform_eval(rec.closed_form, 64).to_decimal(15)} "
                f"does not lie in quadrature {rec.enclosure.to_decimal(15)}"
                for rec in outside
            )
        )
    return records

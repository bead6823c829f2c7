"""Independent oracles: brute-force enumeration and rigorous quadrature.

The enumerators walk the actual objects (permutations, simple paths,
cycles) and are deliberately capped at sizes where exhaustive search is
cheap; they exist to audit the closed-form counts on small instances.

`quad_gamma` encloses the incomplete-gamma integral

    integral over [z, inf) of e^(-t) * t^n dt

without trusting any library error estimate.  The range is cut at an
integer U whose analytic tail bound

    integral over [U, inf) <= U^n * e^(-U) / (1 - n/U)      (U > n)

is below tol/2, and [z, U] is covered by panels of width <= 1.  On a
panel with midpoint m the factor e^-(t-m) is replaced by its Taylor
polynomial of order K; the truncation error is bounded by the same
geometric-tail estimate used everywhere in this package, and what
remains is a polynomial whose moment integral is an exact rational.
That rational is summed over one common denominator as integers
(`_panel_core`), and e^-m is enclosed at a scale 2^-p with integer
endpoints rounded outward (`_exp_iv`), from the certified kernel's
fixed-point enclosures of e and 1/e.  Each panel therefore yields a
certified interval, which is rounded outward to dyadic endpoints a few
bits finer than the panel's width share; the tail bound is rounded up
to a dyadic too, so the running total stays a sum of short dyadics.
Panel shares are chosen so the total width (panels plus tail) stays
below tol, and the width is checked after the rounding.

All of this is one panel pass, `_quad_pieces(n, cuts, tol)`, which also
splits the panels at a list of cut points and returns one enclosure per
piece between cuts.  `quad_gamma` calls it with the single cut z;
`specials.integral_identities` calls it once with the cuts -1, 0 and 1,
so the six integrals it checks share one set of panel evaluations.

The quadrature reads e and 1/e from `certified.eform_bounds` but no
closed form it audits: not derangement numbers, not D_n(z), not
`eform_eval`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import ceil, comb, factorial, floor, lcm
from operator import mul

from .certified import EForm, IntervalReal, ceil_log2, eform_bounds
from .errors import DomainError, PrecisionCapError

__all__ = [
    "EnumerationResult",
    "QuadratureResult",
    "MAX_BRUTE_DERANGEMENTS",
    "MAX_BRUTE_PATHS",
    "MAX_BRUTE_CYCLES",
    "brute_derangements",
    "brute_paths",
    "brute_cycles",
    "quad_gamma",
]

_Q = Fraction

MAX_BRUTE_DERANGEMENTS = 10
MAX_BRUTE_PATHS = 10
MAX_BRUTE_CYCLES = 8

# quad_gamma gives up after this many panel-enclosure computations
_EVAL_BUDGET = 50_000


@dataclass(frozen=True)
class EnumerationResult:
    """Count of enumerated objects and their total edge length."""

    count: int
    total_length: int


@dataclass(frozen=True)
class QuadratureResult:
    """Certified integral enclosure.

    evaluations counts panel-enclosure computations (including retries
    after subdivision); tail_bound dominates the discarded integral
    over [U, inf).
    """

    value: IntervalReal
    evaluations: int
    tail_bound: Fraction


def brute_derangements(n: int) -> int:
    """Count fixed-point-free permutations of range(n) by enumeration."""
    if not 0 <= n <= MAX_BRUTE_DERANGEMENTS:
        raise DomainError(
            f"brute_derangements requires 0 <= n <= {MAX_BRUTE_DERANGEMENTS} (got {n})"
        )
    return sum(1 for p in permutations(range(n)) if all(p[i] != i for i in range(n)))


def brute_paths(n: int, pair: tuple[int, int] = (0, 1)) -> EnumerationResult:
    """Enumerate simple paths between two fixed vertices of K_n.

    Each path is counted once (its endpoints are ordered by the pair),
    and total_length accumulates edge counts.
    """
    if not 3 <= n <= MAX_BRUTE_PATHS:
        raise DomainError(f"brute_paths requires 3 <= n <= {MAX_BRUTE_PATHS} (got {n})")
    u, v = pair
    if not (0 <= u < n and 0 <= v < n and u != v):
        raise DomainError(f"pair must name two distinct vertices of K_{n} (got {pair})")
    count = 0
    total = 0
    visited = [False] * n
    visited[u] = True

    def walk(cur: int, edges: int) -> None:
        nonlocal count, total
        for w in range(n):
            if w == v:
                count += 1
                total += edges + 1
            elif not visited[w]:
                visited[w] = True
                walk(w, edges + 1)
                visited[w] = False

    walk(u, 0)
    return EnumerationResult(count, total)


def brute_cycles(n: int, root: int = 0) -> EnumerationResult:
    """Enumerate cycles through a fixed vertex of K_n.

    A cycle is an ordered vertex sequence root, v_1, ..., v_{k-1}, root
    with distinct intermediate vertices and k >= 3 edges; the two
    orientations of an undirected cycle are counted separately.
    """
    if not 3 <= n <= MAX_BRUTE_CYCLES:
        raise DomainError(f"brute_cycles requires 3 <= n <= {MAX_BRUTE_CYCLES} (got {n})")
    if not 0 <= root < n:
        raise DomainError(f"root must be a vertex of K_{n} (got {root})")
    count = 0
    total = 0
    visited = [False] * n
    visited[root] = True

    def walk(cur: int, edges: int) -> None:
        nonlocal count, total
        for w in range(n):
            if w == root:
                if edges >= 2:
                    count += 1
                    total += edges + 1
            elif not visited[w]:
                visited[w] = True
                walk(w, edges + 1)
                visited[w] = False

    walk(root, 0)
    return EnumerationResult(count, total)


# --- rigorous quadrature ----------------------------------------------

_E = EForm(0, 1, 0)
_E_INV = EForm(0, 0, 1)

# Bits kept past a width share when an enclosure is rounded outward: the
# rounding then adds at most 2 * 2^-GUARD of the share to the width.
_GUARD_BITS = 4


def _exp_iv(x: Fraction, bits: int) -> IntervalReal:
    """Enclosure of e^x with dyadic endpoints, for rational x.

    The width is at most 2^-bits * max(1, e^x).  Splits x = q + r with
    integer q and r in [0, 1) and works with integers at scale 2^-p:
    e^q is the |q|-th power of the fixed-point enclosure of e (or 1/e)
    from the certified kernel, e^r a Taylor sum whose terms are floored
    for the lower and ceiled for the upper endpoint.  Every operand is
    nonnegative, so floor and ceiling keep each endpoint outward.
    """
    q = floor(x)
    r = x - q
    p = bits + bits.bit_length() + abs(q).bit_length() + 8
    one = 1 << p
    base_lo = base_hi = one
    if q:
        lo, hi = eform_bounds(_E if q > 0 else _E_INV, p)
        for _ in range(abs(q)):
            base_lo = base_lo * lo >> p
            base_hi = -(-base_hi * hi >> p)
    tay_lo = tay_hi = one
    if r:
        num, den = r.numerator, r.denominator
        t_lo = t_hi = one
        k = 0
        while t_hi > 1:
            k += 1
            t_lo = t_lo * num // (den * k)
            t_hi = -(-t_hi * num // (den * k))
            tay_lo += t_lo
            tay_hi += t_hi
        # the terms after the k-th sum to at most t_k * r / (k + 1 - r) <= t_k
        tay_hi += t_hi
    return IntervalReal(
        _Q(base_lo * tay_lo >> p, one), _Q(-(-base_hi * tay_hi >> p), one)
    )


def _abs_moment(n: int, a: Fraction, b: Fraction) -> Fraction:
    """Exact integral of |t|^n over [a, b]."""
    k = n + 1
    if a >= 0:
        return (b**k - a**k) / k
    if b <= 0:
        return ((-a) ** k - (-b) ** k) / k
    return (b**k + (-a) ** k) / k


def _panel_core(n: int, a: Fraction, b: Fraction, order: int) -> Fraction:
    """Exact value of the order-K Taylor surrogate integral on [a, b].

    integral of (sum_{j<=K} (-1)^j (t-m)^j / j!) * t^n dt, with
    m the panel midpoint.  Expanding t^n around m reduces everything to
    moments of u = t - m over [-half, half], which vanish for odd powers:

        sum over i <= n, j <= K, i + j even of
            C(n, i) m^(n-i) * (-1)^j / j! * 2 half^(i+j+1) / (i+j+1).

    With m = M/den and half = H/den every term is an integer over
    lcm(1..n+K+1) * K! * den^(n+K+1); the numerators are summed as
    integers and one Fraction is built at the end.
    """
    m = (a + b) / 2
    half = (b - a) / 2
    den = lcm(m.denominator, half.denominator)
    big_m = m.numerator * (den // m.denominator)
    big_h = half.numerator * (den // half.denominator)
    top = n + order + 1
    ell = lcm(*range(1, top + 1))
    # moment[s] = 2 H^(s+1) * ell / (s+1): the u^s moment for even s
    moment = [0] * top
    hp = big_h
    for s in range(top):
        if s % 2 == 0:
            moment[s] = 2 * hp * (ell // (s + 1))
        hp *= big_h
    # weight[j] = (-1)^j * (K!/j!) * den^(K-j)
    weight = [0] * (order + 1)
    w = 1
    for j in range(order, -1, -1):
        weight[j] = -w if j % 2 else w
        w *= j * den
    # m_pow[i] = C(n, i) * M^(n-i)
    m_pow = [0] * (n + 1)
    mp = 1
    for i in range(n, -1, -1):
        m_pow[i] = comb(n, i) * mp
        mp *= big_m
    total = 0
    for i in range(n + 1):
        # j runs over i % 2, i % 2 + 2, ..., so that i + j is even
        j0 = i % 2
        total += m_pow[i] * sum(map(mul, weight[j0::2], moment[i + j0 :: 2]))
    return _Q(total, ell * factorial(order) * den ** (n + order + 1))


def _panel(n: int, a: Fraction, b: Fraction, share: Fraction) -> IntervalReal | None:
    """Certified enclosure of the integral over one panel with dyadic
    endpoints, or None if the panel must be subdivided to meet its
    width share."""
    m = (a + b) / 2
    half = (b - a) / 2
    amom = _abs_moment(n, a, b)
    # crude rational bound on e^-m (3 > e covers the negative-m case)
    ebound = _Q(3) ** ceil(-m) if m < 0 else _Q(1)

    # smallest even order K <= 80 whose remainder bound
    #   rem = half^(K+1) / ((K+1)! * (1 - half/(K+2)))
    # has rem * amom * ebound <= share/4, compared over integers: with
    # half = hn/hd, rem = hn^(K+1) (K+2) / (hd^K (K+1)! ((K+2) hd - hn))
    hn, hd = half.numerator, half.denominator
    c = 4 * amom * ebound / share
    order = 6
    h_pow, d_pow, fact = hn**7, hd**6, factorial(7)
    while True:
        rem_num = h_pow * (order + 2)
        rem_den = d_pow * fact * ((order + 2) * hd - hn)
        if c.numerator * rem_num <= c.denominator * rem_den:
            break
        order += 2
        if order > 80:
            return None
        h_pow *= hn * hn
        d_pow *= hd * hd
        fact *= order * (order + 1)
    core = _panel_core(n, a, b, order)
    err = _Q(rem_num, rem_den) * amom
    inner = IntervalReal(core - err, core + err)

    mag = max(abs(inner.lo), abs(inner.hi))
    if mag == 0:
        bits = 16
    else:
        bits = max(16, ceil_log2(4 * mag * ebound / share))
    out_bits = max(1, ceil_log2(1 / share) + _GUARD_BITS)
    for _ in range(3):
        out = (_exp_iv(-m, bits) * inner).round_out(out_bits)
        if out.width <= share:
            return out
        bits *= 2
    return None


def _quad_pieces(
    n: int, cuts: list[Fraction], tol: Fraction
) -> tuple[list[IntervalReal], Fraction, int]:
    """One panel pass over [cuts[0], U] for integral of e^-t * t^n dt.

    cuts is an increasing list of rationals.  Returns one dyadic
    enclosure per piece [cuts[i], cuts[i+1]], the last piece running to
    the cut-off U, plus the tail bound for [U, inf) and the number of
    panel evaluations.  The panels are the unit panels of [cuts[0], U],
    also split at each cut, and a panel's width share is
    tol/2 * width / (U - cuts[0]), so the pieces together are at most
    tol/2 wide.  Raises PrecisionCapError if the evaluation budget runs
    out before every panel meets its share.
    """
    if n < 0:
        raise DomainError(f"quad_gamma requires n >= 0 (got n={n})")
    cuts = [_Q(c) for c in cuts]
    tol = _Q(tol)
    if tol <= 0:
        raise DomainError(f"quad_gamma requires tol > 0 (got {tol})")
    z = cuts[0]

    # upper cutoff: smallest integer U past every cut with the analytic
    # tail, rounded up to a dyadic, below tol/2; with e^-1 <= h / 2^64
    # the tail bound is U^(n+1) * h^U / ((U - n) * 2^(64 U))
    _, einv_hi = eform_bounds(_E_INV, 64)
    tail_bits = max(1, ceil_log2(2 / tol) + _GUARD_BITS)
    u = max(2 * n + 1, ceil(cuts[-1]) + 1, 6)
    pw = einv_hi**u
    while True:
        num = u ** (n + 1) * pw << tail_bits
        tail = _Q(-(-num // ((u - n) << (64 * u))), 1 << tail_bits)
        if tail <= tol / 2:
            break
        u += 1
        pw *= einv_hi

    # unit panels aligned to integers, split at the cuts
    points = sorted(set(cuts) | {_Q(k) for k in range(floor(z) + 1, u + 1)})

    length = _Q(u) - z
    evals = 0
    pieces = [IntervalReal.point(0)] * len(cuts)
    stack = [
        (a, b, (tol / 2) * (b - a) / length, bisect_right(cuts, a) - 1)
        for a, b in zip(points, points[1:])
    ]
    while stack:
        a, b, share, piece = stack.pop()
        evals += 1
        if evals > _EVAL_BUDGET:
            raise PrecisionCapError(
                f"quad_gamma(n={n}, z={z}): evaluation budget exhausted before tol={tol}"
            )
        enclosure = _panel(n, a, b, share)
        if enclosure is None:
            mid = (a + b) / 2
            stack.append((a, mid, share / 2, piece))
            stack.append((mid, b, share / 2, piece))
            continue
        pieces[piece] = pieces[piece] + enclosure
    return pieces, tail, evals


def quad_gamma(n: int, z: Fraction, tol: Fraction) -> QuadratureResult:
    """Certified enclosure of integral over [z, inf) of e^-t * t^n dt.

    The returned interval has width <= tol.  Raises PrecisionCapError
    if the evaluation budget runs out before the tolerance is met.
    """
    (piece,), tail, evals = _quad_pieces(n, [z], tol)
    return QuadratureResult(
        value=piece + IntervalReal(0, tail), evaluations=evals, tail_bound=tail
    )

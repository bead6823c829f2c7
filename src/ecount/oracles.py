"""Independent oracles: brute-force enumeration and rigorous quadrature.

The enumerators walk the actual objects (permutations, simple paths,
cycles) and are deliberately capped at sizes where exhaustive search is
cheap; they exist to audit the closed-form counts on small instances.

`quad_gamma` encloses the incomplete-gamma integral

    integral over [z, inf) of e^(-t) * t^n dt

without trusting any library error estimate.  The range is cut at an
integer U whose analytic tail bound

    integral over [U, inf) <= U^n * e^(-U) / (1 - n/U)      (U > n)

is below tol/2 (the least such U, guessed in floats and confirmed
exactly).  The panels of [z, U] are sized to the integrand, whose
peak at t = n is about sqrt(n) wide: the grid holds every integer in
(z, 1], the multiples in [z, U) of a power of two w near sqrt(n + 1)
(1 at n = 0, 2 at n = 1..6, 4 at n = 7..30, ..., 16 at n = 127..510)
and U.  On a panel with midpoint m the factor e^-(t-m) is replaced by
its Taylor polynomial of the smallest order K on the ladder 16, 32, ...
whose truncation error, times the integral of |t|^n over the panel and
a bound on e^-m (3^ceil(-m) for m < 0, 2^-floor(m) for m >= 0, as
2 < e < 3), meets a quarter of the panel's share; a panel that no order
serves is halved.  The ladder stops at _MAX_ORDER (240) left of 0,
where the bits a panel needs grow with |m| without bound, and from 0 on
at max(240, 2(n + 1)) rounded up to a multiple of 16, since there
e^-m <= 1 and the peak of t^n e^-t bounds what a panel needs; at
n <= 119 both tops are 240.  The truncation error is bounded by the
same geometric-tail estimate used everywhere in this package, and what
remains is a polynomial whose moment integral is an exact rational
(`_PassTables.core`).  Its moment sums depend on the panel's width and
K but not on m, so they form one table per pass, built in O(n + K)
integer steps by integration by parts, and a panel's surrogate integral
is an integer Horner sum in its midpoint; the coarse ladder keeps the
tables of a pass few.  e^-m is enclosed at a scale 2^-p with integer
endpoints rounded outward (`_PassTables.exp`), from the certified
kernel's fixed-point enclosures of e and 1/e.  Its factors are worked
out at P, p rounded up to a multiple of 64, so one chain of powers of
e (or 1/e) serves every panel in that band, and the product is
shifted down to 2^-p.  All operands are nonnegative,
so a floored lower bound shifted right with floor stays a lower bound
and a ceiled upper bound shifted with ceiling stays an upper bound.
Each panel, an integer numerator pair over lcm(cut denominators) *
2^depth, yields a certified interval, worked out as integer numerators
over one denominator and rounded outward to dyadic endpoints a few
bits finer than the panel's width share; a piece's dyadics add up as
integers at the finest scale seen, and the tail bound is rounded up
to a dyadic too.  Panel shares are chosen so the total width (panels
plus tail) stays below tol, and the width is checked after the
rounding.

All of this is one panel pass, `_quad_pieces(n, cuts, tol)`, which also
splits the panels at a list of cut points and returns one enclosure per
piece between cuts.  `quad_gamma` calls it with the single cut z;
`specials.integral_identities` calls it once with the cuts -1, 0 and 1,
so the six integrals it checks share one set of panel evaluations.  The
pass keeps its tables (`_PassTables`: surrogate moments, remainder
bounds, powers of e and 1/e and Taylor sums of e^r at each scale) for
its own panels only and drops them when it returns.

Two refusals come before any work.  Each exact test of the cut-off
works on e^-U at about 64U bits, so when 64 times a lower bound on U
passes the precision cap, `certified._check_cap` refuses the call.  The
bound is the larger of max(2n + 1, last cut + 1, 6), the least U the
search may return, and ln(2/tol), as the tail bound is at least e^-U,
taken from tol's bit lengths.  Each integer in (z, 1] starts a panel of
at least one evaluation, so a z with more of them than the evaluation
budget is refused before the grid is built.

The quadrature reads e and 1/e from `certified.eform_bounds` but no
closed form it audits: not derangement numbers, not D_n(z), not
`eform_eval`.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from itertools import permutations, repeat
from math import ceil, factorial, floor, gcd, lcm, log, prod
from operator import ne

from . import _LAYERS
from .certified import EForm, IntervalReal, _ceil_log2, _check_cap, ceil_log2, eform_bounds
from .errors import PrecisionCapError, _name, _require

__all__ = [
    *_LAYERS["oracles"],
    "EnumerationResult", "MAX_BRUTE_DERANGEMENTS", "MAX_BRUTE_PATHS", "MAX_BRUTE_CYCLES",
]

_Q = Fraction

MAX_BRUTE_DERANGEMENTS = 10
MAX_BRUTE_PATHS = 10
MAX_BRUTE_CYCLES = 8

# quad_gamma gives up after this many panel-enclosure computations
_EVAL_BUDGET = 50_000


class EnumerationResult(namedtuple("EnumerationResult", "count total_length")):
    """Count of enumerated objects and their total edge length (ints)."""

    __slots__ = ()


class QuadratureResult(namedtuple("QuadratureResult", "value evaluations tail_bound")):
    """Certified integral enclosure `value`, an IntervalReal.

    evaluations (int) counts panel-enclosure computations (including
    retries after subdivision); tail_bound (a Fraction) dominates the
    discarded integral over [U, inf).
    """

    __slots__ = ()


def brute_derangements(n: int) -> int:
    """Count fixed-point-free permutations of range(n) by enumeration."""
    _require(
        0 <= n <= MAX_BRUTE_DERANGEMENTS,
        "brute_derangements requires 0 <= n <= {} (got {})", MAX_BRUTE_DERANGEMENTS, n,
    )
    # all(map(ne, p, r)) for each permutation p, with both loops run in C.
    r = range(n)
    return sum(map(all, map(map, repeat(ne), permutations(r), repeat(r))))


def _walks(n: int, start: int, stop: int, least: int) -> EnumerationResult:
    """Walks of K_n from start to stop, stop == start allowed, with no
    vertex repeated before stop and at least `least` edges, by
    depth-first search: their count and total number of edges."""
    count = 0
    total = 0
    visited = [False] * n
    visited[start] = True

    def walk(edges: int) -> None:
        nonlocal count, total
        for w in range(n):
            if w == stop:
                if edges + 1 >= least:
                    count += 1
                    total += edges + 1
            elif not visited[w]:
                visited[w] = True
                walk(edges + 1)
                visited[w] = False

    walk(0)
    return EnumerationResult(count, total)


def brute_paths(n: int, pair: tuple[int, int] = (0, 1)) -> EnumerationResult:
    """Enumerate simple paths between two fixed vertices of K_n.

    Each path is counted once (its endpoints are ordered by the pair),
    and total_length accumulates edge counts.
    """
    _require(
        3 <= n <= MAX_BRUTE_PATHS,
        "brute_paths requires 3 <= n <= {} (got {})", MAX_BRUTE_PATHS, n,
    )
    u, v = pair
    _require(
        0 <= u < n and 0 <= v < n and u != v,
        "pair must name two distinct vertices of K_{} (got ({}, {}))", n, u, v,
    )
    return _walks(n, u, v, 1)


def brute_cycles(n: int, root: int = 0) -> EnumerationResult:
    """Enumerate cycles through a fixed vertex of K_n.

    A cycle is an ordered vertex sequence root, v_1, ..., v_{k-1}, root
    with distinct intermediate vertices and k >= 3 edges; the two
    orientations of an undirected cycle are counted separately.
    """
    _require(
        3 <= n <= MAX_BRUTE_CYCLES,
        "brute_cycles requires 3 <= n <= {} (got {})", MAX_BRUTE_CYCLES, n,
    )
    _require(0 <= root < n, "root must be a vertex of K_{} (got {})", n, root)
    return _walks(n, root, root, 3)


# --- rigorous quadrature ----------------------------------------------

# Bits kept past a width share when an enclosure is rounded outward: the
# rounding then adds at most 2 * 2^-GUARD of the share to the width.
_GUARD_BITS = 4

# Taylor orders _ORDER_STEP, 2 * _ORDER_STEP, ... are tried on each panel,
# up to _MAX_ORDER left of 0 and up to `_PassTables.right_top` from 0 on.
# The moment table of an order is built once per pass, so a coarse ladder
# keeps the tables of a pass few and a high cap is paid once per call, not
# once per panel.
_ORDER_STEP = 16
_MAX_ORDER = 240


def _midpoint_form(a: int, b: int, d: int) -> tuple[int, int, int]:
    """Integers (M, H, den) with midpoint M/den and half-width H/den of
    [a/d, b/d], den their least common denominator."""
    big_m, big_h, den = b + a, b - a, 2 * d
    g = gcd(big_m, big_h, den)
    return big_m // g, big_h // g, den // g


def _horner(coeffs: list[int], x: int) -> int:
    """sum of coeffs[i] * x^(len - 1 - i)."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


class _PassTables:
    """Integer tables shared by the panels of one quadrature pass.

    An instance lives for one `_quad_pieces` call and is dropped when it
    returns; nothing is kept between calls.  Every entry depends only on
    its key, so a panel gets the same integers whether or not the entry
    was already there.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        # Right of 0, e^-m <= 1, so the bits a panel needs are bounded by the
        # peak of t^n e^-t and the ladder may grow with n: to 2(n + 1), on
        # the ladder's step, and never below _MAX_ORDER.  Left of 0 they grow
        # with |z| without bound, and halving and the budget end those calls.
        self.right_top = max(_MAX_ORDER, -(-2 * (n + 1) // _ORDER_STEP) * _ORDER_STEP)
        self._cores: dict[tuple[int, int, int], tuple[list[int], int]] = {}
        self._remainders: dict[tuple[int, int], tuple[list[tuple[int, int, int]], list[int]]] = {}
        self._powers: dict[tuple[int, bool], tuple[int, int, list[int], list[int]]] = {}
        self._taylor: dict[tuple[int, int, int], tuple[int, int]] = {}

    def core(self, den: int, big_h: int, order: int) -> tuple[list[int], int]:
        """Coefficients c_0..c_n and denominator D of the order-K surrogate
        integral, of (sum_{j<=K} (-1)^j (t-m)^j / j!) * t^n over a panel
        with midpoint m = M/den and half-width h = H/den.

        Expanding t^n around m leaves the integrals
        I_i = integral over [-h, h] of u^i T(u) du, T(u) = sum_{j<=K} (-u)^j / j!,
        so the surrogate is sum_i C(n, i) m^(n-i) I_i = sum_i c_i M^(n-i) / D
        with c_i = C(n, i) * S_i, S_i = I_i * ell * K! * den^(i+K+1),
        ell = lcm(1..n+K+1) and D = ell * K! * den^(n+K+1).  Only M^(n-i)
        depends on the midpoint, so the panels of a pass with that width
        and K share the table, and each is one integer Horner sum in M.

        S_n is the direct sum over j <= K, n + j even (odd moments vanish),
        of the Taylor weight (-1)^j (K!/j!) den^(K-j) times the moment
        2 H^(n+j+1) ell / (n+j+1).  The other S_i follow downward by
        integration by parts: T' = -T + (-u)^K / K!, so

            (i+1) I_i = h^(i+1) T(h) - (-h)^(i+1) T(-h) + I_(i+1)
                        - ((-1)^K / K!) * integral over [-h, h] of u^(i+K+1) du,

        and in the table's integers, with P+- = sum_{j<=K} (K!/j!) (-+H)^j
        den^(K-j) (K! den^K T(+-h)),

            S_i = (ell den H^(i+1) (P+ + (-1)^i P-) + S_(i+1)
                   - (-1)^K [i+K+1 even] 2 (ell / (i+K+2)) H^(i+K+2))
                  / ((i+1) den),

        an exact division.  P+ + P- is twice the even-j part of P-, and
        P+ - P- is minus twice its odd-j part, so a table costs K/2
        products for S_n and O(n + K) more, where the double sum over i
        and j took about (n+1) K / 2.
        """
        key = (den, big_h, order)
        entry = self._cores.get(key)
        if entry is None:
            n = self.n
            top = n + order + 1
            ell = lcm(*range(1, top + 1))
            # one pass down j = K..0, with w = (K!/j!) * den^(K-j), the Taylor
            # weight of u^j up to sign: Horner sums in H^2 of the even-j and
            # odd-j parts of P-, and of S_n / (2 H^(n+1+n%2)) over the j with
            # n + j even, where (-1)^j = (-1)^n
            h2 = big_h * big_h
            w = 1
            even = odd = acc = 0
            for j in range(order, -1, -1):
                if j % 2:
                    odd = odd * h2 + w
                else:
                    even = even * h2 + w
                if (n + j) % 2 == 0:
                    acc = acc * h2 + w * (ell // (n + j + 1))
                w *= j * den
            s = (-2 if n % 2 else 2) * acc * big_h ** (n + 1 + n % 2)
            by_parity = (2 * ell * den * even, -2 * ell * den * odd * big_h)
            end = -2 if order % 2 == 0 else 2
            coeffs = [0] * (n + 1)
            coeffs[n] = s
            hp = big_h**n  # H^(i+1)
            ht = big_h ** (n + order + 1)  # H^(i+K+2)
            binom = 1  # C(n, i)
            for i in range(n - 1, -1, -1):
                num = hp * by_parity[i % 2] + s
                if (i + order) % 2:
                    num += end * (ell // (i + order + 2)) * ht
                s = num // ((i + 1) * den)
                binom = binom * (i + 1) // (n - i)
                coeffs[i] = binom * s
                hp //= big_h
                ht //= big_h
            entry = self._cores[key] = (coeffs, ell * factorial(order) * den**top)
        return entry

    def remainders(self, den: int, big_h: int, top: int) -> Iterator[tuple[int, int, int]]:
        """Yields (K, rem_num, rem_den) for K = 16, 32, ..., top, where
        rem_num / rem_den = half^(K+1) / ((K+1)! * (1 - half/(K+2))) bounds
        the Taylor remainder of e^-u on |u| <= half = H/den:
        rem = H^(K+1) (K+2) / (den^K (K+1)! ((K+2) den - H)).

        The rows are built only up to the highest K a panel has read: the
        running H^(K+1), den^K and (K+1)! are kept with them, and the next
        row extends those by one step of the ladder."""
        key = (den, big_h)
        entry = self._remainders.get(key)
        if entry is None:
            entry = self._remainders[key] = ([], [big_h, 1, 1])
        rows, running = entry
        yield from rows[: top // _ORDER_STEP]
        while len(rows) < top // _ORDER_STEP:
            order = (len(rows) + 1) * _ORDER_STEP
            h_pow, d_pow, fact = running
            h_pow *= big_h**_ORDER_STEP
            d_pow *= den**_ORDER_STEP
            fact *= prod(range(order - _ORDER_STEP + 2, order + 2))
            running[:] = h_pow, d_pow, fact
            rows.append((order, h_pow * (order + 2), d_pow * fact * ((order + 2) * den - big_h)))
            yield rows[-1]

    def power(self, p: int, q: int) -> tuple[int, int]:
        """Integers lo <= e^q * 2^p <= hi: the |q|-th power of the
        fixed-point enclosure of e (or 1/e), floored and ceiled step by
        step.  `exp` asks only for p a multiple of 64, one chain per sign
        and band, and shifts the result down: floor keeps lo below and
        ceiling keeps hi above, as both are nonnegative."""
        one = 1 << p
        if not q:
            return one, one
        key = (p, q > 0)
        entry = self._powers.get(key)
        if entry is None:
            lo, hi = eform_bounds(EForm(0, 1, 0) if q > 0 else EForm(0, 0, 1), p)
            entry = self._powers[key] = (lo, hi, [one], [one])
        lo, hi, lows, highs = entry
        if len(lows) <= abs(q):
            base = lows[-1]
            for _ in range(len(lows), abs(q) + 1):
                base = base * lo >> p
                lows.append(base)
            base = -highs[-1]
            for _ in range(len(highs), abs(q) + 1):
                base = base * hi >> p
                highs.append(-base)
        return lows[abs(q)], highs[abs(q)]

    def taylor(self, p: int, num: int, den: int) -> tuple[int, int]:
        """Integers lo <= e^r * 2^p <= hi for r = num/den in [0, 1): a
        Taylor sum whose terms are floored for lo and ceiled for hi."""
        one = 1 << p
        if not num:
            return one, one
        g = gcd(num, den)
        key = (p, num // g, den // g)
        entry = self._taylor.get(key)
        if entry is None:
            tay_lo = tay_hi = t_lo = t_hi = one
            k = 0
            while t_hi > 1:
                k += 1
                t_lo = t_lo * num // (den * k)
                t_hi = -(-t_hi * num // (den * k))
                tay_lo += t_lo
                tay_hi += t_hi
            # the terms after the k-th sum to at most t_k * r / (k + 1 - r) <= t_k
            entry = self._taylor[key] = (tay_lo, tay_hi + t_hi)
        return entry

    def exp(self, num: int, den: int, bits: int) -> tuple[int, int, int]:
        """Integers (lo, hi, p) with lo <= e^(num/den) * 2^p <= hi and
        (hi - lo) * 2^-p <= 2^-bits * max(1, e^(num/den)); the factors
        are taken at the band P >= p and their product shifted to 2^p."""
        q, r = divmod(num, den)
        p = bits + bits.bit_length() + abs(q).bit_length() + 8
        big = -(-p // 64) * 64
        base_lo, base_hi = self.power(big, q)
        tay_lo, tay_hi = self.taylor(big, r, den)
        return base_lo * tay_lo >> 2 * big - p, -(-base_hi * tay_hi >> 2 * big - p), p


def _panel(
    n: int, a: int, b: int, d: int, share: tuple[int, int], tables: _PassTables
) -> tuple[int, int, int] | None:
    """Certified enclosure (lo, hi, bits), meaning [lo, hi] / 2^bits, of
    the integral over [a/d, b/d], or None if the panel must be subdivided
    to meet its width share s_num / s_den.  tables is the pass's
    `_PassTables`; the work is all integer."""
    big_m, big_h, den = _midpoint_form(a, b, d)
    s_num, s_den = share
    # integral of |t|^n over [a, b] = amom / amom_den
    k = n + 1
    left, right = big_m - big_h, big_m + big_h
    if left >= 0:
        amom = right**k - left**k
    elif right <= 0:
        amom = (-left) ** k - (-right) ** k
    else:
        amom = right**k + (-left) ** k
    amom_den = k * den**k
    # e^-m <= ebound / 2^e_shift: 3^ceil(-m) for m < 0 (3 > e), and
    # 2^-floor(m) for m >= 0 (2 < e)
    if big_m < 0:
        ebound, e_shift = 3 ** -(big_m // den), 0
    else:
        ebound, e_shift = 1, big_m // den

    # smallest order K on the ladder whose remainder bound rem has
    # rem * amom * e^-m <= share/4, compared over integers
    c_num, c_den = 4 * amom * ebound * s_den, amom_den * s_num << e_shift
    top = tables.right_top if big_m >= 0 else _MAX_ORDER
    for order, rem_num, rem_den in tables.remainders(den, big_h, top):
        if c_num * rem_num <= c_den * rem_den:
            break
    else:
        return None
    coeffs, core_den = tables.core(den, big_h, order)
    # inner = core -+ rem * amom, as [lo, hi] / in_den
    scale = rem_den * amom_den
    core = _horner(coeffs, big_m) * scale
    err = rem_num * amom * core_den
    in_den = core_den * scale
    lo, hi = core - err, core + err

    # e^-m comes back about 2^-bits wide in absolute terms when m >= 0, so
    # the working bits take ebound but not the shift
    bits = max(16, _ceil_log2(4 * max(-lo, hi) * ebound * s_den, in_den * s_num))
    out_bits = max(1, _ceil_log2(s_den, s_num) + _GUARD_BITS)
    for _ in range(3):
        # [e_lo, e_hi] / 2^p encloses e^-m, with e_lo >= 0, so the product
        # with [lo, hi] / in_den runs from lo times e_hi (lo < 0) or e_lo to
        # hi times e_hi (hi > 0) or e_lo; it is rounded outward to out_bits
        e_lo, e_hi, p = tables.exp(-big_m, den, bits)
        out_den = in_den << p
        out_lo = (lo * (e_hi if lo < 0 else e_lo) << out_bits) // out_den
        out_hi = -((-hi * (e_hi if hi > 0 else e_lo) << out_bits) // out_den)
        if (out_hi - out_lo) * s_den <= s_num << out_bits:
            return out_lo, out_hi, out_bits
        bits *= 2
    return None


def _tail_cutoff(n: int, u_min: int, tol: Fraction) -> tuple[int, Fraction]:
    """The least integer U >= u_min whose analytic tail bound, rounded up
    to a dyadic, is at most tol/2, and that bound; u_min >= 2n + 1.

    With e^-1 <= h / 2^64 the bound is U^(n+1) * h^U / ((U - n) * 2^(64 U)).
    For U >= 2n + 1 the ratio of consecutive bounds is at most
    (1 + 1/U)^(n+1) * h / 2^64 < 1, so the bound, and its rounding up,
    never increase with U.  A float guess g solves
    (n+1) ln U - U - ln(U - n) = ln(tol/2), the logarithm of the bound
    at tol/2, by fixed-point steps; the logs of tol come from its integer
    numerator and denominator, so no tiny tol underflows.  Exact `fits`
    tests then confirm it: from g, the search doubles its step up while
    U does not fit, or down while U - 1 still fits, then bisects to the
    least fitting U.  A right guess costs two exact tests.
    """
    _, einv_hi = eform_bounds(EForm(0, 0, 1), 64)
    tail_bits = max(1, ceil_log2(2 / tol) + _GUARD_BITS)
    limit = tol.numerator << tail_bits

    nums: dict[int, int] = {}

    def fits(u: int) -> bool:
        num = nums[u] = -(-(u ** (n + 1) * einv_hi**u << tail_bits) // ((u - n) << (64 * u)))
        return 2 * num * tol.denominator <= limit

    # U = (n+1) ln U - ln(U - n) - ln(tol/2) contracts for U >= 2n + 1,
    # where the slope (n+1)/U - 1/(U - n) of its right side is below 1/2
    log_half_tol = log(tol.numerator) - log(tol.denominator) - log(2)
    guess = float(u_min)
    for _ in range(8):
        guess = max(float(u_min), (n + 1) * log(guess) - log(guess - n) - log_half_tol)
    guess = max(u_min, ceil(guess))

    # bad < U <= good throughout; u_min - 1 stands for "below the range"
    if fits(guess):
        bad, good, step = guess - 1, guess, 1
        while bad >= u_min and fits(bad):
            good, step = bad, 2 * step
            bad = max(u_min - 1, good - step)
    else:
        bad, good, step = guess, guess + 1, 1
        while not fits(good):
            bad, step = good, 2 * step
            good = bad + step
    while good - bad > 1:
        mid = (bad + good) // 2
        if fits(mid):
            good = mid
        else:
            bad = mid
    return good, _Q(nums[good], 1 << tail_bits)


def _exhausted(call: str, tol: Fraction) -> PrecisionCapError:
    return PrecisionCapError(f"{call}: evaluation budget exhausted before tol={_name(tol)}")


def _quad_pieces(
    n: int, cuts: list[Fraction], tol: Fraction, call: str
) -> tuple[list[IntervalReal], Fraction, int]:
    """One panel pass over [cuts[0], U] for integral of e^-t * t^n dt.

    cuts is an increasing list of rationals.  Returns one dyadic
    enclosure per piece [cuts[i], cuts[i+1]], the last piece running to
    the cut-off U, plus the tail bound for [U, inf) and the number of
    panel evaluations.  The panels are those of the module's grid over
    [cuts[0], U], also split at each cut, and a panel's width share is
    tol/2 * width / (U - cuts[0]), so the pieces together are at most
    tol/2 wide.  Raises PrecisionCapError if the evaluation budget runs
    out before every panel meets its share, or surely would, and if the
    tail cut-off's tests need more bits than the precision cap.
    Messages name the call by `call`, as in "quad_gamma(n=3, z=-1)".
    """
    _require(n >= 0, "{} requires n >= 0", call)
    cuts = [_Q(c) for c in cuts]
    tol = _Q(tol)
    _require(tol > 0, "{} requires tol > 0 (got {})", call, tol)
    z = cuts[0]
    if 1 - floor(z) > _EVAL_BUDGET:
        raise _exhausted(call, tol)
    u_min = max(2 * n + 1, ceil(cuts[-1]) + 1, 6)
    # the tail bound is at least e^-U, so a U that fits has U >= ln(2/tol),
    # which is above 0.69 times tol's denominator's bits less its numerator's
    u_tol = 69 * (tol.denominator.bit_length() - tol.numerator.bit_length()) // 100
    _check_cap(64 * max(u_min, u_tol), "{}: tail cut-off", call)
    u, tail = _tail_cutoff(n, u_min, tol)

    # the grid: the cuts, every integer in (z, 1], the multiples of a power
    # of two near sqrt(n + 1) in [z, U) and U itself; [a, b] at depth k is
    # [a, b] / (den * 2^k) with share tol/2 * (b - a) / ((U - z) * den * 2^k)
    den = lcm(*(c.denominator for c in cuts))
    cut_nums = [c.numerator * (den // c.denominator) for c in cuts]
    step = den << (n + 1).bit_length() // 2
    grid = set(cut_nums).union(range((floor(z) + 1) * den, den + 1, den), range(0, u * den, step))
    points = sorted(x for x in grid if x >= cut_nums[0])
    points.append(u * den)
    share_den = 2 * tol.denominator * (u * den - cut_nums[0])
    tables = _PassTables(n)
    evals = 0
    # piece i sums to [lows[i], highs[i]] / 2^bits[i], at the finest bits seen
    lows, highs, bits = [0] * len(cuts), [0] * len(cuts), [0] * len(cuts)
    stack = [
        (a, b, 0, sum(c <= a for c in cut_nums) - 1) for a, b in zip(points, points[1:])
    ]
    while stack:
        a, b, depth, piece = stack.pop()
        evals += 1
        if evals > _EVAL_BUDGET:
            raise _exhausted(call, tol)
        share = (tol.numerator * (b - a), share_den << depth)
        enclosure = _panel(n, a, b, den << depth, share, tables)
        if enclosure is None:
            stack.append((2 * a, a + b, depth + 1, piece))
            stack.append((a + b, 2 * b, depth + 1, piece))
            continue
        lo, hi, k = enclosure
        top = max(k, bits[piece])
        lows[piece] = (lows[piece] << top - bits[piece]) + (lo << top - k)
        highs[piece] = (highs[piece] << top - bits[piece]) + (hi << top - k)
        bits[piece] = top
    pieces = zip(lows, highs, bits)
    return [IntervalReal(_Q(lo, 1 << k), _Q(hi, 1 << k)) for lo, hi, k in pieces], tail, evals


def quad_gamma(n: int, z: Fraction, tol: Fraction) -> QuadratureResult:
    """Certified enclosure of integral over [z, inf) of e^-t * t^n dt.

    The returned interval has width <= tol.  Raises PrecisionCapError
    if the evaluation budget runs out before the tolerance is met, and
    at once when it surely would, at z below about -_EVAL_BUDGET, or
    when the tail cut-off needs more bits than the precision cap, at z
    above about cap/64 or tol below about 2^-(cap/44).
    """
    call = f"quad_gamma(n={_name(n)}, z={_name(_Q(z))})"
    (piece,), tail, evals = _quad_pieces(n, [z], tol, call)
    return QuadratureResult(
        value=piece + IntervalReal(0, tail), evaluations=evals, tail_bound=tail
    )

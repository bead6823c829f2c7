"""Counting formulas tied to floors of e-linear expressions.

Three families live here, each computed by two genuinely different
routes so that one can audit the other:

* simple paths between a fixed vertex pair of the complete graph K_n
  (w_n paths in total, of which w(i) = (n-2)!/(n-1-i)! have i edges),
  where w_n = floor(e*(n-2)!);
* cycles through a fixed vertex of K_n, counted as ordered vertex
  sequences of length >= 3, so each undirected cycle appears once per
  orientation; c_n = floor(e*(n-1)!) - n;
* the derangement numbers as floors of n!/e shifted by various
  correction terms, together with the rational bounds M_m(n) and the
  e-linear bounds N_m(n) that squeeze the fractional parts involved.

The "exact" route sums integers; the "certified" route builds an
:class:`~ecount.certified.EForm` and takes its certified floor.  Each
exact sum is one pass of small-by-big multiplications: the path terms
w(i), the cycle terms (n-1)!/(n-i)! and the common denominators of the
bounds M_m(n) and N_m(n) are running products, never one factorial
quotient per term.  The certified route still takes its factorial from
:func:`~ecount.exact.factorial`, never from the running product.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from math import prod

from .certified import EForm, certified_floor, eform_lt
from .errors import DomainError, InvariantViolation
from .exact import derangements, factorial, partial_sum_pos

__all__ = [
    "PathCycleCounts",
    "BoundsChain",
    "path_count_by_length",
    "path_count",
    "path_length_sum",
    "average_path_length",
    "path_argmax_lengths",
    "cycle_count",
    "cycle_length_sum",
    "path_cycle_counts",
    "derangement_lambda",
    "derangement_eq2",
    "derangement_eq3",
    "derangement_eq4",
    "derangement_eq5",
    "derangement_eq6",
    "derangement_thm7",
    "bound_M",
    "bound_N",
    "chain_check",
]

_Q = Fraction


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


# --- paths and cycles in K_n ------------------------------------------


def path_count_by_length(n: int, i: int) -> int:
    """Number of simple paths with exactly i edges between a fixed
    vertex pair of K_n: (n-2)!/(n-1-i)!."""
    _require(n >= 3, f"path_count_by_length requires n >= 3 (got n={n})")
    _require(1 <= i <= n - 1, f"edge count i must satisfy 1 <= i <= n-1 (got i={i})")
    return factorial(n - 2) // factorial(n - 1 - i)


def _path_terms(n: int) -> Iterator[tuple[int, int]]:
    """(i, w(i)) for i = 1..n-1 by the running product w(1) = 1,
    w(i+1) = w(i)*(n-1-i)."""
    w = 1
    for i in range(1, n):
        yield i, w
        w *= n - 1 - i


def path_count(n: int) -> int:
    """Total number of simple paths between a fixed vertex pair of K_n.

    Exact route: sum of w(i) over i, each term the running product
    w(i+1) = w(i)*(n-1-i) of the one before.  The certified route
    evaluates floor(e*(n-2)!); both must agree on every call.
    """
    _require(n >= 3, f"path_count requires n >= 3 (got {n})")
    return _checked_path_count(n, sum(w for _, w in _path_terms(n)))


def _checked_path_count(n: int, exact: int) -> int:
    floored = certified_floor(EForm(0, factorial(n - 2), 0))
    if exact != floored:
        raise InvariantViolation(
            f"path_count({n}): summation gives {exact}, floor(e*(n-2)!) gives {floored}"
        )
    return exact


def path_length_sum(n: int) -> int:
    """Total edge count over all simple paths between the fixed pair.

    The closed form 1 + (n-2)*w_n is checked against the direct sum
    of i*w(i).
    """
    _require(n >= 3, f"path_length_sum requires n >= 3 (got {n})")
    return _path_totals(n)[1]


def average_path_length(n: int) -> Fraction:
    """Mean number of edges of a path between the fixed pair, exact."""
    _require(n >= 3, f"average_path_length requires n >= 3 (got {n})")
    count, total = _path_totals(n)
    return _Q(total, count)


def _path_totals(n: int) -> tuple[int, int]:
    """(w_n, total path length) from one pass over the terms, each
    route run once."""
    count = direct = 0
    for i, w in _path_terms(n):
        count += w
        direct += i * w
    _checked_path_count(n, count)
    closed = 1 + (n - 2) * count
    if closed != direct:
        raise InvariantViolation(
            f"path_length_sum({n}): closed form {closed} != direct sum {direct}"
        )
    return count, closed


def path_argmax_lengths(n: int) -> set[int]:
    """Edge counts i at which w(i) is maximal, as the full tie set.

    w(i) is nondecreasing with w(n-2) = w(n-1) = (n-2)!, so the result
    is {n-2, n-1} for n >= 4 and {1, 2} for n = 3 (both counts are 1).
    """
    _require(n >= 3, f"path_argmax_lengths requires n >= 3 (got {n})")
    top, best = 0, set()
    for i, w in _path_terms(n):
        if w > top:
            top, best = w, {i}
        elif w == top:
            best.add(i)
    return best


def cycle_count(n: int) -> int:
    """Cycles through a fixed vertex of K_n, orientations distinct.

    Exact route: sum over cycle length i of (n-1)!/(n-i)! ordered
    choices of the i-1 intermediate vertices, each term the running
    product term(i+1) = term(i)*(n-i) of the one before.  Certified
    route: floor(e*(n-1)!) - n.
    """
    _require(n >= 3, f"cycle_count requires n >= 3 (got {n})")
    return _checked_cycle_count(n, sum(term for _, term in _cycle_terms(n)))


def _cycle_terms(n: int) -> Iterator[tuple[int, int]]:
    """(i, (n-1)!/(n-i)!) for i = 3..n by the running product
    term(3) = (n-1)(n-2), term(i+1) = term(i)*(n-i)."""
    term = (n - 1) * (n - 2)
    for i in range(3, n + 1):
        yield i, term
        term *= n - i


def _checked_cycle_count(n: int, exact: int) -> int:
    floored = certified_floor(EForm(0, factorial(n - 1), 0)) - n
    if exact != floored:
        raise InvariantViolation(
            f"cycle_count({n}): summation gives {exact}, floor route gives {floored}"
        )
    return exact


def cycle_length_sum(n: int) -> int:
    """Total length over all cycles through the fixed vertex.

    Direct sum of i*(n-1)!/(n-i)!, checked against the floor-difference
    form floor(e*n!) - floor(e*(n-1)!) - 2n + 1.
    """
    _require(n >= 3, f"cycle_length_sum requires n >= 3 (got {n})")
    return _cycle_totals(n)[1]


def _cycle_totals(n: int) -> tuple[int, int]:
    """(c_n, total cycle length) from one pass over the terms.  The
    floor difference reuses floor(e*(n-1)!) = c_n + n, which the count
    check has just certified."""
    count = direct = 0
    for i, term in _cycle_terms(n):
        count += term
        direct += i * term
    _checked_cycle_count(n, count)
    floored = certified_floor(EForm(0, factorial(n), 0)) - (count + n) - 2 * n + 1
    if direct != floored:
        raise InvariantViolation(
            f"cycle_length_sum({n}): summation gives {direct}, floor route gives {floored}"
        )
    return count, direct


class PathCycleCounts(
    namedtuple(
        "PathCycleCounts", "n path_count path_length_sum cycle_count cycle_length_sum"
    )
):
    """Path and cycle tallies (ints) of K_n for one n."""

    __slots__ = ()


def path_cycle_counts(n: int) -> PathCycleCounts:
    """All four tallies for one n, with three certified floors in all."""
    paths, path_length = _path_totals(n)
    cycles, cycle_length = _cycle_totals(n)
    return PathCycleCounts(n, paths, path_length, cycles, cycle_length)


# --- derangement numbers as certified floors --------------------------


def derangement_lambda(n: int, lam: Fraction) -> int:
    """certified floor(n!/e + lam).

    Equals derangements(n) for every rational lam in [1/3, 1/2] and
    n >= 1; callers may pass any rational lam, e.g. to probe where the
    window breaks.
    """
    _require(n >= 1, f"derangement_lambda requires n >= 1 (got {n})")
    return certified_floor(EForm(_Q(lam), 0, factorial(n)))


def derangement_eq2(n: int) -> int:
    """certified floor((n!+1)/e), equal to derangements(n) for n >= 1."""
    _require(n >= 1, f"derangement_eq2 requires n >= 1 (got {n})")
    return certified_floor(EForm(0, 0, factorial(n) + 1))


def derangement_eq3(n: int) -> int:
    """certified floor(n!/e + 1/n), equal to derangements(n) for n >= 2."""
    _require(n >= 2, f"derangement_eq3 requires n >= 2 (got {n})")
    return certified_floor(EForm(_Q(1, n), 0, factorial(n)))


def derangement_eq4(n: int) -> int:
    """certified floor(n!/e + (n+2)/(n+1)^2), equal to derangements(n) for n >= 2."""
    _require(n >= 2, f"derangement_eq4 requires n >= 2 (got {n})")
    return certified_floor(EForm(_Q(n + 2, (n + 1) ** 2), 0, factorial(n)))


def derangement_eq5(n: int, m: int) -> int:
    """Two-floor form of derangements(n), for n >= 2 and m >= 3.

    floor(n! * (A + 1/e)) - floor(e*n!) where the rational head is
    A = (sum_{i=0}^{n+m-2} 1/i!) + (n+m)/((n+m-1)*(n+m-1)!); the inner
    sum is the exact integer partial_sum_pos(n+m-2) over (n+m-2)!.
    Both floors are certified.
    """
    _require(n >= 2, f"derangement_eq5 requires n >= 2 (got n={n})")
    _require(m >= 3, f"derangement_eq5 requires m >= 3 (got m={m})")
    nf = factorial(n)
    # Over the common denominator t^2 * (t-1)!/n! with t = n+m-1.
    t = n + m - 1
    a = _Q(partial_sum_pos(t - 1) * t * t + n + m, t * t * prod(range(n + 1, t)))
    return certified_floor(EForm(a, 0, nf)) - certified_floor(EForm(0, nf, 0))


def derangement_eq6(n: int) -> int:
    """floor((e + 1/e)*n!) - floor(e*n!), equal to derangements(n) for n >= 2."""
    _require(n >= 2, f"derangement_eq6 requires n >= 2 (got {n})")
    nf = factorial(n)
    return certified_floor(EForm(0, nf, nf)) - certified_floor(EForm(0, nf, 0))


def derangement_thm7(n: int, m: int) -> int:
    """Alternating-pair form of derangements(n), for n >= 2 and m >= 1.

    floor(n!/e + N) with the correction
    N = n! * sum_{i=1}^m (n+2i-1)/(n+2i)!  +  n! * frac(e*(n+2m)!)/(n+2m)!,
    the fractional-part tail entering exactly once.  Expanding that
    fractional part over e turns the whole argument into a single EForm.
    """
    _require(n >= 2, f"derangement_thm7 requires n >= 2 (got n={n})")
    _require(m >= 1, f"derangement_thm7 requires m >= 1 (got m={m})")
    return certified_floor(bound_N(n, m) + EForm(0, 0, factorial(n)))


# --- fractional-part bounds -------------------------------------------


def bound_M(n: int, m: int) -> Fraction:
    """Rational upper bound M_m(n) on frac(e*n!), strictly decreasing in m.

    M_1 = 1/n, M_2 = (n+2)/(n+1)^2, and for m >= 3
    M_m(n) = n! * ((n+m)/((n+m-1)*(n+m-1)!) + sum_{i=n+1}^{n+m-2} 1/i!),
    summed over a common denominator built as one running suffix product.
    """
    _require(n >= 2, f"bound_M requires n >= 2 (got n={n})")
    _require(m >= 1, f"bound_M requires m >= 1 (got m={m})")
    if m == 1:
        return _Q(1, n)
    if m == 2:
        return _Q(n + 2, (n + 1) ** 2)
    # Over the common denominator t * t!/n! with t = n+m-1, where
    # n!/i! = prod(i+1..t) / (t!/n!); p runs through those suffix
    # products from i = t-1 down to i = n+1.
    t = n + m - 1
    tail, p = 0, 1
    for i in range(t - 1, n, -1):
        p *= i + 1
        tail += p
    # Now p = prod(n+2..t).
    return _Q(n + m + t * tail, t * (n + 1) * p)


def bound_N(n: int, m: int) -> EForm:
    """Lower bound N_m(n) on frac(e*n!) as an EForm, increasing as m shrinks.

    N_m(n) = n! * sum_{i=1}^m (n+2i-1)/(n+2i)!
             + n! * frac(e*(n+2m)!)/(n+2m)!,
    with the fractional part expanded over e (it contributes the b*e
    term and a rational correction).  The rational part is summed over a
    common denominator built as one running suffix product, and the form
    is built on it unreduced: no gcd of numbers as wide as (n+2m)!/n! is
    taken here, and `.a` is reduced only when read.
    """
    _require(n >= 2, f"bound_N requires n >= 2 (got n={n})")
    _require(m >= 1, f"bound_N requires m >= 1 (got m={m})")
    # Over the common denominator (n+2m)!/n!, where
    # n!/(n+2i)! = prod(n+2i+1..n+2m) / ((n+2m)!/n!); p runs through
    # those suffix products from i = m down to i = 1.
    top = n + 2 * m
    acc, p = 0, 1
    for i in range(m, 0, -1):
        acc += (n + 2 * i - 1) * p
        p *= (n + 2 * i) * (n + 2 * i - 1)
    # Now p = prod(n+1..top).
    return EForm.from_integers(acc - partial_sum_pos(top), factorial(n) * p, 0, p)


def _bound_M_family(n: int, m_max: int) -> list[Fraction]:
    """[bound_M(n, m) for m = 1..m_max] in one ascending pass.

    With t = n+m-1, bound_M's sum of suffix products
    A_t = sum_{i=n+1}^{t-1} prod(i+1..t) and its product P_t = prod(n+2..t)
    grow as A_t = t*A_{t-1} + t and P_t = P_{t-1}*t, from A = 0 and P = 1
    at the m = 2 case t = n+1.
    """
    family = [_Q(1, n), _Q(n + 2, (n + 1) ** 2)]
    tail, p = 0, 1
    for t in range(n + 2, n + m_max):
        tail, p = t * tail + t, p * t
        family.append(_Q(t + 1 + t * tail, t * (n + 1) * p))
    return family[:m_max]


def _bound_N_family(n: int, m_max: int) -> list[EForm]:
    """[bound_N(n, m) for m = 1..m_max] in one ascending pass.

    With top = n+2m, bound_N's accumulated numerator and its product
    p = prod(n+1..top) grow as acc_m = acc_{m-1}*top*(top-1) + (top-1)
    and p_m = p_{m-1}*top*(top-1), from acc = 0 and p = 1 at m = 0.
    Each bound is built on p unreduced, as bound_N builds it, so each p
    divides the next, and the gcd that a difference of two bounds takes
    ends after one division.
    """
    nf = factorial(n)
    family = []
    acc, p = 0, 1
    for m in range(1, m_max + 1):
        top = n + 2 * m
        acc, p = acc * top * (top - 1) + top - 1, p * top * (top - 1)
        family.append(EForm.from_integers(acc - partial_sum_pos(top), nf * p, 0, p))
    return family


class BoundsChain(namedtuple("BoundsChain", "n frac m_list")):
    """Fractional part of e*n! (an EForm) with its two-sided bound family.

    m_list holds (m, M_m(n), N_m(n)) for m = 1..m_max: an int, a
    Fraction and an EForm.
    """

    __slots__ = ()


def chain_check(n: int, m_max: int) -> BoundsChain:
    """Certify the strict ordering chain around frac(e*n!).

    |n!/e - derangements(n)| < N_{m_max} < ... < N_1
        < frac(e*n!) < M_{m_max+2} < ... < M_2 < M_1 < 1

    Every inequality is decided by interval refinement (rational vs
    rational comparisons are exact).  A violated link raises
    InvariantViolation naming the failing pair.  The bounds M_m and N_m
    come from one ascending pass each, not one bound_M or bound_N call
    per m.
    """
    _require(n >= 2, f"chain_check requires n >= 2 (got n={n})")
    _require(m_max >= 1, f"chain_check requires m_max >= 1 (got m_max={m_max})")
    nf = factorial(n)
    dn = derangements(n)
    # |n!/e - D_n|: the sign of n!/e - D_n alternates with n.
    if n % 2 == 0:
        head = EForm(dn, 0, -nf)
    else:
        head = EForm(-dn, 0, nf)
    frac = EForm(-partial_sum_pos(n), nf, 0)

    big_m = dict(enumerate(_bound_M_family(n, m_max + 2), start=1))
    big_n = dict(enumerate(_bound_N_family(n, m_max), start=1))

    chain: list[tuple[str, EForm]] = [("|n!/e - D_n|", head)]
    chain.extend((f"N_{m}", big_n[m]) for m in range(m_max, 0, -1))
    chain.append(("frac(e*n!)", frac))
    chain.extend(
        (f"M_{m}", EForm.from_rational(big_m[m])) for m in range(m_max + 2, 0, -1)
    )
    chain.append(("1", EForm.from_rational(1)))

    for (name_lo, f_lo), (name_hi, f_hi) in zip(chain, chain[1:]):
        if not eform_lt(f_lo, f_hi):
            raise InvariantViolation(
                f"bounds chain broken at n={n}: expected {name_lo} < {name_hi}"
            )

    m_list = tuple((m, big_m[m], big_n[m]) for m in range(1, m_max + 1))
    return BoundsChain(n=n, frac=frac, m_list=m_list)

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

The "exact" route works with integers; the "certified" route builds an
:class:`~ecount.certified.EForm` and takes its certified floor.  The
path and cycle tallies are differences of the partial sums
S_m = sum_{k<=m} m!/k!, which :func:`~ecount.exact.partial_sum_pos`
reads by binary splitting: w_n = S_{n-2} and c_n = S_{n-1} - n.  Their
certified route reads :mod:`ecount.exact` only for m!.  A pass over the
bounds M_m(n) or N_m(n) takes its first m from one `certified._split`,
not from `exact`'s blocks, and steps up m by small factors.

This module is the one place where two routes meet: `_agree` compares
them and raises InvariantViolation, naming the call and both values by
`errors._name` (a wide one by the power of two it passes), when
they differ.  Sizes n and m are checked by `errors._size`, other
preconditions by `errors._require`; both name arguments the same way.
`_checked_sum` serves the tallies and floor(e*n!) (eq1);
`_checked_form` checks a derangement floor form against
derangements(n).  The public derangement forms return their certified
floor alone.  Each check runs the certified route first, so a refusal
at the precision cap costs no exact work, and reads its routes as
module globals (or as the form passed in) when called, so a patched or
wrapped route is the one that runs.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterator
from fractions import Fraction

from . import _LAYERS
from .certified import EForm, _split, certified_floor, eform_lt
from .errors import _NAME_BITS, InvariantViolation, _name, _require, _size
from .exact import derangements, factorial, partial_sum_pos

__all__ = [*_LAYERS["counts"]]

_Q = Fraction


# --- where the two routes meet ----------------------------------------


def _agree(name: str, args: tuple, certified: int, exact: int) -> int:
    """exact, once it equals certified; else InvariantViolation naming the
    call name(*args) and both values, the message built only then.

    Values are named by `errors._name`, a wide one by its power of two,
    and then so is the difference of the two routes: no str of a wide
    int is made, so the message never meets Python's limit on int-to-str
    digits."""
    if certified != exact:
        call = ", ".join(map(_name, args))
        message = (
            f"{name}({call}): certified route gives {_name(certified)}, "
            f"exact route gives {_name(exact)}"
        )
        if max(certified.bit_length(), exact.bit_length()) > _NAME_BITS:
            message += f" (certified - exact = {_name(certified - exact)})"
        raise InvariantViolation(message)
    return exact


def _checked_sum(name: str, n: int, m: int) -> int:
    """S_m = floor(e*m!) for the call name(n), read both ways: the
    certified floor first, then partial_sum_pos(m).  n is checked first,
    in the caller's name, as a size of at least n - m + 1."""
    _size(name, n, n - m + 1)
    return _agree(name, (n,), certified_floor(EForm(0, factorial(m), 0)), partial_sum_pos(m))


def _checked_form(form: Callable[..., int], n: int, *rest: object) -> int:
    """form(n, *rest), a derangement floor form, once it equals
    derangements(n), which runs only after the form has answered."""
    return _agree(form.__name__, (n, *rest), form(n, *rest), derangements(n))


# --- paths and cycles in K_n ------------------------------------------


def path_count_by_length(n: int, i: int) -> int:
    """Number of simple paths with exactly i edges between a fixed
    vertex pair of K_n: (n-2)!/(n-1-i)!."""
    _size("path_count_by_length", n, 3)
    _require(1 <= i <= n - 1, "edge count i must satisfy 1 <= i <= n-1 (got i={})", i)
    return factorial(n - 2) // factorial(n - 1 - i)


def path_count(n: int) -> int:
    """Total number of simple paths between a fixed vertex pair of K_n.

    w_n = sum_i w(i) = sum_k (n-2)!/k! = S_{n-2}: the partial sum read
    from the exact route, checked against the certified floor(e*(n-2)!),
    whose check refuses n < 3 in this call's name.
    """
    return _checked_sum("path_count", n, n - 2)


def path_length_sum(n: int) -> int:
    """Total edge count over all simple paths between the fixed pair.

    The closed form 1 + (n-2)*w_n is checked against the direct sum
    sum_i i*w(i) = S_{n-1} - S_{n-2}.
    """
    _size("path_length_sum", n, 3)
    return _path_totals(n)[1]


def average_path_length(n: int) -> Fraction:
    """Mean number of edges of a path between the fixed pair, exact."""
    _size("average_path_length", n, 3)
    count, total = _path_totals(n)
    return _Q(total, count)


def _path_totals(n: int) -> tuple[int, int]:
    """(w_n, total path length), each route run once.  The closed form
    stands on the certified side: it reads only the checked count."""
    count = _checked_sum("path_count", n, n - 2)
    closed = 1 + (n - 2) * count
    return count, _agree("path_length_sum", (n,), closed, partial_sum_pos(n - 1) - count)


def path_argmax_lengths(n: int) -> set[int]:
    """Edge counts i at which w(i) is maximal, as the full tie set.

    Read from the step factors w(i)/w(i-1) = n-i, all >= 1: w rises
    up to i = n-2 and its last step, at i = n-1, is 1, so the maximum is
    taken at n-2 and n-1 ({1, 2} at n = 3).  No w(i) is built.
    """
    _size("path_argmax_lengths", n, 3)
    return {n - 2, n - 1}


def cycle_count(n: int) -> int:
    """Cycles through a fixed vertex of K_n, orientations distinct.

    Summed over cycle length i, the (n-1)!/(n-i)! ordered choices of the
    i-1 intermediate vertices give c_n = S_{n-1} - n: the partial sum
    read from the exact route, checked against the certified
    floor(e*(n-1)!).
    """
    _size("cycle_count", n, 3)
    return _checked_sum("cycle_count", n, n - 1) - n


def cycle_length_sum(n: int) -> int:
    """Total length over all cycles through the fixed vertex.

    The direct sum sum_i i*(n-1)!/(n-i)! = S_n - S_{n-1} - 2n + 1 is
    checked against the floor difference floor(e*n!) - floor(e*(n-1)!)
    - 2n + 1.
    """
    _size("cycle_length_sum", n, 3)
    return _cycle_totals(n)[1]


def _cycle_totals(n: int) -> tuple[int, int]:
    """(c_n, total cycle length).  S_{n-1} = c_n + n is checked by the
    count, so the two length routes agree exactly when S_n does with
    floor(e*n!)."""
    count = _checked_sum("cycle_count", n, n - 1) - n
    return count, _checked_sum("cycle_length_sum", n, n) - (count + n) - 2 * n + 1


class PathCycleCounts(
    namedtuple(
        "PathCycleCounts", "n path_count path_length_sum cycle_count cycle_length_sum"
    )
):
    """Path and cycle tallies (ints) of K_n for one n."""

    __slots__ = ()


def path_cycle_counts(n: int) -> PathCycleCounts:
    """All four tallies for one n, with three certified floors in all."""
    _size("path_cycle_counts", n, 3)
    paths, path_length = _path_totals(n)
    cycles, cycle_length = _cycle_totals(n)
    return PathCycleCounts(n, paths, path_length, cycles, cycle_length)


# --- derangement numbers as certified floors --------------------------


def _shifted_floor(n: int, num: int, den: int) -> int:
    """certified floor(n!/e + num/den), den > 0: (num + n!*den/e) / den."""
    return certified_floor(EForm.from_integers(num, 0, factorial(n) * den, den))


def derangement_lambda(n: int, lam: Fraction) -> int:
    """certified floor(n!/e + lam).

    Equals derangements(n) for every rational lam in [1/3, 1/2] and
    n >= 1; callers may pass any rational lam, e.g. to probe where the
    window breaks.
    """
    _size("derangement_lambda", n, 1)
    lam = lam if type(lam) is Fraction else _Q(lam)
    return _shifted_floor(n, lam.numerator, lam.denominator)


def derangement_eq2(n: int) -> int:
    """certified floor((n!+1)/e), equal to derangements(n) for n >= 1."""
    _size("derangement_eq2", n, 1)
    return certified_floor(EForm(0, 0, factorial(n) + 1))


def derangement_eq3(n: int) -> int:
    """certified floor(n!/e + 1/n), equal to derangements(n) for n >= 2."""
    _size("derangement_eq3", n, 2)
    return _shifted_floor(n, 1, n)


def derangement_eq4(n: int) -> int:
    """certified floor(n!/e + (n+2)/(n+1)^2), equal to derangements(n) for n >= 2."""
    _size("derangement_eq4", n, 2)
    # (n+2)/(n+1)^2 is in lowest terms, as n+2 and n+1 are coprime.
    return _shifted_floor(n, n + 2, (n + 1) ** 2)


def derangement_eq5(n: int, m: int) -> int:
    """Two-floor form of derangements(n), for n >= 2 and m >= 3.

    floor(n! * (A + 1/e)) - floor(e*n!) where the rational head is
    A = (sum_{i=0}^{n+m-2} 1/i!) + (n+m)/((n+m-1)*(n+m-1)!), so that
    n!*A = S_n + M_m(n) = (S_n*q + p)/q with S_n = partial_sum_pos(n)
    and p/q = M_m(n) as `_m_pairs` gives it, unreduced: the floor needs
    no lowest terms, so no gcd is taken.  Both floors are certified.
    """
    _size("derangement_eq5", n, 2)
    _size("derangement_eq5", m, 3, "m")
    nf = factorial(n)
    p, q = next(_m_pairs(n, m, m))
    head = EForm.from_integers(partial_sum_pos(n) * q + p, 0, nf * q, q)
    return certified_floor(head) - certified_floor(EForm(0, nf, 0))


def derangement_eq6(n: int) -> int:
    """floor((e + 1/e)*n!) - floor(e*n!), equal to derangements(n) for n >= 2."""
    _size("derangement_eq6", n, 2)
    nf = factorial(n)
    return certified_floor(EForm(0, nf, nf)) - certified_floor(EForm(0, nf, 0))


def derangement_thm7(n: int, m: int) -> int:
    """Alternating-pair form of derangements(n), for n >= 2 and m >= 1.

    floor(n!/e + N) with the correction
    N = n! * sum_{i=1}^m (n+2i-1)/(n+2i)!  +  n! * frac(e*(n+2m)!)/(n+2m)!,
    the fractional-part tail entering exactly once.  Expanding that
    fractional part over e turns the whole argument into a single EForm.
    """
    _size("derangement_thm7", n, 2)
    _size("derangement_thm7", m, 1, "m")
    # N_m(n) = (a + b*e) / p with b = n!*p, so N_m(n) + n!/e has C = b.
    a, b, p = next(_n_ints(n, m, m))
    return certified_floor(EForm.from_integers(a, b, b, p))


# --- fractional-part bounds -------------------------------------------


def _m_pairs(n: int, m_lo: int, m_hi: int) -> Iterator[tuple[int, int]]:
    """M_m(n) as unreduced pairs (num, den) for m = m_lo..m_hi, one pass.

    With t = n+m-1, M_m(n) = (t + 1 + t*A_t) / (t*(n+1)*P_t), where
    A_t = sum_{i=n+1}^{t-1} prod(i+1..t) and P_t = prod(n+2..t), for
    m >= 2.  The first t comes from one split: with (P, Q) =
    `_split(n+1, t, 1)`, P_t = Q and A_t = Q + P - 1.  Each later t
    steps by A_t = t*(A_{t-1} + 1) and P_t = P_{t-1}*t.
    """
    if m_lo == 1:
        yield 1, n
    first = max(n + m_lo - 1, n + 1)
    big_p, p = _split(n + 1, first, 1)
    tail = p + big_p - 1
    for t in range(first, n + m_hi):
        if t > first:
            tail, p = t * (tail + 1), p * t
        yield t + 1 + t * tail, t * (n + 1) * p


def _n_ints(n: int, m_lo: int, m_hi: int) -> Iterator[tuple[int, int, int]]:
    """(a, b, p) with N_m(n) = (a + b*e) / p for m = m_lo..m_hi, one pass.

    With top = n+2m, a = acc - S_top and b = n!*p, where p = prod(n+1..top)
    and acc/p = sum_{i=1}^m (n+2i-1)*n!/(n+2i)!.  As (n+2i-1)/(n+2i)! =
    1/(n+2i-1)! - 1/(n+2i)!, the first m's (P, Q) = `_split(n, top, -1)`
    give acc = -P and p = Q; each later m steps by acc_m = acc_{m-1}*k +
    (top-1) and p_m = p_{m-1}*k, k = top*(top-1).  Each p divides the
    next, so the gcd of two of them ends after one division.
    """
    nf = factorial(n)
    first = n + 2 * m_lo
    big_p, p = _split(n, first, -1)
    acc = -big_p
    for top in range(first, n + 2 * m_hi + 1, 2):
        if top > first:
            k = top * (top - 1)
            acc, p = acc * k + (top - 1), p * k
        yield acc - partial_sum_pos(top), nf * p, p


def _n_forms(n: int, m_lo: int, m_hi: int) -> Iterator[EForm]:
    """N_m(n) for m = m_lo..m_hi as EForms, each over its p unreduced."""
    return (EForm.from_integers(a, b, 0, p) for a, b, p in _n_ints(n, m_lo, m_hi))


def bound_M(n: int, m: int) -> Fraction:
    """Rational upper bound M_m(n) on frac(e*n!), strictly decreasing in m.

    M_1 = 1/n, M_2 = (n+2)/(n+1)^2, and for m >= 3
    M_m(n) = n! * ((n+m)/((n+m-1)*(n+m-1)!) + sum_{i=n+1}^{n+m-2} 1/i!),
    so n!*A = S_n + M_m(n) for the head A of derangement_eq5.  It is the
    m-th step of the one ascending pass, reduced.
    """
    _size("bound_M", n, 2)
    _size("bound_M", m, 1, "m")
    return _Q(*next(_m_pairs(n, m, m)))


def bound_N(n: int, m: int) -> EForm:
    """Lower bound N_m(n) on frac(e*n!) as an EForm, increasing as m shrinks.

    N_m(n) = n! * sum_{i=1}^m (n+2i-1)/(n+2i)!
             + n! * frac(e*(n+2m)!)/(n+2m)!,
    with the fractional part expanded over e (it contributes the b*e
    term and a rational correction).  It is the m-th step of the one
    ascending pass, over (n+2m)!/n! unreduced: no gcd that wide is taken
    here, and `.a` is reduced only when read.
    """
    _size("bound_N", n, 2)
    _size("bound_N", m, 1, "m")
    return next(_n_forms(n, m, m))


def _bound_rows(n: int, m_lo: int, m_hi: int) -> Iterator[tuple[int, Fraction, EForm]]:
    """(m, M_m(n), N_m(n)) for m = m_lo..m_hi, from one pass of each
    builder; its sizes are checked first, in bound_N's name."""
    _size("bound_N", n, 2)
    _size("bound_N", m_lo, 1, "m")
    _size("bound_N", m_hi, 1, "m")
    pairs = zip(_m_pairs(n, m_lo, m_hi), _n_forms(n, m_lo, m_hi))
    return ((m, _Q(*big_m), big_n) for m, (big_m, big_n) in enumerate(pairs, start=m_lo))


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
    come from one ascending pass each, the builders that bound_M and
    bound_N read.
    """
    _size("chain_check", n, 2)
    _size("chain_check", m_max, 1, "m_max")
    nf = factorial(n)
    dn = derangements(n)
    # |n!/e - D_n|: the sign of n!/e - D_n alternates with n.
    if n % 2 == 0:
        head = EForm(dn, 0, -nf)
    else:
        head = EForm(-dn, 0, nf)
    frac = EForm(-partial_sum_pos(n), nf, 0)

    big_m = [_Q(*pair) for pair in _m_pairs(n, 1, m_max + 2)]
    big_n = list(_n_forms(n, 1, m_max))

    chain: list[tuple[str, EForm]] = [("|n!/e - D_n|", head)]
    chain.extend((f"N_{m}", big_n[m - 1]) for m in range(m_max, 0, -1))
    chain.append(("frac(e*n!)", frac))
    chain.extend(
        (f"M_{m}", EForm.from_rational(big_m[m - 1])) for m in range(m_max + 2, 0, -1)
    )
    chain.append(("1", EForm.from_rational(1)))

    for (name_lo, f_lo), (name_hi, f_hi) in zip(chain, chain[1:]):
        if not eform_lt(f_lo, f_hi):
            raise InvariantViolation(
                f"bounds chain broken at n={_name(n)}: expected {name_lo} < {name_hi}"
            )

    m_list = tuple(zip(range(1, m_max + 1), big_m, big_n))
    return BoundsChain(n=n, frac=frac, m_list=m_list)

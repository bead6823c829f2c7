"""Brute-force enumerations and the interval quadrature oracle.

These are the independent checks everything else is measured against,
so they get their own direct tests at small sizes.
"""

import hashlib
import math
import time
from fractions import Fraction
from math import ceil, comb, floor, lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecount import counts, oracles, specials
from ecount.certified import (
    EForm,
    IntervalReal,
    ceil_log2,
    eform_bounds,
    eform_eval,
    enclose_e,
    enclose_e_inv,
)
from ecount.errors import DomainError, PrecisionCapError
from ecount.exact import derangements, factorial

Q = Fraction


def test_brute_derangements_matches_recurrence():
    for n in range(oracles.MAX_BRUTE_DERANGEMENTS + 1):
        assert oracles.brute_derangements(n) == derangements(n)


def test_brute_derangements_cap():
    with pytest.raises(DomainError):
        oracles.brute_derangements(oracles.MAX_BRUTE_DERANGEMENTS + 1)


def test_brute_paths_small():
    # K_3 has paths 0-1 and 0-2-1 between the fixed pair.
    res = oracles.brute_paths(3)
    assert res.count == 2
    assert res.total_length == 3
    res4 = oracles.brute_paths(4)
    assert res4.count == 5
    assert res4.total_length == 11


def test_brute_paths_matches_closed_form():
    for n in range(3, oracles.MAX_BRUTE_PATHS + 1):
        res = oracles.brute_paths(n)
        assert res.count == counts.path_count(n)
        assert res.total_length == counts.path_length_sum(n)


def test_brute_paths_pair_independent():
    base = oracles.brute_paths(6)
    for pair in ((0, 1), (2, 5), (3, 4), (5, 0)):
        assert oracles.brute_paths(6, pair) == base


def test_brute_paths_rejects_bad_pair():
    with pytest.raises(DomainError):
        oracles.brute_paths(4, (0, 0))
    with pytest.raises(DomainError):
        oracles.brute_paths(4, (0, 4))


def test_brute_cycles_small():
    # Directed triangles through a fixed vertex of K_3: two orientations.
    res = oracles.brute_cycles(3)
    assert res.count == 2
    assert res.total_length == 6


def test_brute_cycles_matches_closed_form():
    for n in range(3, oracles.MAX_BRUTE_CYCLES + 1):
        res = oracles.brute_cycles(n)
        assert res.count == counts.cycle_count(n)
        assert res.total_length == counts.cycle_length_sum(n)


def test_brute_cycles_root_independent():
    assert oracles.brute_cycles(6, root=0) == oracles.brute_cycles(6, root=3)


# --- quadrature --------------------------------------------------------


def _inside(iv: IntervalReal, x) -> bool:
    return iv.lo <= Q(x) <= iv.hi


def test_quad_gamma_integer_anchors():
    # Gamma(n+1) = n! at z = 0.
    for n, expected in ((0, 1), (2, 2), (3, 6), (5, 120)):
        res = oracles.quad_gamma(n, Q(0), Q(1, 10**9))
        assert _inside(res.value, expected)
        assert res.value.width <= Q(1, 10**9)


def test_quad_gamma_shifted_anchors():
    # Integral from 1: e^-1 * D_n(1)-style values, checked against
    # 50-digit decimals of 1/e, 2/e, 5/e.
    einv = Q("0.36787944117144232159552377016146086744581113103176")
    cases = ((0, einv), (1, 2 * einv), (2, 5 * einv))
    for n, expected in cases:
        res = oracles.quad_gamma(n, Q(1), Q(1, 10**9))
        assert abs(res.value.midpoint - expected) < Q(1, 10**9)


def test_quad_gamma_negative_start():
    # Integral of t^3 e^-t from -1 equals 2e.
    e50 = Q("2.71828182845904523536028747135266249775724709369995")
    res = oracles.quad_gamma(3, Q(-1), Q(1, 10**9))
    assert abs(res.value.midpoint - 2 * e50) < Q(1, 10**9)


def test_quad_gamma_tail_bound_is_small():
    res = oracles.quad_gamma(4, Q(0), Q(1, 10**6))
    assert res.tail_bound <= Q(1, 2 * 10**6)
    assert res.evaluations > 0


def test_quad_gamma_tolerance_scales():
    loose = oracles.quad_gamma(3, Q(0), Q(1, 10**3))
    tight = oracles.quad_gamma(3, Q(0), Q(1, 10**12))
    assert tight.value.width < loose.value.width
    assert loose.value.overlaps(tight.value)
    assert tight.value.width <= Q(1, 10**12)


# sha256 of the enclosure endpoints below, as computed with panels about
# sqrt(n + 1) wide and the order ladder 16, 32, ..., 240: any change to a
# single bit shows here.
_ENCLOSURE_DIGEST = "e19b53f7f4d925db26a13fe4367fbade86bff3cde69b8755dc40741d2c11fd33"


def test_quadrature_enclosures_match_the_pinned_digest():
    digest = hashlib.sha256()
    for n in range(26):
        for z in (Q(-1), Q(0), Q(1), Q(-5, 6), Q(7, 3), Q(1, 2)):
            v = oracles.quad_gamma(n, z, Q(1, 10**9)).value
            digest.update(f"{v.lo} {v.hi}\n".encode())
    for n in range(1, 21):
        for rec in specials.integral_identities(n):
            digest.update(f"{rec.enclosure.lo} {rec.enclosure.hi}\n".encode())
    assert digest.hexdigest() == _ENCLOSURE_DIGEST


def _linear_tail_num(n, u, tol):
    """The rounded-up tail bound at u and whether it is at most tol/2."""
    _, einv_hi = eform_bounds(EForm(0, 0, 1), 64)
    tail_bits = max(1, ceil_log2(2 / tol) + oracles._GUARD_BITS)
    t_num = -(-(u ** (n + 1) * einv_hi**u << tail_bits) // ((u - n) << (64 * u)))
    return Q(t_num, 1 << tail_bits), 2 * t_num * tol.denominator <= tol.numerator << tail_bits


def _linear_cutoff(n, u, tol):
    """The cut-off as the quadrature found it before the bisection: the
    first u from u_min on whose tail bound fits."""
    _, einv_hi = eform_bounds(EForm(0, 0, 1), 64)
    tail_bits = max(1, ceil_log2(2 / tol) + oracles._GUARD_BITS)
    pw = einv_hi**u
    while True:
        t_num = -(-(u ** (n + 1) * pw << tail_bits) // ((u - n) << (64 * u)))
        if 2 * t_num * tol.denominator <= tol.numerator << tail_bits:
            return u, Q(t_num, 1 << tail_bits)
        u += 1
        pw *= einv_hi


def _u_min(n, cuts):
    return max(2 * n + 1, ceil(cuts[-1]) + 1, 6)


@pytest.mark.parametrize("tol", [Q(3, 2), Q(1, 1000), Q(1, 10**9), Q(1, 2**100)])
def test_tail_cutoff_matches_the_linear_search(tol):
    # Every n up to 60 with cuts that set u_min or not, then a linear
    # scan of up to 1,300 steps at a few large n.
    for n in range(61):
        for cuts in ([Q(0)], [Q(-1), Q(0), Q(1)], [Q(7, 3)], [Q(90)]):
            u_min = _u_min(n, cuts)
            assert oracles._tail_cutoff(n, u_min, tol) == _linear_cutoff(n, u_min, tol)
    if tol == Q(1, 10**9):
        for n in (100, 175, 250):
            assert oracles._tail_cutoff(n, 2 * n + 1, tol) == _linear_cutoff(n, 2 * n + 1, tol)


def test_tail_cutoff_is_the_least_fitting_u_up_to_n_250():
    # Between the linear scans above, each cut-off fits and the u below it,
    # if in range, does not: with the bound non-increasing in u, that is
    # the least fitting u the linear scan would stop at.
    tol = Q(1, 10**9)
    for n in range(61, 251, 7):
        u, tail = oracles._tail_cutoff(n, 2 * n + 1, tol)
        assert _linear_tail_num(n, u, tol) == (tail, True)
        assert u == 2 * n + 1 or not _linear_tail_num(n, u - 1, tol)[1]


# (U, tail numerator, log2 of the tail denominator) of _tail_cutoff(n,
# max(2n + 1, 6), tol), as the doubling-and-bisection search found them
_TAIL_CUTOFF_PINS = {
    (0, Q(1, 10**400)): (922, 15, 1334),
    (5, Q(1, 10**400)): (957, 1, 1331),
    (40, Q(1, 10**400)): (1206, 13, 1334),
    (0, Q(1, 2**3000)): (2081, 7, 3005),
    (5, Q(1, 2**3000)): (2119, 5, 3004),
    (40, Q(1, 2**3000)): (2392, 9, 3005),
    (1000, Q(1, 10**9)): (9143, 9, 35),
}


@pytest.mark.parametrize("n, tol", list(_TAIL_CUTOFF_PINS))
def test_tail_cutoff_keeps_its_values_at_tiny_tol_and_large_n(n, tol):
    # tol far below the smallest float and an n far past the linear
    # scans above: the float guess must neither fail nor move U.
    u, num, bits = _TAIL_CUTOFF_PINS[n, tol]
    assert oracles._tail_cutoff(n, max(2 * n + 1, 6), tol) == (u, Q(num, 1 << bits))


@pytest.mark.parametrize("skew", (0.5, 0.9, 1.1, 3.0))
def test_tail_cutoff_finds_the_least_u_from_a_bad_guess(skew, monkeypatch):
    # Logs scaled by skew put the float guess far below or above the
    # cut-off; the exact search from the guess must still end at it.
    want = {
        (n, tol): oracles._tail_cutoff(n, 2 * n + 1, tol)
        for n in (0, 3, 17, 60)
        for tol in (Q(1, 1000), Q(1, 10**9), Q(1, 10**40))
    }
    monkeypatch.setattr(oracles, "log", lambda v: skew * math.log(v))
    for (n, tol), got in want.items():
        assert oracles._tail_cutoff(n, 2 * n + 1, tol) == got == _linear_cutoff(n, 2 * n + 1, tol)


def test_one_power_chain_per_sign_and_64_bit_band(monkeypatch):
    # The panels of a pass ask for e^-m at many scales 2^-p; the chains
    # of powers of e and 1/e are built only at p rounded up to 64 bits.
    passes, scales = [], []

    class Tables(oracles._PassTables):
        def __init__(self, n):
            super().__init__(n)
            passes.append(self)

        def exp(self, num, den, bits):
            res = super().exp(num, den, bits)
            scales.append(res[2])
            return res

    monkeypatch.setattr(oracles, "_PassTables", Tables)
    oracles.quad_gamma(25, Q(-1), Q(1, 10**9))
    (tables,) = passes
    bands = {-(-p // 64) * 64 for p in scales}
    assert len(set(scales)) > 2 * len(bands)
    assert {big for big, _ in tables._powers} <= bands


def test_panel_grid_stays_inside_z_to_u(monkeypatch):
    # Panels about sqrt(n + 1) wide start from multiples of their width;
    # none may reach below the lower limit z or past the cut-off U, and
    # each enclosure still holds the closed form e^-z * D_n(z).
    seen = []
    panel = oracles._panel

    def recording_panel(n, a, b, d, *rest):
        seen.append((a, b, d))
        return panel(n, a, b, d, *rest)

    monkeypatch.setattr(oracles, "_panel", recording_panel)
    for tol in (Q(1, 10**9), Q(1, 10**3)):
        for z in (Q(7, 5), Q(2), Q(7, 3), Q(5), Q(9)):
            for n in range(41):
                seen.clear()
                res = oracles.quad_gamma(n, z, tol)
                u, _ = oracles._tail_cutoff(n, _u_min(n, [z]), tol)
                assert len(seen) == res.evaluations
                assert all(z <= Q(a, d) < Q(b, d) <= u for a, b, d in seen), (n, z)
                closed = specials.inc_gamma_int(specials.GammaQuery(n, z, 200))
                assert res.value.encloses(closed), (n, z, tol)


# quad_gamma(n, z, tol).evaluations for n = 0, 1, 2 with unit panels and
# the order ladder 6, 8, ..., 240, for z = -1, 0, 1, -5/6, 7/3, 1/2
_UNIT_PANEL_EVALUATIONS = {
    Q(1, 10**9): ((23, 22, 21, 23, 20, 22), (26, 25, 24, 26, 23, 25), (30, 29, 28, 30, 27, 29)),
    Q(1, 10**3): ((9, 8, 7, 9, 6, 8), (12, 11, 10, 12, 9, 11), (14, 13, 12, 14, 11, 13)),
}


def test_wide_panels_cut_the_evaluation_count():
    assert oracles.quad_gamma(25, Q(-1), Q(1, 10**9)).evaluations <= 45
    for tol, by_n in _UNIT_PANEL_EVALUATIONS.items():
        for n, counts_before in enumerate(by_n):
            for z, before in zip((Q(-1), Q(0), Q(1), Q(-5, 6), Q(7, 3), Q(1, 2)), counts_before):
                assert oracles.quad_gamma(n, z, tol).evaluations <= before, (n, z, tol)


def test_quad_gamma_domain():
    with pytest.raises(DomainError):
        oracles.quad_gamma(-1, Q(0), Q(1, 100))
    with pytest.raises(DomainError):
        oracles.quad_gamma(3, Q(0), Q(0))


def test_quad_gamma_budget_guard(monkeypatch):
    monkeypatch.setattr(oracles, "_EVAL_BUDGET", 3)
    with pytest.raises(PrecisionCapError):
        oracles.quad_gamma(6, Q(-1), Q(1, 10**9))


def test_refusals_name_a_wide_rational_by_its_bit_lengths(monkeypatch):
    # A tol or z past Python's 4,300-digit str limit must not turn the
    # typed refusal into a ValueError, nor print thousands of digits.
    monkeypatch.setattr(oracles, "_EVAL_BUDGET", 50)
    wide = Q(1, 10**5000)
    named = "a rational with a 1-bit numerator and a 16610-bit denominator"
    with pytest.raises(PrecisionCapError) as cap:
        oracles.quad_gamma(5, Q(-1), wide)
    assert str(cap.value) == (
        f"quad_gamma(n=5, z=-1): evaluation budget exhausted before tol={named}"
    )
    with pytest.raises(DomainError) as bad_tol:
        oracles.quad_gamma(5, Q(-1), -wide)
    assert str(bad_tol.value) == f"quad_gamma(n=5, z=-1) requires tol > 0 (got {named})"
    monkeypatch.setattr(oracles, "_EVAL_BUDGET", 3)
    with pytest.raises(PrecisionCapError) as cap:
        oracles.quad_gamma(5, 1 + wide, Q(1, 10**9))
    assert str(cap.value).startswith(
        "quad_gamma(n=5, z=a rational with a 16610-bit numerator and a 16610-bit denominator):"
    )


def test_integral_identities_refusals_name_integral_identities(monkeypatch):
    monkeypatch.setattr(oracles, "_EVAL_BUDGET", 3)
    with pytest.raises(PrecisionCapError) as cap:
        specials.integral_identities(5, Q(1, 10**9))
    assert str(cap.value) == (
        "integral_identities(n=5): evaluation budget exhausted before tol=1/1000000000"
    )
    with pytest.raises(DomainError) as bad_tol:
        specials.integral_identities(5, Q(0))
    assert str(bad_tol.value) == "integral_identities(n=5) requires tol > 0 (got 0)"


def test_quad_gamma_at_extreme_z_is_refused_before_any_work(monkeypatch):
    # Past z = 16383 the tail cut-off's exact tests would work on e^-U at
    # more than 64 * 16384 bits, the default cap; below z = -_EVAL_BUDGET
    # the integers in (z, 1] alone start more panels than the budget.
    # Both refusals come before the cut-off is searched or a table built.
    def no_work(*args):
        raise AssertionError("quad_gamma started work it must refuse")

    tol = Q(1, 10**9)
    assert oracles.quad_gamma(3, Q(16383), tol).value.width <= tol
    monkeypatch.setattr(oracles, "_tail_cutoff", no_work)
    monkeypatch.setattr(oracles, "_PassTables", no_work)
    with pytest.raises(PrecisionCapError) as cap:
        oracles.quad_gamma(3, Q(16384), tol)
    assert str(cap.value) == (
        "quad_gamma(n=3, z=16384): tail cut-off needs 1048640 working bits,"
        " above the precision cap of 1048576"
    )
    with pytest.raises(PrecisionCapError) as cap:
        oracles.quad_gamma(3, Q(10**6), tol)
    assert str(cap.value) == (
        "quad_gamma(n=3, z=1000000): tail cut-off needs 64000064 working bits,"
        " above the precision cap of 1048576"
    )
    with pytest.raises(PrecisionCapError) as cap:
        oracles.quad_gamma(3, Q(-(10**6)), tol)
    assert str(cap.value) == (
        "quad_gamma(n=3, z=-1000000): evaluation budget exhausted before tol=1/1000000000"
    )
    # The budget refusal is certain only past the budget: at z = 1 - budget
    # the pass runs, and here meets the stub that stands for its work.
    with pytest.raises(AssertionError, match="started work"):
        oracles.quad_gamma(3, Q(1 - oracles._EVAL_BUDGET), tol)
    with pytest.raises(PrecisionCapError, match="evaluation budget exhausted"):
        oracles.quad_gamma(3, Q(-oracles._EVAL_BUDGET), tol)
    # The cap test reads ECOUNT_PRECISION_CAP: raised, the same call
    # reaches the cut-off search.
    monkeypatch.setenv("ECOUNT_PRECISION_CAP", str(1 << 26))
    with pytest.raises(AssertionError, match="started work"):
        oracles.quad_gamma(3, Q(10**6), tol)


def test_quad_gamma_at_a_tiny_tol_is_refused_before_any_work(monkeypatch):
    # The tail bound is at least e^-U, so a cut-off U that fits has
    # U >= ln(2/tol) > 0.69 * (bits of tol's denominator - bits of its
    # numerator): at tol = 10^-10000 that bound alone needs 64 * 22921
    # bits, past the default cap, before the cut-off is searched.
    for n in (0, 3, 20):
        for tol in (Q(1, 10), Q(3, 1 << 40), Q(1, 10**9), Q(7, 10**300)):
            low = 69 * (tol.denominator.bit_length() - tol.numerator.bit_length()) // 100
            assert low <= oracles._tail_cutoff(n, 2 * n + 1, tol)[0]

    def no_work(*args):
        raise AssertionError("quad_gamma started work it must refuse")

    monkeypatch.setattr(oracles, "_tail_cutoff", no_work)
    monkeypatch.setattr(oracles, "_PassTables", no_work)
    tiny = Q(1, 10**10000)
    with pytest.raises(PrecisionCapError) as cap:
        oracles.quad_gamma(3, 0, tiny)
    assert str(cap.value) == (
        "quad_gamma(n=3, z=0): tail cut-off needs 1466944 working bits,"
        " above the precision cap of 1048576"
    )
    with pytest.raises(PrecisionCapError, match=r"^integral_identities\(n=3\): tail cut-off"):
        specials.integral_identities(3, tiny)


def _exp_iv(x, bits):
    """The quadrature's enclosure of e^x, from a fresh pass's tables."""
    lo, hi, p = oracles._PassTables(0).exp(x.numerator, x.denominator, bits)
    return IntervalReal(Q(lo, 1 << p), Q(hi, 1 << p))


def test_exp_interval_helper_consistency():
    # The internal exponential enclosure agrees with the public one on
    # a shared grid; both must contain exp(x) computed from e brackets.
    from ecount.certified import enclose_e, enclose_e_inv
    from ecount.specials import exp_enclosure

    for x in (Q(-2), Q(-1, 2), Q(0), Q(1, 2), Q(2)):
        pub = exp_enclosure(x, 80)
        priv = _exp_iv(x, 80)
        assert pub.overlaps(priv)
    assert _exp_iv(Q(1), 100).overlaps(enclose_e(100))
    assert _exp_iv(Q(-1), 100).overlaps(enclose_e_inv(100))


# --- fixed-point quadrature kernels -------------------------------------


def _panel_core(n, a, b, order):
    """The quadrature's surrogate integral on [a, b], from a fresh pass's
    core table and a Horner sum in the midpoint."""
    d = lcm(a.denominator, b.denominator)
    big_m, big_h, den = oracles._midpoint_form(int(a * d), int(b * d), d)
    coeffs, denom = oracles._PassTables(n).core(den, big_h, order)
    return Q(oracles._horner(coeffs, big_m), denom)


def _panel_core_reference(n, a, b, order):
    """The surrogate integral of _PassTables.core summed term by term in Fractions:
    sum over i + j even of C(n, i) m^(n-i) (-1)^j / j! * 2 half^(i+j+1) / (i+j+1)."""
    m = (a + b) / 2
    half = (b - a) / 2
    total = Q(0)
    for i in range(n + 1):
        for j in range(order + 1):
            s = i + j
            if s % 2 == 0:
                term = comb(n, i) * m ** (n - i) * Q((-1) ** j, factorial(j))
                total += term * 2 * half ** (s + 1) / (s + 1)
    return total


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=25),
    st.fractions(min_value=-30, max_value=60, max_denominator=60),
    st.fractions(min_value=Q(1, 64), max_value=2, max_denominator=64),
    st.integers(min_value=0, max_value=40),
)
@example(0, Q(0), Q(1), 0)
@example(25, Q(-5, 6), Q(5, 6), 80)
def test_panel_core_matches_fraction_reference(n, a, width, half_order):
    b = a + width
    order = 2 * half_order
    assert _panel_core(n, a, b, order) == _panel_core_reference(n, a, b, order)


def _core_direct(n, den, big_h, order):
    """The core table by its double sum: c_i = C(n, i) * S_i, S_i the sum
    over j <= K, i + j even, of (-1)^j (K!/j!) den^(K-j) times the moment
    2 H^(i+j+1) ell / (i+j+1), ell = lcm(1..n+K+1)."""
    top = n + order + 1
    ell = lcm(*range(1, top + 1))
    moment = [2 * big_h ** (s + 1) * (ell // (s + 1)) if s % 2 == 0 else 0 for s in range(top)]
    weight = [
        (-1) ** j * (factorial(order) // factorial(j)) * den ** (order - j)
        for j in range(order + 1)
    ]
    coeffs = [
        comb(n, i) * sum(weight[j] * moment[i + j] for j in range(i % 2, order + 1, 2))
        for i in range(n + 1)
    ]
    return coeffs, ell * factorial(order) * den**top


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=60),
    st.sampled_from((1, 2, 3, 6, 8, 16)),
    st.integers(min_value=1, max_value=16),
    st.sampled_from(range(16, 241, 16)),
)
@example(200, 1, 8, 240)
@example(300, 2, 5, 240)
@example(130, 1, 8, 272)
@example(0, 1, 1, 16)
def test_core_recurrence_matches_the_double_sum(n, den, big_h, order):
    assert oracles._PassTables(n).core(den, big_h, order) == _core_direct(n, den, big_h, order)


def _exp_reference(x, bits):
    """e^x in exact Fraction arithmetic: a power of the exact e or 1/e
    bracket times a Taylor bracket of e^r, both at about `bits` bits."""
    q = floor(x)
    r = x - q
    comp = bits + abs(q).bit_length() + 4
    base = enclose_e(comp).power(q) if q >= 0 else enclose_e_inv(comp).power(-q)
    if r == 0:
        return base
    k = 4
    while True:
        rem = r ** (k + 1) / (factorial(k + 1) * (1 - r / (k + 2)))
        if rem <= Q(1, 1 << comp):
            break
        k += 2
    s = sum(r**j / factorial(j) for j in range(k + 1))
    return base * IntervalReal(s, s + rem)


def _is_dyadic(x: Fraction) -> bool:
    d = x.denominator
    return d & (d - 1) == 0


@settings(max_examples=100, deadline=None)
@given(
    st.fractions(min_value=-80, max_value=80, max_denominator=10**6),
    st.integers(min_value=1, max_value=300),
)
@example(Q(80), 64)
@example(Q(-80), 64)
@example(Q(-1, 3), 1)
@example(Q(159, 2), 300)
def test_exp_iv_encloses_a_finer_enclosure(x, bits):
    iv = _exp_iv(x, bits)
    finer = _exp_reference(x, bits + 200)
    assert iv.encloses(finer)
    assert iv.width <= Q(1, 1 << bits) * max(1, finer.hi)
    assert _is_dyadic(iv.lo) and _is_dyadic(iv.hi)


# --- the integer panel against the Fraction panel it replaced ----------


def _exp_iv_fraction(x, bits):
    """e^x at scale 2^-p, computed directly: |floor(x)| chained fixed-point
    products of e or 1/e and a Taylor sum of e^r, both at P = p rounded up
    to a multiple of 64, their product shifted down to 2^-p with the lower
    end floored and the upper ceiled."""
    q = floor(x)
    r = x - q
    p = bits + bits.bit_length() + abs(q).bit_length() + 8
    big = -(-p // 64) * 64
    one = 1 << big
    base_lo = base_hi = one
    if q:
        lo, hi = eform_bounds(EForm(0, 1, 0) if q > 0 else EForm(0, 0, 1), big)
        for _ in range(abs(q)):
            base_lo = base_lo * lo >> big
            base_hi = -(-base_hi * hi >> big)
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
        tay_hi += t_hi
    shift = 2 * big - p
    return IntervalReal(
        Q(base_lo * tay_lo >> shift, 1 << p), Q(-(-base_hi * tay_hi >> shift), 1 << p)
    )


def _abs_moment(n, a, b):
    """Exact integral of |t|^n over [a, b]."""
    k = n + 1
    if a >= 0:
        return (b**k - a**k) / k
    if b <= 0:
        return ((-a) ** k - (-b) ** k) / k
    return (b**k + (-a) ** k) / k


def _panel_fraction(n, a, b, share, max_order):
    """The panel enclosure in Fraction and IntervalReal arithmetic: the
    smallest order 16, 32, ... whose remainder times the |t|^n moment and
    the bound 3^ceil(-m) (m < 0) or 2^-floor(m) (m >= 0) on e^-m is
    <= share/4, the surrogate core summed term by term, the product with
    e^-m (worked out to bits sized by max(1, that bound)) and outward
    rounding a few bits past the share."""
    m = (a + b) / 2
    half = (b - a) / 2
    amom = _abs_moment(n, a, b)
    ebound = Q(3) ** ceil(-m) if m < 0 else Q(1, 2 ** floor(m))
    c = 4 * amom * ebound / share
    order = 16
    while True:
        rem = half ** (order + 1) / (factorial(order + 1) * (1 - half / (order + 2)))
        if c * rem <= 1:
            break
        order += 16
        if order > max_order:
            return None
    core = _panel_core_reference(n, a, b, order)
    inner = IntervalReal(core - rem * amom, core + rem * amom)
    mag = max(abs(inner.lo), abs(inner.hi))
    bits = max(16, ceil_log2(4 * mag * max(1, ebound) / share))
    out_bits = max(1, ceil_log2(1 / share) + 4)
    for _ in range(3):
        out = (_exp_iv_fraction(-m, bits) * inner).round_out(out_bits)
        if out.width <= share:
            return out
        bits *= 2
    return None


def _panel_interval(n, a, b, share, tables=None):
    """oracles._panel on the panel [a, b] and the share, all Fractions,
    with its (lo, hi, bits) result read as an IntervalReal."""
    d = lcm(a.denominator, b.denominator)
    tables = tables or oracles._PassTables(n)
    res = oracles._panel(
        n, int(a * d), int(b * d), d, (share.numerator, share.denominator), tables
    )
    if res is None:
        return None
    lo, hi, bits = res
    return IntervalReal(Q(lo, 1 << bits), Q(hi, 1 << bits))


@st.composite
def _panels(draw):
    """Panels as a pass makes them: unit panels, panels 2 to 16 wide on
    multiples of their width, panels from a cut to the next integer, and
    halves of those after subdivision."""
    a = draw(st.fractions(min_value=-3, max_value=70, max_denominator=12))
    kind = draw(st.sampled_from(("unit", "wide", "cut", "half")))
    if kind == "unit":
        a = Q(floor(a))
        return a, a + 1
    if kind == "wide":
        width = 2 ** draw(st.integers(min_value=1, max_value=4))
        a = Q(max(0, floor(a)) // width * width)
        return a, a + width
    if kind == "cut":
        return a, Q(floor(a) + 1)
    return a, a + Q(1, 2 ** draw(st.integers(min_value=1, max_value=8)))


_SHARES = st.builds(
    lambda mult, e: Q(mult, 1000) * Q(2) ** e,
    st.integers(min_value=1, max_value=1000),
    st.one_of(
        st.integers(min_value=-120, max_value=8),
        st.integers(min_value=-1500, max_value=-120),
        st.integers(min_value=-5000, max_value=-1500),
    ),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=30), _panels(), _SHARES)
@example(20, (Q(7), Q(8)), Q(1, 10**11))
@example(3, (Q(-5, 6), Q(0)), Q(1, 10**9))
@example(3, (Q(0), Q(1)), Q(50, 7))
@example(30, (Q(-1), Q(0)), Q(1, 2**2500))
@example(20, (Q(20), Q(24)), Q(1, 10**11))
@example(8, (Q(56), Q(64)), Q(1, 10**9))
def test_panel_matches_the_fraction_panel(n, panel, share):
    a, b = panel
    want = _panel_fraction(n, a, b, share, oracles._MAX_ORDER)
    assert _panel_interval(n, a, b, share) == want
    # again from the tables a first evaluation filled
    tables = oracles._PassTables(n)
    assert _panel_interval(n, a, b, share, tables) == want
    assert _panel_interval(n, a, b, share, tables) == want


@pytest.mark.parametrize("den, big_h", ((2, 1), (1, 4), (6, 1), (3, 2)))
def test_remainder_rows_are_built_only_as_far_as_read(den, big_h):
    # Each row bounds the Taylor remainder half^(K+1) / ((K+1)! (1 -
    # half/(K+2))); reading three rows builds three, and reading on
    # extends them to the full ladder with the same first rows.
    tables = oracles._PassTables(3)
    first = list(zip(range(3), tables.remainders(den, big_h, oracles._MAX_ORDER)))
    assert len(tables._remainders[den, big_h][0]) == 3
    rows = list(tables.remainders(den, big_h, oracles._MAX_ORDER))
    assert [row for _, row in first] == rows[:3]
    half = Q(big_h, den)
    orders = range(oracles._ORDER_STEP, oracles._MAX_ORDER + 1, oracles._ORDER_STEP)
    assert [k for k, _, _ in rows] == list(orders)
    for k, num, rem_den in rows:
        assert Q(num, rem_den) == half ** (k + 1) / (factorial(k + 1) * (1 - half / (k + 2)))


@pytest.mark.parametrize("n", (0, 7, 20))
def test_one_table_serves_panels_of_every_width_and_offset(n):
    # Panels with one denominator but different half-widths, midpoints
    # with one denominator but different fractional parts, and shares
    # that repeat a scale: a shared table must key each entry by all of it.
    tables = oracles._PassTables(n)
    for a in (Q(-2), Q(-1, 3), Q(1, 6), Q(5, 6), Q(3), Q(7)):
        for width in (Q(1), Q(1, 2), Q(1, 3), Q(2, 3), Q(1, 6), Q(5, 6)):
            for share in (Q(1, 10**3), Q(1, 10**9), Q(1, 10**30)):
                want = _panel_interval(n, a, a + width, share)
                assert _panel_interval(n, a, a + width, share, tables) == want


def _gamma_closed_form(n, z):
    """integral over [z, inf) of e^-t t^n dt = e^-z * sum_{k<=n} n!/k! z^k,
    as an EForm for z in {-1, 0, 1}."""
    poly = sum(factorial(n) // factorial(k) * z**k for k in range(n + 1))
    return {-1: EForm(0, poly, 0), 0: EForm(poly, 0, 0), 1: EForm(0, 0, poly)}[z]


@pytest.mark.parametrize("n", (0, 8, 15, 25))
def test_quad_gamma_endpoints_stay_short_dyadics(n):
    # Each panel is rounded outward to a dyadic sized to its width share,
    # so the endpoints stay near the 30 bits the tolerance needs instead
    # of carrying the product of every panel's denominator.
    tol = Q(1, 10**9)
    for z in (Q(-1), Q(0), Q(1), Q(-5, 6)):
        res = oracles.quad_gamma(n, z, tol)
        assert res.value.width <= tol
        for end in (res.value.lo, res.value.hi, res.tail_bound):
            assert _is_dyadic(end)
            assert end.denominator.bit_length() - 1 <= 128
        if z.denominator == 1:
            assert res.value.encloses(eform_eval(_gamma_closed_form(n, int(z)), 200))


@pytest.mark.parametrize("n", (60, 80, 300, 400))
def test_quad_gamma_at_large_n_contains_n_factorial_in_time(n):
    # integral over [0, inf) of e^-t t^n is n!; from n = 53 on, panels near
    # the peak need Taylor orders above 80, and from n = 120 on, above 240
    tol = Q(1, 10**9)
    start = time.perf_counter()
    res = oracles.quad_gamma(n, Q(0), tol)
    assert time.perf_counter() - start < 10
    assert res.value.contains(prod(range(1, n + 1)))
    assert res.value.width <= tol


def test_integral_identities_answer_at_n_400_in_time():
    start = time.perf_counter()
    records = specials.integral_identities(400)
    assert time.perf_counter() - start < 10
    assert len(records) == 6


def test_the_order_ladder_grows_with_n_right_of_0_only(monkeypatch):
    # Each panel's highest order read, with the sign of its midpoint:
    # left of 0 and at n <= 119 the ladder stops at 240; right of 0 it
    # reaches 2(n + 1) rounded up to a multiple of 16.
    reads = []
    panel = oracles._panel

    class Tables(oracles._PassTables):
        def remainders(self, den, big_h, top):
            for row in super().remainders(den, big_h, top):
                reads[-1][2] = row[0]
                yield row

    def recording_panel(n, a, b, d, *rest):
        reads.append([n, a + b >= 0, 0])
        return panel(n, a, b, d, *rest)

    monkeypatch.setattr(oracles, "_PassTables", Tables)
    monkeypatch.setattr(oracles, "_panel", recording_panel)
    for n in (0, 60, 119, 120, 200, 300):
        oracles.quad_gamma(n, Q(-3), Q(1, 10**9))
    specials.integral_identities(400)
    assert all(order <= 240 for n, right, order in reads if not right or n <= 119)
    assert all(order <= max(240, -(-2 * (n + 1) // 16) * 16) for n, _, order in reads)
    assert {n for n, right, order in reads if order > 240} == {200, 300, 400}


def test_quad_gamma_loose_tolerance():
    # A tolerance above 1 asks for rounding coarser than integers; the
    # rounding precision stays at least one bit.
    for tol in (Q(100), Q(10**6)):
        res = oracles.quad_gamma(3, Q(0), tol)
        assert _inside(res.value, 6)
        assert res.value.width <= tol


def test_quadrature_stays_independent_of_the_audited_closed_forms():
    for name in ("derangements", "dpoly_eval", "eform_eval", "specials"):
        assert not hasattr(oracles, name)

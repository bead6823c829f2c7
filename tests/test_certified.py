"""Certified engine: enclosures of e and 1/e, interval arithmetic,
and the adaptive certified floor."""

import random
import sys
import threading
from fractions import Fraction
from math import factorial, floor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecount import certified
from ecount.certified import (
    DEFAULT_PRECISION_CAP,
    CertifiedFloor,
    EForm,
    IntervalReal,
    ceil_log2,
    certified_floor,
    certified_floor_info,
    eform_bounds,
    eform_eval,
    eform_lt,
    eform_sign,
    enclose_e,
    enclose_e_inv,
    frac_e_nfact,
    fraction_to_decimal,
)
from ecount.errors import DomainError, PrecisionCapError

Q = Fraction

# First digits of e and 1/e, used as spot anchors only (the enclosures
# themselves are what the library trusts).
E_50 = Q("2.71828182845904523536028747135266249775724709369995")
E_INV_50 = Q("0.36787944117144232159552377016146086744581113103176")


# --- interval arithmetic ------------------------------------------------


def test_interval_basic_ops():
    a = IntervalReal(1, 2)
    b = IntervalReal(Q(-1, 2), Q(1, 2))
    assert (a + b).lo == Q(1, 2)
    assert (a + b).hi == Q(5, 2)
    assert (a - b).lo == Q(1, 2)
    assert (a * b) == IntervalReal(-1, 1)
    assert (-a) == IntervalReal(-2, -1)


def test_interval_mul_signs():
    neg = IntervalReal(-3, -2)
    mixed = IntervalReal(-1, 4)
    assert neg * neg == IntervalReal(4, 9)
    assert neg * mixed == IntervalReal(-12, 3)
    assert mixed * mixed == IntervalReal(-4, 16)


def test_interval_power():
    x = IntervalReal(-2, 3)
    assert x.power(2) == IntervalReal(0, 9)
    assert x.power(3) == IntervalReal(-8, 27)
    assert x.power(0) == IntervalReal(1, 1)


def test_interval_reciprocal():
    x = IntervalReal(2, 4)
    assert x.reciprocal() == IntervalReal(Q(1, 4), Q(1, 2))
    with pytest.raises(DomainError):
        IntervalReal(-1, 1).reciprocal()


def test_interval_validation():
    with pytest.raises(DomainError):
        IntervalReal(2, 1)


def test_interval_round_out():
    x = IntervalReal(Q(1, 3), Q(2, 3))
    r = x.round_out(8)
    assert r.encloses(x)
    assert r.width <= x.width + Q(2, 256)
    # Dyadic endpoints after rounding.
    assert r.lo.denominator & (r.lo.denominator - 1) == 0


def test_interval_to_decimal_outward():
    x = IntervalReal(Q(1, 3), Q(2, 3))
    lo, hi = x.to_decimal(4)
    assert lo == "0.3333"
    assert hi == "0.6667"
    assert Q(lo) <= x.lo and x.hi <= Q(hi)


def test_fraction_to_decimal_negative():
    assert fraction_to_decimal(Q(-1, 3), 3, round_up=False) == "-0.334"
    assert fraction_to_decimal(Q(-1, 3), 3, round_up=True) == "-0.333"


def test_ceil_log2():
    assert ceil_log2(Q(1)) == 0
    assert ceil_log2(Q(3)) == 2
    assert ceil_log2(Q(1, 3)) == -1
    assert ceil_log2(Q(4)) == 2
    for k in range(-20, 20):
        assert ceil_log2(Q(2) ** k) == k


@given(
    st.fractions(min_value=-100, max_value=100),
    st.fractions(min_value=-100, max_value=100),
    st.fractions(min_value=-100, max_value=100),
    st.fractions(min_value=-100, max_value=100),
)
def test_interval_mul_contains_products(a, b, c, d):
    x = IntervalReal(min(a, b), max(a, b))
    y = IntervalReal(min(c, d), max(c, d))
    p = x * y
    for u in (x.lo, x.hi):
        for v in (y.lo, y.hi):
            assert p.contains(u * v)


# --- enclosures of e ----------------------------------------------------


def test_enclosure_widths():
    for p in (8, 16, 53, 100, 500, 2000):
        e_iv = enclose_e(p)
        i_iv = enclose_e_inv(p)
        assert e_iv.width <= Q(1, 2**p)
        assert i_iv.width <= Q(1, 2**p)


def test_enclosures_contain_known_digits():
    # 150 bits is ~45 decimal digits, so the 50-digit truncations above
    # sit inside the enclosure; at much higher precision they would
    # correctly fall below its lower endpoint.
    e_iv = enclose_e(150)
    assert e_iv.contains(E_50)
    i_iv = enclose_e_inv(150)
    assert i_iv.contains(E_INV_50)
    # Spot float anchor too.
    assert i_iv.lo < Q("0.36787944117144233") and Q("0.36787944117144232") < i_iv.hi


def test_enclosures_nested():
    prev_e = enclose_e(8)
    prev_i = enclose_e_inv(8)
    for p in (16, 32, 64, 128, 256, 512):
        cur_e = enclose_e(p)
        cur_i = enclose_e_inv(p)
        assert prev_e.encloses(cur_e)
        assert prev_i.encloses(cur_i)
        prev_e, prev_i = cur_e, cur_i


def test_product_of_enclosures_contains_one():
    # e * (1/e) = 1 must survive outward rounding at every precision.
    for p in (8, 32, 128, 1024):
        prod = enclose_e(p) * enclose_e_inv(p)
        assert prod.contains(1)
        assert prod.width < Q(1, 2 ** (p - 4))


def test_eform_eval_width_bound():
    f = EForm(Q(1, 7), 3, -2)
    for p in (16, 64, 256):
        iv = eform_eval(f, p)
        assert iv.width <= Q(5, 2**p)


def test_eform_eval_rational_is_point():
    iv = eform_eval(EForm(Q(22, 7), 0, 0), 64)
    assert iv.lo == iv.hi == Q(22, 7)


# --- certified floor ----------------------------------------------------


def test_certified_floor_rational_fastpath():
    info = certified_floor_info(EForm(Q(7, 2), 0, 0))
    assert info.value == 3
    assert info.precision_bits == 0
    assert certified_floor(EForm(Q(-7, 2), 0, 0)) == -4


def test_certified_floor_of_e_multiples():
    # floor(e) = 2, floor(100e) = 271, floor(-e) = -3.
    assert certified_floor(EForm(0, 1, 0)) == 2
    assert certified_floor(EForm(0, 100, 0)) == 271
    assert certified_floor(EForm(0, -1, 0)) == -3
    assert certified_floor(EForm(0, 0, 1)) == 0
    assert certified_floor(EForm(0, 0, -1)) == -1


def test_certified_floor_matches_partial_sum():
    from ecount.exact import factorial, partial_sum_pos

    for n in range(1, 60):
        assert certified_floor(EForm(0, factorial(n), 0)) == partial_sum_pos(n)


def test_certified_floor_start_bits_independent():
    f = EForm(Q(-326), 120, 0)
    base = certified_floor_info(f)
    for start in (8, 16, base.precision_bits * 4):
        again = certified_floor_info(f, start_bits=start)
        assert again.value == base.value


def test_precision_cap_raises():
    # A cap below any deciding precision must fail loudly, not wrongly.
    with pytest.raises(PrecisionCapError):
        certified_floor(EForm(0, 1, 0), max_precision_bits=4)


def test_precision_cap_env_override(monkeypatch):
    monkeypatch.setenv("ECOUNT_PRECISION_CAP", "4")
    with pytest.raises(PrecisionCapError):
        certified_floor(EForm(0, 1, 0))
    monkeypatch.setenv("ECOUNT_PRECISION_CAP", "junk")
    with pytest.raises(DomainError):
        certified_floor(EForm(0, 1, 0))
    monkeypatch.delenv("ECOUNT_PRECISION_CAP")
    assert certified_floor(EForm(0, 1, 0)) == 2
    assert DEFAULT_PRECISION_CAP == 1 << 20


def test_eform_sign():
    assert eform_sign(EForm(0, 0, 0)) == 0
    assert eform_sign(EForm(Q(5), 0, 0)) == 1
    assert eform_sign(EForm(0, 1, -1)) == 1  # e - 1/e > 0
    assert eform_sign(EForm(-3, 1, 0)) == -1  # e - 3 < 0
    assert eform_sign(EForm(Q(-5, 2), 1, Q(-1, 2))) == 1  # e - 1/(2e) > 5/2


def test_eform_lt():
    assert eform_lt(EForm(0, 0, 1), EForm(Q(1, 2), 0, 0))  # 1/e < 1/2
    assert not eform_lt(EForm(0, 1, 0), EForm(Q(27, 10), 0, 0))
    # Rational comparisons are exact, equality is not "less than".
    assert not eform_lt(EForm(1, 0, 0), EForm(1, 0, 0))


def test_frac_e_nfact_bracket_small():
    for n in range(1, 30):
        f = frac_e_nfact(n)
        assert eform_sign(f) == 1
        assert eform_lt(EForm.from_rational(Q(1, n + 1)), f)
        assert eform_lt(f, EForm.from_rational(Q(1, n)))


def test_eform_arithmetic():
    f = EForm(1, 2, 3)
    g = EForm(Q(1, 2), -2, 0)
    assert (f + g) == EForm(Q(3, 2), 0, 3)
    assert (f - g) == EForm(Q(1, 2), 4, 3)
    assert f.scale(Q(1, 3)) == EForm(Q(1, 3), Q(2, 3), 1)
    assert (1 - g) == EForm(Q(1, 2), 2, 0)
    assert f.to_triple() == ("1", "2", "3")
    assert not f.is_rational
    assert EForm.from_rational(Q(3, 4)).is_rational


@settings(max_examples=60)
@given(
    st.fractions(min_value=-1000, max_value=1000),
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=-10**6, max_value=10**6),
)
def test_certified_floor_brackets_value(a, b, c):
    f = EForm(a, b, c)
    v = certified_floor(f)
    iv = eform_eval(f, 128)
    assert Q(v) <= iv.hi
    assert iv.lo < Q(v + 1)


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=120))
def test_floor_shift_identity(n):
    # floor((n! + 1)/e) = floor(n!/e) + [n even]: both routes certified.
    from ecount.exact import factorial

    nf = factorial(n)
    base = certified_floor(EForm(0, 0, nf))
    shifted = certified_floor(EForm(0, 0, nf + 1))
    assert shifted in (base, base + 1)


# --- fixed-point kernel -------------------------------------------------

# Coefficients of both signs: plain rationals (some with large
# denominators, so some tiny), and factorial-sized ones.
_COEFFS = st.one_of(
    st.just(Q(0)),
    st.fractions(max_denominator=10**40),
    st.builds(
        lambda n, sign, q: sign * factorial(n) * q,
        st.integers(min_value=0, max_value=300),
        st.sampled_from((-1, 1)),
        st.fractions(min_value=Q(1, 1000), max_value=1000, max_denominator=1000),
    ),
)
_EFORMS = st.builds(EForm, _COEFFS, _COEFFS, _COEFFS)


def _scaled(lo: int, hi: int, p: int) -> IntervalReal:
    return IntervalReal(Q(lo, 2**p), Q(hi, 2**p))


def _reference(f: EForm, decide) -> tuple[int, int]:
    """The refinement loop over exact eform_eval intervals: doubling p
    from 64 guard bits above the coefficient scale until decide(iv)
    answers; returns (answer, deciding p)."""
    p = max(8, 64 + int(abs(f.a) + 3 * abs(f.b) + abs(f.c)).bit_length())
    while True:
        answer = decide(eform_eval(f, p))
        if answer is not None:
            return answer, p
        p *= 2


def _reference_floor(iv: IntervalReal):
    return floor(iv.lo) if floor(iv.lo) == floor(iv.hi) else None


def _reference_sign(iv: IntervalReal):
    return 1 if iv.lo > 0 else -1 if iv.hi < 0 else None


@settings(max_examples=300, deadline=None)
@given(_EFORMS, st.integers(min_value=0, max_value=600))
def test_eform_bounds_encloses_and_stays_narrow(f, p):
    lo, hi = eform_bounds(f, p)
    assert _scaled(lo, hi, p).overlaps(eform_eval(f, p))
    # e and 1/e each enter with at most 2 ulps, plus one ulp of outward
    # rounding on each side.
    assert hi - lo < 2 * (abs(f.b) + abs(f.c)) + 2


@settings(max_examples=100, deadline=None)
@given(_EFORMS, st.integers(min_value=0, max_value=300), st.integers(min_value=1, max_value=300))
def test_eform_bounds_smaller_precision_after_larger(f, p, extra):
    fine_lo, fine_hi = eform_bounds(f, p + extra)
    lo, hi = eform_bounds(f, p)  # served by shifting the finer enclosures
    assert _scaled(lo, hi, p).overlaps(eform_eval(f, p))
    assert _scaled(lo, hi, p).overlaps(_scaled(fine_lo, fine_hi, p + extra))
    assert hi - lo < 2 * (abs(f.b) + abs(f.c)) + 2


@settings(max_examples=150, deadline=None)
@given(_EFORMS)
@example(EForm(-3, Q(-1, 10**30), Q(1, 10**31)))  # tiny b, c just below an integer
@example(EForm(0, factorial(300), -factorial(300)))
def test_kernel_decisions_match_eform_eval_loop(f):
    info = certified_floor_info(f)
    sign = eform_sign(f)
    if f.is_rational:
        assert info == CertifiedFloor(floor(f.a), 0)
        assert sign == (f.a > 0) - (f.a < 0)
        return
    assert (info.value, info.precision_bits) == _reference(f, _reference_floor)
    assert sign == _reference(f, _reference_sign)[0]


def test_eform_bounds_of_e_and_e_inv_contain_finer_enclosures():
    # Outward rounding: the kernel's bounds contain the exact enclosures
    # 64 bits finer, on the shift path and, one bit above the cached
    # precision at a time, on the path that rebuilds the cache.
    top = max(triple[0] for triple in certified._FIXED.values())
    for p in [*range(0, 700, 7), *range(top + 1, top + 61)]:
        for f, enclose in ((EForm(0, 1, 0), enclose_e), (EForm(0, 0, 1), enclose_e_inv)):
            lo, hi = eform_bounds(f, p)
            assert _scaled(lo, hi, p).encloses(enclose(p + 64))


def test_eform_bounds_threads_grow_cache_to_the_largest_precision():
    # Threads ask for different precisions at once, more of them than
    # cores, with frequent switches: a lost update would leave a smaller
    # triple in the cache, or an answer from a too-coarse one.
    f = EForm(Q(1, 3), -7, Q(5, 2))
    rng = random.Random(2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            base = max(triple[0] for triple in certified._FIXED.values())
            precisions = [base + 64 * (i + 1) for i in range(6)]
            rng.shuffle(precisions)
            barrier = threading.Barrier(len(precisions))
            results = {}

            def work(p):
                barrier.wait()
                results[p] = eform_bounds(f, p)

            threads = [threading.Thread(target=work, args=(p,)) for p in precisions]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            for p in precisions:
                lo, hi = results[p]
                assert _scaled(lo, hi, p).overlaps(eform_eval(f, p))
                assert hi - lo < 2 * (abs(f.b) + abs(f.c)) + 2
            # Grown to exactly the largest precision asked for, never beyond.
            assert [t[0] for t in certified._FIXED.values()] == [max(precisions)] * 2
    finally:
        sys.setswitchinterval(interval)

"""Hypergeometric forms, the exponential enclosure, the incomplete
gamma bridge, and the six integral identities."""

import hashlib
import re
from fractions import Fraction
from math import floor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecount import exact, specials
from ecount.certified import EForm, IntervalReal, certified_floor, eform_sign
from ecount.errors import DomainError, InvariantViolation, PrecisionCapError
from ecount.exact import derangements, dpoly_eval, factorial, partial_sum_pos

Q = Fraction


# --- terminating 2F0 ----------------------------------------------------


def test_hyp2f0_frozen_values():
    # F(1, -n; ; x) = sum_k (-n)_k ... terminates after n+1 terms.
    assert specials.hyp2f0(0, Q(7)) == 1
    assert specials.hyp2f0(2, Q(-1)) == 5
    assert specials.hyp2f0(3, Q(1)) == -2
    assert specials.hyp2f0(1, Q(1, 2)) == Q(1, 2)


def test_hyp2f0_polynomial_identity_exact():
    # x^n F(1, -n; ; -1/x) = D_n(x) for rational x != 0, exactly.
    for n in range(31):
        for x in (Q(1), Q(-1), Q(1, 2), Q(-1, 2), Q(2), Q(-2), Q(3, 7)):
            specials.hyp2f0_identity_check(n, x)
    assert dpoly_eval(3, Q(1, 2)) == Q(79, 8)


def _hyp2f0_fraction(n, x):
    """F(n; x) by the term ratio t_{k+1} = t_k * (k - n) * x in Fractions."""
    term = acc = Q(1)
    for k in range(n):
        term *= (k - n) * x
        acc += term
    return acc


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=60),
    st.fractions(min_value=-50, max_value=50, max_denominator=10**4),
)
@example(0, Q(0))
@example(60, Q(0))
@example(60, Q(-1))
@example(37, Q(-7, 3))
def test_hyp2f0_matches_the_fraction_recurrence(n, x):
    assert specials.hyp2f0(n, x) == _hyp2f0_fraction(n, x)


@pytest.mark.parametrize("delta", (1, -1))
def test_hyp2f0_checks_catch_an_off_by_one_route(delta, monkeypatch):
    def shifted(f):
        return lambda *args: f(*args) + delta

    # n = 10^4 reads dpoly_eval and partial_sum_pos through many split levels
    for n in (7, 10**4):
        with monkeypatch.context() as m:
            m.setattr(specials, "dpoly_eval", shifted(dpoly_eval))
            with pytest.raises(InvariantViolation):
                specials.hyp2f0_identity_check(n, Q(-3, 2))
        with monkeypatch.context() as m:
            m.setattr(specials, "partial_sum_pos", shifted(partial_sum_pos))
            with pytest.raises(InvariantViolation):
                specials.hyp2f0_special(n + 2, -1)
            specials.hyp2f0_special(n + 2, 1)
        with monkeypatch.context() as m:
            m.setattr(specials, "derangement_eq2", shifted(specials.derangement_eq2))
            with pytest.raises(InvariantViolation):
                specials.hyp2f0_special(n + 1, 1)
            specials.hyp2f0_special(n + 1, -1)


def test_hyp2f0_answers_with_the_split_block_broken(monkeypatch):
    # hyp2f0 is the route hyp2f0_identity_check holds against dpoly_eval,
    # so it runs its own loop and never exact's split block.
    def broken(*args):
        raise AssertionError("the route called exact._block")

    want = {n: dpoly_eval(n, Q(-3, 2)) for n in (7, 10**4)}
    monkeypatch.setattr(exact, "_block", broken)
    with pytest.raises(AssertionError, match="exact._block"):
        dpoly_eval(7, Q(-3, 2))
    for n, value in want.items():
        assert Q(-3, 2) ** n * specials.hyp2f0(n, Q(2, 3)) == value
    assert specials.hyp2f0(37, Q(-7, 3)) == _hyp2f0_fraction(37, Q(-7, 3))


def test_hyp2f0_identity_rejects_zero():
    with pytest.raises(DomainError):
        specials.hyp2f0_identity_check(3, Q(0))


def test_hyp2f0_special_values():
    # At x = -1 the series telescopes to floor(e n!); at x = 1 it
    # alternates to floor((n!+1)/e) in sign.
    for n in range(1, 101):
        specials.hyp2f0_special(n, -1)
        specials.hyp2f0_special(n, 1)
    assert specials.hyp2f0(4, Q(-1)) == partial_sum_pos(4)
    assert specials.hyp2f0(3, Q(1)) == -derangements(3)


def test_hyp2f0_special_domain():
    with pytest.raises(DomainError):
        specials.hyp2f0_special(0, 1)
    with pytest.raises(DomainError):
        specials.hyp2f0_special(3, 2)


# --- exponential enclosure ----------------------------------------------


def test_exp_enclosure_anchors():
    e50 = Q("2.71828182845904523536028747135266249775724709369995")
    iv = specials.exp_enclosure(Q(1), 120)
    assert iv.contains(e50)
    assert iv.width <= Q(1, 2**120)

    iv0 = specials.exp_enclosure(Q(0), 10)
    assert iv0.lo == iv0.hi == 1


def test_exp_enclosure_negative():
    # exp(-2) = 0.13533528323661269..., bracketed by 16-digit rails on
    # both sides (the enclosure itself is far tighter).
    iv = specials.exp_enclosure(Q(-2), 80)
    assert Q("0.1353352832366126") < iv.lo
    assert iv.hi < Q("0.1353352832366127")
    assert iv.width <= Q(1, 2**80)


def test_exp_enclosure_multiplicative():
    # exp(a) * exp(-a) must bracket 1.
    for a in (Q(1, 2), Q(3, 2), Q(3)):
        prod = specials.exp_enclosure(a, 90) * specials.exp_enclosure(-a, 90)
        assert prod.contains(1)


def test_exp_enclosure_monotone_grid():
    vals = [specials.exp_enclosure(Q(k, 4), 60) for k in range(-8, 9)]
    for lo_iv, hi_iv in zip(vals, vals[1:]):
        assert lo_iv.hi < hi_iv.hi and lo_iv.lo < hi_iv.lo


# --- fixed-point kernels against the former Fraction routes ---------------


def _exp_taylor_reference(x, bits):
    """The former exp_enclosure: the Taylor sum of e^x in exact Fractions
    with no argument reduction, width <= 2^-bits, times 3^-(floor(-x)+1)
    for x < 0."""
    if x == 0:
        return IntervalReal.point(1)
    ax = abs(x)
    scale = Q(1) if x > 0 else Q(1, 3 ** (-int(x) + 1))
    target = scale / (1 << bits)
    k = 1
    while k + 2 <= ax:
        k += 1
    while True:
        rem = ax ** (k + 1) / (factorial(k + 1) * (1 - ax / (k + 2)))
        if rem <= target:
            break
        k += 1
    s = sum(x**j / factorial(j) for j in range(k + 1))
    if x > 0:
        return IntervalReal(s, s + rem)
    return IntervalReal(s - rem, s + rem)


def _series_reference(n, x, bits):
    """The former hyp1f1 series in exact Fractions, width <= 2^-bits."""
    target = Q(1, 1 << (bits + 1))
    term = Q(1)
    acc = Q(1)
    k = 0
    while True:
        term *= -x * (n + 1 + k) / ((n + 2 + k) * (k + 1))
        k += 1
        acc += term
        if 2 * abs(x) <= k + 1:
            bound = 2 * abs(term) * abs(x) * (n + 2 + k) / ((n + 3 + k) * (k + 1))
            if bound <= target:
                break
    return IntervalReal(acc - bound, acc + bound)


def _is_dyadic(x: Fraction) -> bool:
    d = x.denominator
    return d & (d - 1) == 0


@settings(max_examples=60, deadline=None)
@given(
    st.fractions(min_value=-80, max_value=80, max_denominator=10**6),
    st.integers(min_value=1, max_value=300),
)
@example(Q(80), 64)
@example(Q(-80), 64)
@example(Q(-1, 3), 1)
@example(Q(1, 10**6), 300)
@example(Q(159, 2), 300)
# No reduction and exact Taylor terms: only the tail bound lifts the
# upper endpoint above e^x.
@example(Q(1, 512), 10)
def test_exp_enclosure_encloses_the_fraction_taylor_sum(x, bits):
    iv = specials.exp_enclosure(x, bits)
    assert iv.encloses(_exp_taylor_reference(x, bits + 200))
    limit = Q(1, 1 << bits) if x >= 0 else Q(1, 3 ** (floor(-x) + 1) << bits)
    assert iv.width <= limit
    assert _is_dyadic(iv.lo) and _is_dyadic(iv.hi)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=1 << 40),
    st.integers(min_value=0, max_value=1 << 20),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=6),
)
def test_square_out_rounds_outward(lo, spread, w, s):
    hi = lo + spread
    got_lo, got_hi = specials._square_out(lo, hi, w, s)
    assert Q(got_lo, 1 << w) <= Q(lo, 1 << w) ** (2**s)
    assert Q(hi, 1 << w) ** (2**s) <= Q(got_hi, 1 << w)


def _series_1f1(n, x, bits):
    """The 1F1 series of `hyp1f1` as an interval of width <= 2^-bits."""
    lo, hi, w = specials._series_ints(n, x.numerator, x.denominator, bits)
    return IntervalReal(Q(lo, 1 << w), Q(hi, 1 << w))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=20),
    st.fractions(min_value=-40, max_value=40, max_denominator=10**6).filter(bool),
    st.integers(min_value=1, max_value=300),
)
@example(0, Q(40), 1)
@example(20, Q(-40), 300)
@example(5, Q(1, 10**6), 40)
def test_series_1f1_encloses_the_fraction_series(n, x, bits):
    iv = _series_1f1(n, x, bits)
    assert iv.encloses(_series_reference(n, x, bits + 200))
    assert iv.width <= Q(1, 1 << bits)
    assert _is_dyadic(iv.lo) and _is_dyadic(iv.hi)


def test_series_1f1_doubles_a_short_guard(monkeypatch):
    # Without the magnitude bits the first guard cannot absorb the
    # rounding of terms near e^40, so the width misses and the sum reruns.
    widths = []
    check_cap = specials._check_cap
    monkeypatch.setattr(specials, "_LOG2_E_UP", Q(0))
    monkeypatch.setattr(
        specials, "_check_cap", lambda w, *what: widths.append(w) or check_cap(w, *what)
    )
    iv = _series_1f1(3, Q(40), 60)
    assert len(widths) > 1
    assert iv.width <= Q(1, 1 << 60)
    assert iv.encloses(_series_reference(3, Q(40), 260))


# sha256 of the _series_1f1 endpoints below, as the series computed them
# before its stop test ran on integers
_SERIES_DIGEST = "f3ebdb546afd1bed57682d8b7ab067f77e0495d13452657e5c11382326ccc1ae"


def test_series_1f1_endpoints_match_the_pinned_digest():
    h = hashlib.sha256()
    for n in (0, 5, 19):
        for x in (Q(1, 2), Q(-1, 2), Q(50), Q(-50), Q(2597, 8), Q(-2597, 8)):
            for bits in (60, 96):
                iv = _series_1f1(n, x, bits)
                h.update(f"{n} {x} {bits} {iv.lo} {iv.hi}\n".encode())
    assert h.hexdigest() == _SERIES_DIGEST


_SPECIAL_MAGS = (
    Q(1, 2), Q(7, 8), Q(1), Q(3, 2), Q(2), Q(5), Q(10), Q(50), Q(563, 4), Q(2597, 8), Q(400)
)
_SPECIAL_XS = (
    Q(0), *_SPECIAL_MAGS, *(-m for m in _SPECIAL_MAGS), Q(1, 3), Q(-2, 7), Q(22, 7), Q(-355, 113)
)

# sha256 of the endpoints below over the special_fn ladder (n 0..25, |x|
# from 1/2 to 400 of both signs, 0 and a few p/q), recorded while the
# set-up, the closed-form check and the product still ran on Fractions
_LADDER_DIGESTS = {
    "exp_enclosure": "46ee0171818ecdc03a8084b1b873a097a7564e1efcbf1ae3e40b8d270305c6d4",
    "hyp1f1": "a669d8d9fe9efe8ce2bb895d54f2b38dd8b4481455762946853e8150152e711f",
    "inc_gamma_int": "be2b119febab5422e0543436eef591dedeb0cdaa2ac73b763cc16d49039ed968",
}


def test_special_fn_ladder_endpoints_match_the_pinned_digests():
    got = {}
    h = hashlib.sha256()
    for x in _SPECIAL_XS:
        for bits in (1, 60, 96):
            iv = specials.exp_enclosure(x, bits)
            h.update(f"{x} {bits} {iv.lo} {iv.hi}\n".encode())
    got["exp_enclosure"] = h.hexdigest()
    for name, fn in (
        ("hyp1f1", specials.hyp1f1),
        ("inc_gamma_int", lambda n, x, b: specials.inc_gamma_int(specials.GammaQuery(n, x, b))),
    ):
        h = hashlib.sha256()
        for n in range(26):
            for bits in (1, 96):
                for x in _SPECIAL_XS:
                    iv = fn(n, x, bits)
                    h.update(f"{n} {x} {bits} {iv.lo} {iv.hi}\n".encode())
        got[name] = h.hexdigest()
    assert got == _LADDER_DIGESTS


def _counting_fraction_ops(monkeypatch) -> dict:
    """Count every Fraction comparison and arithmetic operation from now on."""
    counts = {}

    def counting(name):
        method = getattr(Fraction, name)

        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return method(*args)

        return wrapper

    for name in (
        "__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__mul__", "__rmul__",
        "__add__", "__radd__", "__sub__", "__rsub__", "__truediv__", "__rtruediv__",
        "__neg__", "__abs__", "__pow__",
    ):
        monkeypatch.setattr(Fraction, name, counting(name))
    return counts


def test_series_1f1_makes_no_fraction_operation_per_term(monkeypatch):
    # The series stops on an integer test, so its Fraction work is the same
    # few operations at x = 1/2 (a handful of terms) as at x = -2597/8
    # (about 2,000 terms).
    counts = _counting_fraction_ops(monkeypatch)
    made = []
    for x in (Q(1, 2), Q(-2597, 8)):
        counts.clear()
        _series_1f1(5, x, 96)
        made.append(dict(counts))
    assert made[0] == made[1]
    assert sum(made[0].values()) < 10


@pytest.mark.parametrize("kind", ("hyp1f1", "inc_gamma_int"))
def test_specials_check_and_multiply_on_integers(kind, monkeypatch):
    # Set-up, the closed-form check and the product run on the integers
    # of x, D_n(x) and the exp step, whose branches differ in sign, so
    # both arguments make the same few Fraction operations: those of the
    # returned interval.
    counts = _counting_fraction_ops(monkeypatch)
    made = []
    for x in (Q(1, 2), Q(-2597, 8)):
        counts.clear()
        if kind == "hyp1f1":
            specials.hyp1f1(5, x, 96)
        else:
            specials.inc_gamma_int(specials.GammaQuery(5, x, 96))
        made.append(dict(counts))
    assert made[0] == made[1]
    assert sum(made[0].values()) <= 2


def _closed_form_check_reference(series_iv, n, x, d, exp_iv, shift):
    """The former hyp1f1 check: the closed form in Fraction interval
    arithmetic, moved by `shift`, against the series interval."""
    closed_iv = (factorial(n) - exp_iv * d) * (Q(n + 1) / x ** (n + 1)) + shift
    return series_iv.overlaps(closed_iv)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=-400, max_value=400).filter(bool),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=160),
    st.integers(min_value=1, max_value=260),
    st.integers(min_value=-192, max_value=192),
)
@example(5, 7, 8, 96, 100, 64)
@example(0, -2597, 8, 96, 100, -65)
@example(30, 563, 4, 1, 1, 0)
def test_the_integer_check_decides_as_the_fraction_intervals(n, p, q, bits, exp_bits, step):
    # hyp1f1's check with Gamma(n+1, x) from `_gamma_ints` at exp_bits: the
    # integers it hands `_meets`, and the exp step's interval behind them
    x = Q(p, q)
    exp_step, check = [], []
    exp_ints, gamma_ints, meets = specials._exp_ints, specials._gamma_ints, specials._meets
    with pytest.MonkeyPatch.context() as m:
        m.setattr(specials, "_exp_ints", lambda *a: exp_step.append(exp_ints(*a)) or exp_step[-1])
        m.setattr(
            specials, "_gamma_ints", lambda n, x, _, *what: gamma_ints(n, x, exp_bits, *what)
        )
        m.setattr(specials, "_meets", lambda *a: check.append(a) or meets(*a))
        series_iv = specials.hyp1f1(n, x, bits)
    ((e_lo, e_hi, k),) = exp_step
    ((s_lo, s_hi, s_den, c_lo, c_hi, c_den),) = check
    exp_iv = IntervalReal(Q(e_lo, 1 << k), Q(e_hi, 1 << k))
    d = dpoly_eval(n, x)
    # moved by more than both widths, the closed form leaves the series
    span = -(-(s_hi - s_lo) * c_den // s_den) + c_hi - c_lo + 1
    for units in (0, span + 1, -span - 1, span * step // 64):
        got = specials._meets(s_lo, s_hi, s_den, c_lo + units, c_hi + units, c_den)
        want = _closed_form_check_reference(series_iv, n, x, d, exp_iv, Q(units, c_den))
        assert got == want, units
        if units == 0 or abs(units) == span + 1:
            assert want == (units == 0)


# |D_25(x)| is about 2^-63 at this x, next to the real root of D_25
_NEAR_A_ROOT = Q(-78723050835458907544032200753971667812869, 10**40)


def test_hyp1f1_answers_where_the_closed_form_needs_no_bits():
    # With (n+1)/x^(n+1) about 2^-72 at the x above, precision_bits plus
    # its log2 is below zero, and at x = -1, D_1(x) = 0: the exp step still
    # gets at least 2 bits.
    assert abs(dpoly_eval(25, _NEAR_A_ROOT)) < Q(1, 1 << 60)
    assert dpoly_eval(1, Q(-1)) == 0
    for bits in (1, 8, 96):
        for n, x in ((25, _NEAR_A_ROOT), (1, Q(-1))):
            assert specials.hyp1f1(n, x, bits).width <= Q(1, 1 << bits)


def test_the_closed_form_is_at_most_2_to_the_minus_bits_plus_4_wide():
    widths = []
    meets = specials._meets
    with pytest.MonkeyPatch.context() as m:
        m.setattr(specials, "_meets", lambda *a: widths.append(Q(a[4] - a[3], a[5])) or meets(*a))
        for n in range(26):
            for bits in (1, 96):
                for x in _SPECIAL_XS:
                    widths.clear()
                    specials.hyp1f1(n, x, bits)
                    assert len(widths) == (x != 0)
                    assert all(w <= Q(1, 1 << (bits + 4)) for w in widths), (n, x, bits)


@pytest.mark.parametrize("x", (Q(1, 2), Q(7, 8), Q(-2597, 8)))
def test_hyp1f1_refuses_d_n_off_by_one_part_in_2_to_the_70(x, monkeypatch):
    # At large positive x the closed form barely depends on e^-x * D_n(x):
    # at x = 50 and 563/4 even a shift of 2^-40 goes unseen.
    monkeypatch.setattr(
        specials, "dpoly_eval", lambda n, z: dpoly_eval(n, z) * (1 + Q(1, 1 << 70))
    )
    for n in (0, 1, 5, 19, 25):
        with pytest.raises(InvariantViolation, match=re.escape(f"disagree at n={n}, x={x}: ")):
            specials.hyp1f1(n, x, 96)


def test_positive_arguments_are_refused_at_the_cap_before_d_n(monkeypatch):
    # D_n(x) >= n! for x > 0 bounds the exp step's bits from below, so
    # n = 10^5 is refused before the series and D_n(x) are evaluated.
    def refuse(*args):
        raise AssertionError("evaluated before the cap check")

    monkeypatch.setattr(specials, "dpoly_eval", refuse)
    monkeypatch.setattr(specials, "_series_ints", refuse)
    with pytest.raises(PrecisionCapError, match="precision cap"):
        specials.inc_gamma_int(specials.GammaQuery(100000, Q(1), 64))
    with pytest.raises(PrecisionCapError, match="precision cap"):
        specials.hyp1f1(100000, Q(1), 96)


_EARLY = {"hyp1f1": "hyp1f1 at ", "inc_gamma_int": "inc_gamma_int at "}


def _call(kind, n, x, bits):
    if kind == "hyp1f1":
        return specials.hyp1f1(n, x, bits)
    return specials.inc_gamma_int(specials.GammaQuery(n, x, bits))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(_EARLY)),
    st.integers(min_value=0, max_value=30),
    st.fractions(min_value=-64, max_value=64, max_denominator=64).filter(bool),
    st.integers(min_value=1, max_value=200),
)
@example("hyp1f1", 30, Q(1, 64), 1)
@example("inc_gamma_int", 0, Q(1, 2), 1)
def test_an_early_refusal_is_also_a_refusal_of_the_full_path(kind, n, x, bits):
    # Each check's bits, under the default cap; only a positive argument
    # has the early check.  It shares its message with the exp step's
    # check, which runs after D_n(x) is evaluated.
    asked, evaluated = [], []
    check_cap = specials._check_cap
    with pytest.MonkeyPatch.context() as m:
        m.delenv("ECOUNT_PRECISION_CAP", raising=False)
        m.setattr(
            specials,
            "_check_cap",
            lambda w, what, *args: asked.append((what, w, bool(evaluated)))
            or check_cap(w, what, *args),
        )
        m.setattr(specials, "dpoly_eval", lambda *a: evaluated.append(a) or dpoly_eval(*a))
        _call(kind, n, x, bits)
    early = [w for what, w, ran in asked if what.startswith(_EARLY[kind]) and not ran]
    later = [w for what, w, ran in asked if not what.startswith(_EARLY[kind]) or ran]
    assert len(early) == (x > 0)
    if not early:
        return

    # Under the largest cap that the early check refuses, it refuses
    # before D_n(x) is evaluated, and the full path would refuse too.
    def refuse(*args):
        raise AssertionError("dpoly_eval ran")

    cap = early[0] - 1
    with pytest.MonkeyPatch.context() as m:
        m.setenv("ECOUNT_PRECISION_CAP", str(cap))
        m.setattr(specials, "dpoly_eval", refuse)
        with pytest.raises(PrecisionCapError, match="^" + _EARLY[kind]):
            _call(kind, n, x, bits)
    assert max(later) > cap


def test_exp_and_series_stop_at_the_precision_cap(monkeypatch):
    # The working precision is known before any big work, so an argument
    # past the cap raises at once instead of running for hours.
    for x in (Q(10**6), Q(-(10**6))):
        with pytest.raises(PrecisionCapError):
            specials.exp_enclosure(x, 96)
        with pytest.raises(PrecisionCapError):
            specials.hyp1f1(2, x, 96)
    monkeypatch.setenv("ECOUNT_PRECISION_CAP", "64")
    with pytest.raises(PrecisionCapError):
        specials.exp_enclosure(Q(1), 80)
    with pytest.raises(PrecisionCapError):
        specials.inc_gamma_int(specials.GammaQuery(3, Q(1), 80))


def test_cap_refusals_name_the_public_call():
    # The exp step is shared, but each refusal names the call it serves,
    # with the argument as the caller passed it.
    with pytest.raises(PrecisionCapError) as exc:
        specials.inc_gamma_int(specials.GammaQuery(3, -(10**6), 96))
    assert str(exc.value) == (
        "inc_gamma_int at n=3, z=-1000000 needs 1442911 working bits,"
        " above the precision cap of 1048576"
    )
    with pytest.raises(PrecisionCapError) as exc:
        specials.exp_enclosure(Q(-(10**6)), 96)
    assert str(exc.value).startswith("exp_enclosure at x=-1000000 needs ")


@pytest.mark.parametrize("kind", sorted(_EARLY))
@pytest.mark.parametrize("n, x", [(5, Q(3, 7)), (3, Q(-40)), (12, Q(-7, 2)), (0, Q(50))])
def test_every_cap_refusal_starts_with_the_public_call(kind, n, x):
    # Under a cap one bit below what each check asks for, the call is
    # refused at or before that check, and the refusal names the call.
    asked = []
    check_cap = specials._check_cap
    with pytest.MonkeyPatch.context() as m:
        m.delenv("ECOUNT_PRECISION_CAP", raising=False)
        m.setattr(
            specials, "_check_cap", lambda w, *rest: asked.append(w) or check_cap(w, *rest)
        )
        _call(kind, n, x, 96)
    assert asked
    head = "hyp1f1" if kind == "hyp1f1" else f"inc_gamma_int at n={n}, z={x}"
    for w in asked:
        with pytest.MonkeyPatch.context() as m:
            m.setenv("ECOUNT_PRECISION_CAP", str(w - 1))
            with pytest.raises(PrecisionCapError) as exc:
                _call(kind, n, x, 96)
        assert str(exc.value).startswith(head), str(exc.value)


def test_calls_that_answer_name_nothing(monkeypatch):
    # A refusal's names are made only when it refuses: with every namer
    # made to fail, the quadrature, the integral check and both gamma
    # routes still answer.
    from ecount import certified, errors, oracles

    def no_name(x):
        raise AssertionError("a name was built on a call that answers")

    for module in (errors, certified, oracles, specials):
        monkeypatch.setattr(module, "_name", no_name)
    assert oracles.quad_gamma(3, 0, Q(1, 10**9)).value.contains(6)
    assert len(specials.integral_identities(3)) == 6
    assert specials.hyp1f1(5, Q(3, 7), 96).width <= Q(1, 1 << 96)
    assert specials.inc_gamma_int(specials.GammaQuery(5, Q(3, 7), 96)).width > 0


def test_exp_enclosure_stays_independent_of_the_other_exp_routes():
    # The quadrature cross-checks compare exp_enclosure with the certified
    # kernel's e and 1/e and with the oracle's e^x only if no code is shared.
    for name in ("eform_bounds", "enclose_e", "enclose_e_inv", "_exp_iv"):
        assert not hasattr(specials, name)


# --- incomplete gamma ---------------------------------------------------


def test_inc_gamma_at_zero_is_factorial():
    for n in (0, 1, 4, 7):
        iv = specials.inc_gamma_int(specials.GammaQuery(n, Q(0), 80))
        assert iv.contains(factorial(n))


def test_inc_gamma_matches_quadrature():
    from ecount.oracles import quad_gamma

    tol = Q(1, 10**9)
    for n in range(0, 16):
        for z in (Q(-2), Q(-1), Q(-1, 2), Q(1, 2), Q(1), Q(2)):
            closed = specials.inc_gamma_int(specials.GammaQuery(n, z, 80))
            quad = quad_gamma(n, z, tol)
            assert closed.overlaps(quad.value), (n, z)


def test_inc_gamma_positive():
    # The integrand is eventually positive; at n even it is nonnegative
    # everywhere, so the integral is positive for every start point.
    iv = specials.inc_gamma_int(specials.GammaQuery(2, Q(-3), 80))
    assert iv.lo > 0


# --- confluent 1F1 ------------------------------------------------------


def test_hyp1f1_anchor_values():
    # M(1, n+2, -x) with closed form (n+1)(n! - e^-x D_n(x)) / x^(n+1);
    # anchors are 16-digit truncations, compared through the midpoint.
    iv = specials.hyp1f1(1, Q(1), 40)
    assert abs(iv.midpoint - Q("0.5284822353142307")) < Q(1, 10**12)
    assert iv.width <= Q(1, 10**12)
    iv2 = specials.hyp1f1(0, Q(2), 40)
    assert abs(iv2.midpoint - Q("0.4323323583816936")) < Q(1, 10**12)


def test_hyp1f1_grid_widths():
    for n in range(0, 11):
        for x in (Q(1, 2), Q(1), Q(2)):
            iv = specials.hyp1f1(n, x, 40)
            assert iv.width <= Q(1, 10**12), (n, x)


def test_hyp1f1_at_zero():
    iv = specials.hyp1f1(5, Q(0), 40)
    assert iv.lo == iv.hi == 1


def test_hyp1f1_domain():
    with pytest.raises(DomainError):
        specials.hyp1f1(-1, Q(1), 40)


# --- the six integrals --------------------------------------------------


def test_integral_identities_run_clean():
    for n in range(1, 7):
        records = specials.integral_identities(n)
        assert [r.label for r in records] == [
            "-1..inf",
            "0..inf",
            "1..inf",
            "0..1",
            "-1..0",
            "-1..1",
        ]
        for r in records:
            assert r.enclosure.overlaps(
                _eform_box(r.closed_form)
            ), f"n={n} {r.label}"


def _eform_box(f: EForm):
    from ecount.certified import eform_eval

    return eform_eval(f, 128)


def test_integral_closed_forms_n2():
    # Frozen coefficient triples at n = 2.
    records = {r.label: r.closed_form.to_triple() for r in specials.integral_identities(2)}
    assert records["-1..inf"] == ("0", "1", "0")
    assert records["0..inf"] == ("2", "0", "0")
    assert records["1..inf"] == ("0", "0", "5")
    assert records["0..1"] == ("2", "0", "-5")
    assert records["-1..0"] == ("-2", "1", "0")
    assert records["-1..1"] == ("0", "1", "-5")


def test_integral_left_piece_parity():
    # Integral over [-1, 0] of t^n e^-t is negative exactly when n is
    # odd (the integrand is then negative on the interior).
    for n in range(1, 9):
        records = {r.label: r.closed_form for r in specials.integral_identities(n)}
        sign = eform_sign(records["-1..0"])
        assert sign == (-1 if n % 2 else 1), n


def test_integral_symmetric_form_n1_uses_derangement():
    # At n = 1 the symmetric integral equals -2/e.  The two-floor
    # difference floor(n!(e+1/e)) - floor(e n!) only collapses to the
    # derangement number from n = 2 on, so the n = 1 branch must take
    # the derangement value directly.
    records = {r.label: r.closed_form for r in specials.integral_identities(1)}
    assert records["-1..1"].to_triple() == ("0", "0", "-2")
    nf = factorial(1)
    two_floor = certified_floor(EForm(0, nf, nf)) - certified_floor(EForm(0, nf, 0))
    assert two_floor == 1
    assert derangements(1) == 0


def test_integral_domain():
    with pytest.raises(DomainError):
        specials.integral_identities(0)


@pytest.mark.parametrize("tol", (Q(1, 10**9), Q(1, 10**3)))
def test_integral_identities_share_one_quadrature_pass(tol):
    # The six enclosures are sums of one pass's dyadic panel enclosures.
    # "-1..inf" adds up the same panels and tail as quad_gamma from -1,
    # and sums of rationals are exact, so the two must be equal.
    from ecount.oracles import quad_gamma

    for n in range(1, 21):
        records = {r.label: r.enclosure for r in specials.integral_identities(n, tol)}
        assert records["-1..inf"] == quad_gamma(n, Q(-1), tol).value, n
        for label in ("-1..inf", "0..inf", "1..inf"):
            assert records[label].width <= tol, (n, label)
        for label in ("0..1", "-1..0", "-1..1"):
            assert records[label].width <= tol / 2, (n, label)


@pytest.mark.parametrize("n", (1, 5, 15))
def test_integral_identities_evaluate_each_panel_once(n, monkeypatch):
    from ecount import oracles

    tol = Q(1, 10**9)
    calls = 0
    panel = oracles._panel

    def counting_panel(*args):
        nonlocal calls
        calls += 1
        return panel(*args)

    expected = oracles.quad_gamma(n, Q(-1), tol).evaluations
    monkeypatch.setattr(oracles, "_panel", counting_panel)
    specials.integral_identities(n, tol)
    assert calls == expected


def test_integral_identities_keep_the_evaluation_budget(monkeypatch):
    from ecount import oracles

    monkeypatch.setattr(oracles, "_EVAL_BUDGET", 3)
    with pytest.raises(PrecisionCapError):
        specials.integral_identities(5)


def test_integral_check_needs_no_interval_evaluation(monkeypatch):
    # Containment is decided by the certified kernel's signs; eform_eval
    # only formats the message of a failed check.
    def refuse(*args):
        raise AssertionError("eform_eval called on a passing check")

    monkeypatch.setattr(specials, "eform_eval", refuse)
    for n in range(1, 9):
        assert len(specials.integral_identities(n)) == 6


@pytest.mark.parametrize("index, label", ((0, "-1..0"), (1, "0..1"), (2, "1..inf")))
def test_integral_check_names_a_shifted_piece(index, label, monkeypatch):
    # Piece `index` of the pass moves up by twice its width; the width of
    # the last piece, which runs to infinity, includes the tail bound.
    from ecount import oracles

    real = oracles._quad_pieces

    def shifted(n, cuts, tol, what, *args):
        pieces, tail, evals = real(n, cuts, tol, what, *args)
        piece = pieces[index]
        step = 2 * (piece.width + (tail if index == 2 else 0))
        pieces[index] = IntervalReal(piece.lo + step, piece.hi + step)
        return pieces, tail, evals

    monkeypatch.setattr(oracles, "_quad_pieces", shifted)
    for n in (1, 4, 11):
        with pytest.raises(InvariantViolation, match=re.escape(f"[{label}] at n={n}: ")):
            specials.integral_identities(n)


def test_integral_closed_forms_lie_in_their_enclosures():
    from ecount.certified import eform_eval

    for n in range(1, 21):
        for r in specials.integral_identities(n):
            assert r.enclosure.encloses(eform_eval(r.closed_form, 200)), (n, r.label)

"""Certified engine: enclosures of e and 1/e, interval arithmetic,
and the adaptive certified floor."""

import math
import os
import pickle
import random
import subprocess
import sys
import threading
from fractions import Fraction
from math import factorial, floor
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecount import certified, counts, exact
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
_SRC = str(Path(__file__).resolve().parents[1] / "src")

# First digits of e and 1/e, used as spot anchors only (the enclosures
# themselves are what the library trusts).
E_50 = Q("2.71828182845904523536028747135266249775724709369995")
E_INV_50 = Q("0.36787944117144232159552377016146086744581113103176")

# The empty cache of e and 1/e: the m = 1 brackets 2 <= e <= 3 and
# 0 <= 1/e <= 1 at P = 0, as (P, lo, hi, m, m!, remainder).
_SEED = {"e": (0, 2, 3, 1, 1, 0), "e_inv": (0, 0, 1, 1, 1, 0)}


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


def _ceil_log2_by_search(q: Fraction) -> int:
    """The least b with q <= 2^b, by the Fraction loop ceil_log2 once ran."""
    b = q.numerator.bit_length() - q.denominator.bit_length() - 1
    while q > Fraction(1 << max(b, 0), 1 << max(-b, 0)):
        b += 1
    return b


_wide = st.integers(min_value=1, max_value=1 << 4000)


@given(
    st.one_of(
        st.builds(Q, _wide, _wide),
        st.builds(lambda k: Q(2) ** k, st.integers(min_value=-3000, max_value=3000)),
        # just below and just above a power of two
        st.builds(
            lambda k, d: Q(2) ** k + d,
            st.integers(-64, 64),
            st.sampled_from([Q(-1, 1 << 80), Q(1, 1 << 80)]),
        ),
    )
)
@example(Q(1))
@example(Q(1 << 3000, 3))
@example(Q(1, 1 << 3000))
def test_ceil_log2_is_the_least_b_with_q_at_most_2_to_the_b(q):
    b = ceil_log2(q)
    assert b == _ceil_log2_by_search(q)
    two_b = Q(2) ** b
    assert q <= two_b and q > two_b / 2
    assert certified._ceil_log2(q.numerator, q.denominator) == b


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


# --- the bracket index and its independence from exact ------------------


def test_bracket_index_is_the_least_k_for_every_precision():
    # Brute least-k loops: the e bracket at k has width 1/(k!*k), the 1/e
    # bracket 1/(2k)!; each index is the least k reaching 2^-p.
    k_e = k_i = 1
    for p in range(0, 4097):
        while factorial(k_e) * k_e < 2**p:
            k_e += 1
        while factorial(2 * k_i) < 2**p:
            k_i += 1
        assert certified._k_for_e(p) == k_e, p
        assert certified._k_for_e_inv(p) == k_i, p


def test_brackets_are_binary_split_partial_sums():
    s = d = 1
    for k in range(1, 120):
        s, d = k * s + 1, k * d + (-1 if k % 2 else 1)
        assert certified._series(k, 1) == (s, factorial(k))
        assert certified._series(k, -1) == (d, factorial(k))


def test_brackets_read_nothing_from_exact(monkeypatch):
    # The certified route builds its own brackets: with every exact-route
    # function broken, the enclosures and the kernel give the same
    # answers, also when the kernel must rebuild its cached triples.
    f = EForm(Q(1, 3), 2, -5)
    g = EForm(0, factorial(400), factorial(400))
    precisions = (0, 1, 64, 1000, 5000)

    def answers():
        # from an empty cache each time: a finer cached entry gives other,
        # equally valid, bounds
        monkeypatch.setattr(certified, "_FIXED", dict(_SEED))
        return (
            [(enclose_e(p), enclose_e_inv(p), eform_bounds(f, p)) for p in precisions],
            certified_floor(g),
        )

    expected = answers()

    def broken(n):
        raise AssertionError("the certified brackets called the exact route")

    for name in ("partial_sum_pos", "derangements", "factorial"):
        original = getattr(exact, name)
        for module in (exact, certified):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, broken)
    assert answers() == expected


def test_certified_floor_grows_no_exact_table():
    code = (
        "import math\n"
        "from ecount import certified, exact\n"
        "certified.certified_floor(certified.EForm(0, math.factorial(4000), 0))\n"
        "certified.eform_sign(certified.EForm(-1, 0, math.factorial(4001)))\n"
        "print(len(exact._FACT), len(exact._PSUM), len(exact._DER))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1", "1"]


def test_enclosures_refuse_precision_above_the_cap_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("an enclosure above the cap started its bracket")

    monkeypatch.setenv("ECOUNT_PRECISION_CAP", "100")
    assert enclose_e(100).width <= Q(1, 2**100)
    assert enclose_e_inv(100).width <= Q(1, 2**100)
    monkeypatch.setattr(certified, "_k_for_e", no_work)
    monkeypatch.setattr(certified, "_k_for_e_inv", no_work)
    monkeypatch.setattr(certified, "_split", no_work)
    for call in (enclose_e, enclose_e_inv, lambda p: eform_eval(EForm(0, 1, 1), p)):
        with pytest.raises(PrecisionCapError, match="precision cap"):
            call(101)
    monkeypatch.delenv("ECOUNT_PRECISION_CAP")
    with pytest.raises(PrecisionCapError, match="precision cap"):
        enclose_e(DEFAULT_PRECISION_CAP + 1)
    with pytest.raises(DomainError):
        enclose_e_inv(-1)


# --- continued-fraction audit of the brackets ------------------------------

# The convergents h/k of a continued fraction bracket its value
# alternately, and consecutive ones differ by exactly 1/(k0*k1).  They
# share no code with factorial sums, so they audit both brackets
# independently of how the library builds them.


def _e_quotients():
    """Partial quotients of e = [2; 1, 2, 1, 1, 4, 1, 1, 6, ...]."""
    yield 2
    i = 1
    while True:
        yield 2 * (i + 1) // 3 if i % 3 == 2 else 1
        i += 1


def _e_inv_quotients():
    """Partial quotients of 1/e = [0; 2, 1, 2, 1, 1, 4, ...]."""
    yield 0
    yield from _e_quotients()


def _audit(quotients, p, lo, hi):
    """Prove lo <= x <= hi from the convergents of x, with lo and hi
    given as (numerator, denominator) pairs, denominators positive.

    Every consecutive pair brackets x.  From the first pair whose gap is
    below 2^-(p+2) on, none may lie wholly outside [lo, hi], and one must
    lie inside it, which proves x is there, before the gap falls below
    2^-(p + 16 + 4*bit_length(p)): that leaves room for x to sit as close
    to an endpoint as the tail of a bracket allows.
    """
    (lo_n, lo_d), (hi_n, hi_d) = lo, hi
    depth = p + 16 + 4 * p.bit_length()
    h0, k0, h1, k1 = 1, 0, next(quotients), 1
    for a in quotients:
        h0, k0, h1, k1 = h1, k1, a * h1 + h0, a * k1 + k0
        if k0.bit_length() + k1.bit_length() <= p + 2 or (k0 * k1) >> (p + 2) == 0:
            continue
        above = [h * lo_d >= lo_n * k for h, k in ((h0, k0), (h1, k1))]
        below = [h * hi_d <= hi_n * k for h, k in ((h0, k0), (h1, k1))]
        assert any(above) and any(below), f"x is outside the bracket at p={p}"
        if all(above) and all(below):
            return
        assert (k0 * k1) >> depth == 0, f"no convergent pair inside the bracket at p={p}"


@pytest.mark.parametrize("name", ["e", "e_inv"])
def test_brackets_contain_continued_fraction_convergents(monkeypatch, name):
    # A private cache, so the large precisions below do not stay behind.
    monkeypatch.setattr(certified, "_FIXED", dict(certified._FIXED))
    enclose, quotients = {
        "e": (enclose_e, _e_quotients),
        "e_inv": (enclose_e_inv, _e_inv_quotients),
    }[name]
    for p in [*range(0, 257), 1000, 4096, 1 << 15, 1 << 17]:
        iv = enclose(p)
        lo, hi = (iv.lo.numerator, iv.lo.denominator), (iv.hi.numerator, iv.hi.denominator)
        _audit(quotients(), p, lo, hi)
        f_lo, f_hi = certified._fixed(name, p)
        _audit(quotients(), p, (f_lo, 1 << p), (f_hi, 1 << p))


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


# --- the integer representation ------------------------------------------


def _triple(f: EForm) -> tuple[Fraction, Fraction, Fraction]:
    big_a, big_b, big_c, den = f._ints
    return Q(big_a, den), Q(big_b, den), Q(big_c, den)


def test_unreduced_and_reduced_forms_are_one_value():
    half = EForm(Q(1, 2), 2, 0)
    assert EForm(Q(2, 4), 2, 0) == half
    # Arithmetic keeps a common factor: (2 + 2e) / 2, (3 + 6e) / 3.
    unreduced = [
        EForm(Q(1, 2), 0, 0) + EForm(Q(1, 2), 1, 0),
        EForm(1, 2, 0).scale(Q(1, 3)).scale(3),
    ]
    assert [f._ints for f in unreduced] == [(2, 2, 0, 2), (3, 6, 0, 3)]
    assert unreduced == [EForm(1, 1, 0), EForm(1, 2, 0)]
    assert unreduced[1] != EForm(1, 2, 1)
    assert EForm(1, 2, 0) != (1, 2, 0)
    table = {half: "half", unreduced[0]: "one"}
    assert table[EForm(Q(2, 4), 2, 0)] == "half"
    assert table[EForm(1, 1, 0)] == "one"
    assert len({EForm(1, 2, 0), unreduced[1], EForm(Q(3, 3), Q(6, 3), 0)}) == 1
    assert certified_floor_info(unreduced[1]) == certified_floor_info(EForm(1, 2, 0))


def test_from_integers_keeps_the_given_denominator():
    f = EForm.from_integers(3, 6, -9, 9)
    assert f._ints == (3, 6, -9, 9)
    assert f == EForm(Q(1, 3), Q(2, 3), -1)
    assert (f.a, f.b, f.c) == (Q(1, 3), Q(2, 3), Q(-1))
    assert hash(f) == hash(EForm(Q(1, 3), Q(2, 3), -1))
    for den in (0, -3):
        with pytest.raises(DomainError):
            EForm.from_integers(1, 1, 0, den)


def test_eform_is_immutable():
    f = EForm(1, 2, 3)
    with pytest.raises(AttributeError):
        f.a = Q(5)
    with pytest.raises(AttributeError):
        f._ints = (0, 0, 0, 1)
    with pytest.raises(AttributeError):
        del f._ints
    assert f == EForm(1, 2, 3)


def test_coefficients_are_reduced_fractions_built_once():
    f = EForm(Q(1, 2), 0, 0) + EForm(Q(1, 6), Q(2, 3), -1) - EForm(0, 0, Q(5, 3))
    assert f._ints[3] == 6
    for coefficient in (f.a, f.b, f.c):
        assert type(coefficient) is Fraction
    assert (f.a, f.b, f.c) == (Q(2, 3), Q(2, 3), Q(-8, 3))
    assert f.a is f.a and f.c is f.c
    assert f.to_triple() == ("2/3", "2/3", "-8/3")
    assert repr(f) == "EForm(a=Fraction(2, 3), b=Fraction(2, 3), c=Fraction(-8, 3))"
    g = EForm(0, factorial(20), 0)
    assert type(g.b) is Fraction and g.b == factorial(20)
    # A form built from Fractions keeps them: they are in lowest terms.
    half = Q(1, 2)
    assert EForm(half, 3, 0).a is half


def test_eform_survives_pickle_and_copy():
    import copy
    import pickle

    f = EForm(Q(1, 2), 0, 0) + EForm(Q(1, 2), 1, Q(-7, 3))
    for g in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
        assert g == f and g._ints == f._ints


_COEFFICIENT = st.one_of(
    st.integers(min_value=-(10**40), max_value=10**40),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
)


def _over_least_common_denominator(a, b, c) -> tuple[int, int, int, int]:
    qs = [Q(x) for x in (a, b, c)]
    den = math.lcm(*(q.denominator for q in qs))
    return (*(q.numerator * (den // q.denominator) for q in qs), den)


@settings(max_examples=300, deadline=None)
@given(_COEFFICIENT, _COEFFICIENT, _COEFFICIENT)
@example(0, factorial(30), factorial(30))
@example(-(10**60), 0, 7)
@example(Q(1, 2), 3, 0)
@example(Q(3), Q(-4), 5)
def test_int_coefficients_build_the_form_fraction_coefficients_build(a, b, c):
    # Three ints take the integer branch of EForm(); the same values as
    # Fractions take the general one.  Both give the form over the least
    # common denominator, with the same coefficients, value and hash.
    f = EForm(a, b, c)
    general = EForm(Q(a), Q(b), Q(c))
    assert f._ints == general._ints == _over_least_common_denominator(a, b, c)
    assert (f.a, f.b, f.c) == (general.a, general.b, general.c) == (Q(a), Q(b), Q(c))
    assert all(type(x) is Fraction for x in (f.a, f.b, f.c, general.a, general.b, general.c))
    assert f == general and hash(f) == hash(general) == hash((Q(a), Q(b), Q(c)))
    assert f.to_triple() == general.to_triple() and repr(f) == repr(general)
    for g in (f, general):
        clone = pickle.loads(pickle.dumps(g))
        assert clone._ints == g._ints and clone == f and hash(clone) == hash(f)
    if f._ints[3] > 1:
        # Over a denominator D > 1, a Fraction coefficient is kept as given.
        for given_value, read in zip((a, b, c), (f.a, f.b, f.c)):
            if type(given_value) is Fraction:
                assert read is given_value


def test_integer_forms_are_floored_and_signed_without_a_fraction(monkeypatch):
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    n = 50
    nf, s = factorial(n), exact.partial_sum_pos(n)
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    results = [
        certified_floor(EForm(0, nf, 0)),
        certified_floor(EForm(0, nf, nf)),
        certified_floor(EForm.from_integers(1, 0, nf * n, n)),
        eform_sign(EForm(-s, nf, 0)),
        eform_sign(EForm(s + 1, -nf, 0)),
        eform_sign(EForm(0, nf, 0) - EForm.from_integers(1, nf, 0, 3)),
        eform_lt(EForm(-s, nf, 0), EForm.from_integers(1, 0, 0, n)),
    ]
    assert made == []
    monkeypatch.undo()
    assert results == [s, s + exact.derangements(n), exact.derangements(n), 1, 1, 1, True]


_SMALL = st.fractions(min_value=-50, max_value=50, max_denominator=60)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(_SMALL, _SMALL, _SMALL),
    st.tuples(_SMALL, _SMALL, _SMALL),
    _SMALL,
    st.sampled_from(["form", "rational", "int"]),
)
def test_arithmetic_matches_fraction_triples(x, y, q, kind):
    # The reference keeps each form as a triple of reduced Fractions.
    f = EForm(*x)
    other = {"form": EForm(*y), "rational": y[0], "int": int(y[0])}[kind]
    g = {"form": y, "rational": (y[0], 0, 0), "int": (int(y[0]), 0, 0)}[kind]
    plus = tuple(u + v for u, v in zip(x, g))
    minus = tuple(u - v for u, v in zip(x, g))
    cases = [
        (f + other, plus),
        (other + f, plus),
        (f - other, minus),
        (other - f, tuple(-v for v in minus)),
        (-f, tuple(-u for u in x)),
        (f.scale(q), tuple(u * q for u in x)),
        ((f - other).scale(q) + f, tuple((u - v) * q + u for u, v in zip(x, g))),
    ]
    for got, want in cases:
        assert got._ints[3] > 0
        assert _triple(got) == want
        assert (got.a, got.b, got.c) == want
        assert got == EForm(*want) and hash(got) == hash(EForm(*want))
        assert got.to_triple() == tuple(str(Q(v)) for v in want)
        assert got.is_rational == (want[1] == want[2] == 0)


def test_sum_takes_one_gcd_of_the_denominators(monkeypatch):
    calls = []
    real_gcd = certified.math.gcd

    def counting_gcd(*args):
        calls.append(args)
        return real_gcd(*args)

    f, g, h = EForm(Q(1, 6), 1, 0), EForm(Q(1, 10), 0, Q(3, 4)), EForm(Q(5, 6), 7, 0)
    monkeypatch.setattr(certified.math, "gcd", counting_gcd)
    same = f + h
    assert calls == []
    assert same._ints == (6, 48, 0, 6)
    total = f - g
    assert calls == [(6, 20)]
    assert total._ints == (4, 60, -45, 60)


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
    """The refinement loop over exact eform_eval intervals: p starts 64
    guard bits above the coefficient scale and grows by 64, 128, 256, ...
    bits until decide(iv) answers; returns (answer, deciding p)."""
    p = max(8, 64 + int(abs(f.a) + 3 * abs(f.b) + abs(f.c)).bit_length())
    step = 64
    while True:
        answer = decide(eform_eval(f, p))
        if answer is not None:
            return answer, p
        p += step
        step *= 2


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
# These need a second step: thm7's form at n = 100, m = 6 and a chain
# link at n = 300; thm7's form at n = 76, m = 10 needs a third.
@example(counts.bound_N(100, 6) + EForm(0, 0, factorial(100)))
@example(EForm.from_rational(counts.bound_M(300, 10)) - frac_e_nfact(300))
@example(counts.bound_N(76, 10) + EForm(0, 0, factorial(76)))
def test_kernel_decisions_match_eform_eval_loop(f):
    info = certified_floor_info(f)
    sign = eform_sign(f)
    if f.is_rational:
        assert info == CertifiedFloor(floor(f.a), 0)
        assert sign == (f.a > 0) - (f.a < 0)
        return
    assert (info.value, info.precision_bits) == _reference(f, _reference_floor)
    assert sign == _reference(f, _reference_sign)[0]


def _separate_bounds(f: EForm, p: int) -> tuple[int, int]:
    """The kernel's bounds at p from scratch: one full product per
    nonzero coefficient, with the cached endpoint that makes it a lower
    bound, and one outward division by D."""
    big_a, big_b, big_c, den = f._ints
    lo, spread = big_a << p, 0
    for num, name in ((big_b, "e"), (big_c, "e_inv")):
        if num:
            x_lo, x_hi = certified._fixed(name, p)
            lo += num * (x_lo if num > 0 else x_hi)
            spread += abs(num) * (x_hi - x_lo)
    q, r = divmod(lo, den)
    return q, q - (-(r + spread) // den)


# Forms with B = C, B = -C (both signs), B = 0, C = 0 and D > 1, and the
# multi-step forms of test_kernel_decisions_match_eform_eval_loop.
_STEP_FORMS = [
    EForm(0, factorial(300), factorial(300)),
    EForm(Q(-5, 3), -factorial(250), -factorial(250)),
    EForm(Q(1, 3), factorial(200), -factorial(200)),
    EForm(7, -factorial(180), factorial(180)),
    EForm(Q(-7, 5), 0, factorial(150)),
    EForm(Q(2, 9), -factorial(120), 0),
    EForm(Q(1, 7), Q(factorial(90), 11), Q(-factorial(80), 13)),
    EForm(Q(1, 3), Q(-1, 10**30), Q(1, 10**31)),
    counts.bound_N(100, 6) + EForm(0, 0, factorial(100)),
    counts.bound_N(76, 10) + EForm(0, 0, factorial(76)),
    EForm.from_rational(counts.bound_M(300, 10)) - frac_e_nfact(300),
]


@pytest.mark.parametrize("grow_between", [False, True])
@pytest.mark.parametrize("f", _STEP_FORMS)
def test_refine_extends_each_step_to_the_bounds_at_its_precision(monkeypatch, f, grow_between):
    # A decide that says no four times: every step, extended from the one
    # before, gives the bounds eform_bounds gives at its precision, and
    # those are the bounds of one full product per coefficient.  With
    # grow_between, the cache of e and 1/e is grown between the first two
    # steps to a finer bracket than the second step needs, so that step
    # extends endpoints cut from another bracket.
    monkeypatch.setattr(certified, "_FIXED", dict(_SEED))
    seen = []

    def decide(lo, hi, bits):
        assert (lo, hi) == eform_bounds(f, bits) == _separate_bounds(f, bits)
        seen.append(bits)
        if grow_between and len(seen) == 1:
            for name in ("e", "e_inv"):
                certified._fixed(name, bits + 5000)
        return "yes" if len(seen) == 5 else None

    answer, p = certified._refine(f, None, decide, "test")
    assert answer == "yes"
    assert [b - a for a, b in zip(seen, seen[1:])] == [64, 128, 256, 512]
    assert seen[-1] - p == certified._guard_bits(f)
    if grow_between:
        assert min(t[0] for t in certified._FIXED.values()) == seen[0] + 5000


class _Recording(int):
    """An integer coefficient that records the bit width of each number
    it is multiplied by."""

    widths: list[int] = []

    def __mul__(self, other):
        _Recording.widths.append(abs(other).bit_length())
        return int(self) * other


def test_a_retry_multiplies_the_coefficients_only_by_short_corrections():
    # Only the first step multiplies B and C by endpoints as wide as p;
    # every retry multiplies them by corrections about d bits wide, d the
    # 64, 128, 256, 512 bits it adds, and still gives the fresh bounds.
    big_b, big_c = _Recording(factorial(300)), _Recording(-factorial(290))
    f = EForm.from_integers(1, big_b, big_c, 7)
    steps = []

    def decide(lo, hi, bits):
        steps.append(list(_Recording.widths))
        assert (lo, hi) == _separate_bounds(f, bits)
        _Recording.widths.clear()
        return "yes" if len(steps) == 5 else None

    _Recording.widths.clear()
    certified._refine(f, None, decide, "test")
    first, retries = steps[0], steps[1:]
    assert len(first) == 2 and min(first) > 2000
    assert [len(w) for w in retries] == [2, 2, 2, 2]
    for w, d in zip(retries, (64, 128, 256, 512)):
        assert max(w) <= d + 3


def test_interleaved_forms_each_get_their_own_bounds():
    # The kernel extends only the last call's products, and only for the
    # same form at a p no smaller than before: any other call starts
    # afresh, so interleaved and descending calls give the fresh bounds.
    forms = [_STEP_FORMS[0], _STEP_FORMS[2], _STEP_FORMS[0], _STEP_FORMS[6]]
    for p in (2200, 2300, 2264, 2264, 2100, 2600):
        for f in forms:
            assert eform_bounds(f, p) == _separate_bounds(f, p)
            assert eform_bounds(f, p + 70) == _separate_bounds(f, p + 70)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["e", "e_inv"]),
    st.lists(st.integers(min_value=1, max_value=700), min_size=1, max_size=6),
)
def test_grown_entries_equal_fresh_builds(name, steps):
    # Each entry extended from the one before it, term by term, equals
    # the entry grown from the seed at its precision in one step, bracket
    # and all, and the bracket is the one _series builds from scratch.
    entry = certified._grow(name, _SEED[name], steps[0])
    bits = steps[0]
    for step in steps[1:]:
        bits += step
        entry = certified._grow(name, entry, bits)
        assert entry == certified._grow(name, _SEED[name], bits)
    big_p, lo, hi, m, f, r = entry
    s, m_factorial = certified._series(m, 1 if name == "e" else -1)
    assert f == m_factorial and (s << big_p) == lo * f + r and 0 <= r < f and hi == lo + 2


def test_a_fresh_cache_holds_the_seed_brackets():
    # A new process starts from the m = 1 brackets, each in the one entry
    # shape _grow extends; at p = 0 they read 2 <= e <= 3, 0 <= 1/e <= 1.
    code = (
        "from ecount import certified as c\n"
        "print(sorted(c._FIXED.items()), c._fixed('e', 0), c._fixed('e_inv', 0))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"{sorted(_SEED.items())} (2, 3) (0, 1)"
    for name, x in (("e", 1), ("e_inv", -1)):
        big_p, lo, hi, m, f, r = _SEED[name]
        assert certified._series(m, x) == (lo, f) and r == 0


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

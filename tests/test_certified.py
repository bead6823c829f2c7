"""Certified engine: enclosures of e and 1/e, interval arithmetic,
and the adaptive certified floor."""

import hashlib
import math
import os
import pickle
import random
import subprocess
import sys
import threading
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal, localcontext
from fractions import Fraction
from math import factorial, floor
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecount import certified, counts, exact, specials
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

# The empty cache of e and 1/e: the m = 1 brackets, lower endpoints 2
# and 0 at P = 0, as (P, lo, m, m!, remainder) with lo <= x < lo + 2.
_SEED = {"e": (0, 2, 1, 1, 0), "e_inv": (0, 0, 1, 1, 0)}


def _partial_sum(k: int, x: int) -> tuple[int, int]:
    """(sum_{i=0}^k x^i * k!/i!, k!) by the recurrence s_j = j*s_(j-1) + x^j:
    S_k for x = 1, D_k for x = -1, with no code of certified's."""
    s = f = 1
    for j in range(1, k + 1):
        s, f = j * s + x**j, j * f
    return s, f


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
    # bracket at odd k = 2j - 1 width 1/(2j)!; each index is the least k
    # reaching 2^-p, from each start the enclosures and the kernel use,
    # with the split of the terms after the start and k! alongside.
    k_e = j_i = 1
    for p in range(0, 5001):
        while factorial(k_e) * k_e < 2**p:
            k_e += 1
        while factorial(2 * j_i) < 2**p:
            j_i += 1
        for x, m, k in ((1, 0, k_e), (1, 1, k_e), (-1, 1, 2 * j_i - 1)):
            want = (k, *certified._split(m, k, x), factorial(k))
            assert certified._bracket(x, m, 1, p) == want, (p, x, m)
    # Near the default cap, the index reaches 2^-p and the one below does not.
    for p in (DEFAULT_PRECISION_CAP - 1, DEFAULT_PRECISION_CAP, DEFAULT_PRECISION_CAP + 129):
        k, _, _, f = certified._bracket(1, 0, 1, p)
        assert f == factorial(k) and factorial(k - 1) * (k - 1) < 1 << p <= f * k, p
        k, _, _, f = certified._bracket(-1, 1, 1, p)
        assert f == factorial(k) and factorial(k - 1) < 1 << p <= f * (k + 1), p


def _least_entry(name: str, bits: int) -> tuple:
    """The cache entry of e or 1/e at bits built from scratch: the least
    bracket index m by whole factorials (m!*m >= 2^bits for e, m = 2k - 1
    with (2k)! >= 2^bits for 1/e), and lo, r from its bracket s/m!."""
    if name == "e":
        m = 1
        while factorial(m) * m < 1 << bits:
            m += 1
    else:
        m = 1
        while factorial(m + 1) < 1 << bits:
            m += 2
    s, f = _partial_sum(m, 1 if name == "e" else -1)
    lo, r = divmod(s << bits, f)
    return bits, lo, m, f, r


@pytest.mark.parametrize("name", ["e", "e_inv"])
def test_grown_entries_are_the_least_brackets_and_take_no_factorial(name, monkeypatch):
    # _grow finds its index from the m'! it builds by the split, with no
    # factorial of its own, also when the log-gamma estimate is off by
    # several terms either way: every entry, grown from the seed or from
    # the entry before, is the one built from the least bracket.
    def no_factorial(k):
        raise AssertionError("_grow took a factorial")

    estimate = certified._estimate
    sweep = [*range(1, 400), 1000, 1001, 4096, 9000, 20000]
    expected = {bits: _least_entry(name, bits) for bits in sweep}
    monkeypatch.setattr(math, "factorial", no_factorial)
    for off in (0, -3, -1, 1, 4):
        monkeypatch.setattr(
            certified, "_estimate", lambda p, ln_size: max(1, estimate(p, ln_size) + off)
        )
        entry = _SEED[name]
        for bits in sweep:
            assert certified._grow(name, _SEED[name], bits) == expected[bits], (off, bits)
            entry = certified._grow(name, entry, bits)
            assert entry == expected[bits], (off, bits)


def test_brackets_are_binary_split_partial_sums():
    # The split gives S_k and D_k as the enclosures and the kernel read
    # it: from m = 0, S_k = k! + P; from the m = 1 seeds S_1 = 2 and
    # D_1 = 0, S_k = 2Q + P and D_k = -P.
    s = d = 1
    for k in range(1, 120):
        s, d = k * s + 1, k * d + (-1 if k % 2 else 1)
        assert _partial_sum(k, 1) == (s, factorial(k))
        assert _partial_sum(k, -1) == (d, factorial(k))
        p, q = certified._split(0, k, 1)
        assert (q + p, q) == (s, factorial(k))
        p, q = certified._split(1, k, 1)
        assert (2 * q + p, q) == (s, factorial(k))
        p, q = certified._split(1, k, -1)
        assert (-p, q) == (d, factorial(k))


def test_brackets_read_nothing_from_exact(monkeypatch):
    # The certified route builds its own brackets: with every exact-route
    # function broken, the enclosures and the kernel give the same
    # answers, also when the kernel must rebuild its cached triples.
    f = EForm(Q(1, 3), 2, -5)
    g = EForm(0, factorial(400), factorial(400))
    precisions = (0, 1, 64, 1000, 5000)

    def answers():
        # from an empty cache each time, so both runs build the brackets
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
        "for marks in (exact._FACT_MARKS, exact._PSUM_MARKS, exact._DER_MARKS):\n"
        "    print(sum(t is not None for t in marks))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1", "1"]


def test_a_cap_refusal_names_a_wide_form_by_its_bit_lengths(monkeypatch):
    # 10^5000 has more digits than str() of an int may have by default:
    # the refusal must not try to print it.
    monkeypatch.setenv("ECOUNT_PRECISION_CAP", "64")
    with pytest.raises(PrecisionCapError) as info:
        certified_floor(EForm(0, 10**5000, 0))
    message = str(info.value)
    assert len(message) < 500
    assert message == (
        "floor of a form with A, B, C, D of 0, 16610, 0, 1 bits"
        " undecided at precision cap 64 bits"
    )
    with pytest.raises(PrecisionCapError, match=r"^floor of \('0', '120', '0'\) undecided"):
        certified_floor(EForm(0, 120, 0))


def test_enclosures_refuse_precision_above_the_cap_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("an enclosure above the cap started its bracket")

    monkeypatch.setenv("ECOUNT_PRECISION_CAP", "100")
    assert enclose_e(100).width <= Q(1, 2**100)
    assert enclose_e_inv(100).width <= Q(1, 2**100)
    monkeypatch.setattr(certified, "_bracket", no_work)
    monkeypatch.setattr(certified, "_split", no_work)
    for call in (
        enclose_e,
        enclose_e_inv,
        lambda p: eform_eval(EForm(0, 1, 1), p),
        lambda p: eform_bounds(EForm(0, 1, 1), p),
    ):
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
        cut = certified._fixed(name, p)
        _audit(quotients(), p, (cut, 1 << p), (cut + 1, 1 << p))


def test_eform_eval_width_bound():
    f = EForm(Q(1, 7), 3, -2)
    for p in (16, 64, 256):
        iv = eform_eval(f, p)
        assert iv.width <= Q(5, 2**p)


def test_eform_eval_rational_is_point():
    iv = eform_eval(EForm(Q(22, 7), 0, 0), 64)
    assert iv.lo == iv.hi == Q(22, 7)


@pytest.mark.parametrize("f", (EForm(1, 0, 0), EForm(0, 1, 0), EForm(Q(1, 3), 0, -2)))
def test_eform_eval_refuses_negative_precision_for_every_form(f):
    # A rational form needs no enclosure, and once returned a point here.
    with pytest.raises(DomainError, match=r"^precision_bits must be >= 0 \(got -5\)$"):
        eform_eval(f, -5)


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
    monkeypatch.setenv("ECOUNT_PRECISION_CAP", "-5")
    with pytest.raises(DomainError, match=r"nonnegative integer bit count \(got '-5'\)"):
        certified_floor(EForm(0, 1, 0))
    monkeypatch.setenv("ECOUNT_PRECISION_CAP", "0")
    with pytest.raises(PrecisionCapError):
        certified_floor(EForm(0, 1, 0))
    monkeypatch.delenv("ECOUNT_PRECISION_CAP")
    assert certified_floor(EForm(0, 1, 0)) == 2
    assert DEFAULT_PRECISION_CAP == 1 << 20


def test_wide_bit_counts_and_cap_values_are_refused_in_one_short_line(monkeypatch):
    # A count of bits wider than 256 bits is written as the power of two
    # below it, its unit said once; an invalid cap value over 80
    # characters is named by its length.
    from ecount.oracles import quad_gamma

    with pytest.raises(PrecisionCapError) as cap:
        quad_gamma(3, 10**400, Q(1, 10**9))
    assert str(cap.value) == (
        "quad_gamma(n=3, z=a value of 1329 bits): tail cut-off needs at least 2^1334"
        " working bits, above the precision cap of 1048576"
    )
    monkeypatch.setenv("ECOUNT_PRECISION_CAP", "junk" * 1250)
    with pytest.raises(DomainError) as bad:
        certified_floor(EForm(0, 1, 0))
    assert str(bad.value).endswith("(got a string of 5000 characters)")
    # A 5,000-digit cap, read with Python's int digit limit lifted as the
    # CLI lifts it
    monkeypatch.setenv("ECOUNT_PRECISION_CAP", "1" * 5000)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        with pytest.raises(PrecisionCapError) as wide:
            quad_gamma(3, 10**5100, Q(1, 10**9))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert str(wide.value).endswith(
        "needs at least 2^16947 working bits, above the precision cap of at least 2^16606"
    )
    for exc in (cap.value, bad.value, wide.value):
        assert len(str(exc)) < 1000
    for exc in (cap.value, wide.value):
        assert str(exc).count("working bits") == 1 and "bits working" not in str(exc)


def test_the_cap_is_read_at_each_call_without_a_raising_lookup(monkeypatch):
    # With the variable unset, floors and signs read the cap without
    # os.environ's __getitem__, so no KeyError is raised and caught; a
    # value set, changed or removed through os.environ between two calls
    # still holds from the next call on, in certified and in specials.
    monkeypatch.delenv("ECOUNT_PRECISION_CAP", raising=False)
    getitem = os._Environ.__getitem__
    looked_up = []
    monkeypatch.setattr(
        os._Environ, "__getitem__", lambda env, key: looked_up.append(key) or getitem(env, key)
    )
    for n in range(1, 101):
        assert certified_floor(EForm(0, factorial(n), 0)) == exact.partial_sum_pos(n)
        assert eform_sign(EForm(-n, n % 3, 1)) == (1 if n % 3 * E_50 + E_INV_50 > n else -1)
    assert looked_up == []

    f = EForm(0, 1, 0)
    exp_one = specials.exp_enclosure(Q(1), 80)
    os.environ["ECOUNT_PRECISION_CAP"] = "4"
    with pytest.raises(PrecisionCapError):
        certified_floor(f)
    with pytest.raises(PrecisionCapError):
        specials.exp_enclosure(Q(1), 80)
    os.environ["ECOUNT_PRECISION_CAP"] = "junk"
    with pytest.raises(DomainError):
        certified_floor(f)
    with pytest.raises(DomainError):
        specials.exp_enclosure(Q(1), 80)
    os.environ["ECOUNT_PRECISION_CAP"] = "4096"
    assert certified_floor(f) == 2
    assert specials.exp_enclosure(Q(1), 80) == exp_one
    os.environ.pop("ECOUNT_PRECISION_CAP")
    assert certified_floor(f) == 2
    assert specials.exp_enclosure(Q(1), 80) == exp_one


def test_a_form_that_decides_below_the_cap_is_tried_at_the_cap(monkeypatch):
    # thm7's form at n = 10, m = 15 starts at 89 bits and decides from
    # 170 bits on.  Its schedule 89, 153, 281 steps over a cap of 250, so
    # the refinement tries once at exactly the cap before it refuses, and
    # reports the cap as the deciding precision.  Below 170 it is refused.
    f = counts.bound_N(10, 15) + EForm(0, 0, factorial(10))
    tried = []
    kernel = certified._bounds
    monkeypatch.setattr(certified, "_bounds", lambda *args: tried.append(args[1]) or kernel(*args))
    monkeypatch.setenv("ECOUNT_PRECISION_CAP", "250")
    assert counts.derangement_thm7(10, 15) == exact.derangements(10) == 1334961
    tried.clear()
    assert certified_floor_info(f) == CertifiedFloor(1334961, 250)
    assert tried == [89, 153, 250]
    monkeypatch.setenv("ECOUNT_PRECISION_CAP", "150")
    tried.clear()
    with pytest.raises(PrecisionCapError, match="undecided at precision cap 150 bits"):
        certified_floor(f)
    assert tried == [89, 150]
    # Under a cap the schedule reaches, nothing is clamped.
    monkeypatch.delenv("ECOUNT_PRECISION_CAP")
    tried.clear()
    assert certified_floor_info(f) == CertifiedFloor(1334961, 281)
    assert tried == [89, 153, 281]


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


def test_coefficients_are_reduced_fractions_made_when_read():
    f = EForm(Q(1, 2), 0, 0) + EForm(Q(1, 6), Q(2, 3), -1) - EForm(0, 0, Q(5, 3))
    assert f._ints[3] == 6
    for coefficient in (f.a, f.b, f.c):
        assert type(coefficient) is Fraction
    assert (f.a, f.b, f.c) == (Q(2, 3), Q(2, 3), Q(-8, 3))
    assert f.to_triple() == ("2/3", "2/3", "-8/3")
    assert repr(f) == "EForm(a=Fraction(2, 3), b=Fraction(2, 3), c=Fraction(-8, 3))"
    g = EForm(0, factorial(20), 0)
    assert type(g.b) is Fraction and g.b == factorial(20)
    # Reading them keeps nothing: the form still holds its integers, and
    # one built from Fractions holds them over their least common
    # denominator.
    assert f._ints == (4, 4, -16, 6)
    half = Q(1, 2)
    assert EForm(half, 3, 0).a == half
    assert EForm(half, 3, 0)._ints == (1, 6, 0, 2)


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
    # e and 1/e each enter with one ulp, plus one ulp of outward
    # rounding on each side.
    assert hi - lo < abs(f.b) + abs(f.c) + 2


@settings(max_examples=100, deadline=None)
@given(_EFORMS, st.integers(min_value=0, max_value=300), st.integers(min_value=1, max_value=300))
def test_eform_bounds_smaller_precision_after_larger(f, p, extra):
    fine_lo, fine_hi = eform_bounds(f, p + extra)
    lo, hi = eform_bounds(f, p)  # served by shifting the finer enclosures
    assert _scaled(lo, hi, p).overlaps(eform_eval(f, p))
    assert _scaled(lo, hi, p).overlaps(_scaled(fine_lo, fine_hi, p + extra))
    assert hi - lo < abs(f.b) + abs(f.c) + 2


# Integer forms of every shape the kernel takes apart: B only, C only,
# B = C, B = -C, and mixed signs, each with A zero or not and D one or not.
_WIDE = st.integers(min_value=-(1 << 400), max_value=1 << 400)
_NONZERO = _WIDE.filter(bool)


@st.composite
def _integer_forms(draw):
    big_b, big_c = draw(_NONZERO), draw(_NONZERO)
    shape = draw(st.sampled_from(("b", "c", "b=c", "b=-c", "mixed")))
    if shape == "b":
        big_c = 0
    elif shape == "c":
        big_b = 0
    elif shape == "b=c":
        big_c = big_b
    elif shape == "b=-c":
        big_c = -big_b
    big_a = draw(st.one_of(st.just(0), _WIDE))
    den = draw(st.one_of(st.just(1), st.integers(min_value=2, max_value=1 << 200)))
    return EForm.from_integers(big_a, big_b, big_c, den)


@settings(max_examples=300, deadline=None)
@given(
    _integer_forms(),
    st.integers(min_value=0, max_value=800),
    st.integers(min_value=2, max_value=1 << 70),
)
def test_kernel_shortcuts_give_the_bounds_of_the_general_path(f, p, k):
    # Multiplying A, B, C and D by k >= 2 leaves the value and so the
    # bounds as they were, so the bounds' one division by D must give the
    # same integers for every D; the one-coefficient and |B| = |C|
    # products must give those of one full product per coefficient.
    big_a, big_b, big_c, den = f._ints
    scaled = EForm.from_integers(k * big_a, k * big_b, k * big_c, k * den)
    assert eform_bounds(f, p) == eform_bounds(scaled, p) == _separate_bounds(f, p)
    assert certified_floor(f) == certified_floor_info(f).value == certified_floor(scaled)


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


def _digest_forms() -> list[EForm]:
    """A fixed list of forms: the six shapes of acceptance criterion 12
    over a grid of n and m, with seeded rational ones, then n! forms up
    to n = 4000, then the shapes again, now served from a finer cache."""

    def shapes():
        rng = random.Random(2029)
        forms = []
        for n in range(1, 61):
            sign = rng.choice((-1, 1))
            forms += [EForm(0, factorial(n), 0), EForm(rng.randint(-5, 5), 0, sign * factorial(n))]
        forms += [frac_e_nfact(n) for n in range(1, 101)]
        forms += [counts.bound_N(n, m) for n in range(2, 41) for m in range(1, 7)]
        for n in range(2, 31):
            nf = factorial(n)
            for m in range(1, 4):
                acc = sum(Q(n + 2 * i - 1, factorial(n + 2 * i)) for i in range(1, m + 1))
                k = n + 2 * m
                forms.append(EForm(nf * (acc - Q(exact.partial_sum_pos(k), factorial(k))), nf, nf))
        for _ in range(200):
            a = Q(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            forms.append(EForm(a, rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4)))
        return forms

    factorials = []
    for n in (100, 300, 1000, 2000, 3000, 4000):
        nf = factorial(n)
        factorials += [EForm(0, nf, 0), EForm(0, nf, nf), EForm(0, nf, -nf), EForm(1, 0, nf)]
        factorials.append(frac_e_nfact(n))
    return shapes() + factorials + shapes()


# sha256 of the floor, precision_bits, sign and eform_bounds at p = 200
# of each of _digest_forms, from an empty cache, as the kernel gives them
# since it reads e and 1/e as floor(x * 2^p).
_DECISIONS_SHA256 = "14130e611beeeb6070308881a9b6ba2830a8f343addf4039aa8b3ec6cbf2f370"
# sha256 of the floor, precision_bits and sign columns alone, recorded
# while the kernel still read e and 1/e as two cached endpoints: that
# change narrowed 70 of the bounds and moved no decision.
_DECISION_COLUMNS_SHA256 = "fa2add320207caf7d672c4435e8d6f76102d80b225b98621aee184fe6701dc6a"


def _decision_rows() -> list[tuple[int, ...]]:
    return [
        (*certified_floor_info(f), eform_sign(f), *eform_bounds(f, 200)) for f in _digest_forms()
    ]


def _digest(rows) -> str:
    text = "".join(",".join(f"{x:x}" for x in row) + ";" for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def test_decisions_keep_their_recorded_digest(monkeypatch):
    monkeypatch.setattr(certified, "_FIXED", dict(_SEED))
    rows = _decision_rows()
    assert len(rows) == 1512
    assert _digest(row[:3] for row in rows) == _DECISION_COLUMNS_SHA256
    assert _digest(rows) == _DECISIONS_SHA256


def _separate_bounds(f: EForm, p: int) -> tuple[int, int]:
    """The kernel's bounds at p from scratch: one full product per
    nonzero coefficient, with floor(x * 2^p) or one more, whichever makes
    it a lower bound, and one outward division by D."""
    big_a, big_b, big_c, den = f._ints
    lo = big_a << p
    for num, name in ((big_b, "e"), (big_c, "e_inv")):
        if num:
            lo += num * (certified._fixed(name, p) + (num < 0))
    q, r = divmod(lo, den)
    return q, q - (-(r + abs(big_b) + abs(big_c)) // den)


def _divided(lo: int, width: int, den: int) -> tuple[int, int]:
    """floor(lo / den) and ceil((lo + width) / den): the bounds the
    kernel's numerator and width give once divided."""
    return lo // den, -(-(lo + width) // den)


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
    # before, gives the numerator whose floor and ceiling divisions by D
    # are the bounds eform_bounds gives at its precision, and those are
    # the bounds of one full product per coefficient.  With
    # grow_between, the cache of e and 1/e is grown between the first two
    # steps to a finer bracket than the second step needs, so that step
    # extends endpoints cut from another bracket.
    monkeypatch.setattr(certified, "_FIXED", dict(_SEED))
    seen = []

    def decide(lo, width, den, bits):
        assert (width, den) == (abs(f._ints[1]) + abs(f._ints[2]), f._ints[3])
        assert _divided(lo, width, den) == eform_bounds(f, bits) == _separate_bounds(f, bits)
        seen.append(bits)
        if grow_between and len(seen) == 1:
            for name in ("e", "e_inv"):
                certified._fixed(name, bits + 5000)
        return "yes" if len(seen) == 5 else None

    answer, p = certified._refine(f, None, decide, "test")
    assert answer == "yes"
    assert [b - a for a, b in zip(seen, seen[1:])] == [64, 128, 256, 512]
    _, big_b, big_c, den = f._ints
    assert seen[-1] - p == max(0, 2 + den.bit_length() - (abs(big_b) + abs(big_c)).bit_length())
    if grow_between:
        grown = seen[0] + 5000 + 2 * certified._GUARD
        assert [entry[0] for entry in certified._FIXED.values()] == [grown, grown]


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

    def decide(lo, width, den, bits):
        steps.append(list(_Recording.widths))
        assert _divided(lo, width, den) == eform_bounds(f, bits) == _separate_bounds(f, bits)
        _Recording.widths.clear()
        return "yes" if len(steps) == 5 else None

    _Recording.widths.clear()
    certified._refine(f, None, decide, "test")
    first, retries = steps[0], steps[1:]
    assert len(first) == 2 and min(first) > 2000
    assert [len(w) for w in retries] == [2, 2, 2, 2]
    for w, d in zip(retries, (64, 128, 256, 512)):
        assert max(w) <= d + 3


def _floor_of_bounds(lo: int, hi: int, p: int) -> int | None:
    """The floor rule on divided bounds lo <= x * 2^p <= hi."""
    lo >>= p
    return lo if lo == hi >> p else None


def _sign_of_bounds(lo: int, hi: int, p: int) -> int | None:
    """The sign rule on divided bounds lo <= x * 2^p <= hi."""
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    return None


_BITS_4096 = 1 << 4096


@st.composite
def _numerators(draw):
    """(lo, width, den, p): lo of up to 4,096 bits, or lo a few bits from
    a multiple of den * 2^p, where the floor is decided or just is not."""
    den = draw(st.just(1) | st.integers(1, 1 << 70) | st.integers(1, 1 << 2000))
    width = draw(st.integers(0, 1 << 80) | st.integers(0, _BITS_4096))
    p = draw(st.integers(0, 2000))
    if draw(st.booleans()):
        lo = draw(st.integers(-_BITS_4096, _BITS_4096))
    else:
        lo = draw(st.integers(-(1 << 64), 1 << 64)) * (den << p) + draw(st.integers(-1000, 1000))
    return lo, width, den, p


@settings(max_examples=400, deadline=None)
@example((7, 0, 7, 0))  # lo == D: the least positive divided lo
@example((6, 0, 7, 0))
@example((-7, 0, 7, 0))  # lo + W + D - 1 == -1: the greatest negative hi
@example((-6, 0, 7, 0))
@example(((6 << 70) - 5, 2, 3, 70))  # ceil((lo + W) / D) one short of the next floor
@example(((6 << 70) - 5, 3, 3, 70))  # and on it
@example((-(1 << 4096), 1 << 4096, 1, 4096))
@given(_numerators())
def test_decisions_on_numerators_are_the_rules_on_divided_bounds(case):
    # The kernel's undivided numerator lo, with lo <= x * D * 2^p <=
    # lo + width, decides the floor and the sign exactly as the old rules
    # did on the divided bounds floor(lo / D) and ceil((lo + width) / D).
    lo, width, den, p = case
    lo_div, hi_div = _divided(lo, width, den)
    assert certified._decide_floor(lo, width, den, p) == _floor_of_bounds(lo_div, hi_div, p)
    assert certified._decide_sign(lo, width, den, p) == _sign_of_bounds(lo_div, hi_div, p)


@st.composite
def _unit_floor_cases(draw):
    """(lo, width, p): lo of either sign, anywhere or a few units from a
    multiple of 2^p, and width >= 1."""
    p = draw(st.integers(0, 300))
    if draw(st.booleans()):
        lo = draw(st.integers(-(1 << 700), 1 << 700))
    else:
        lo = (draw(st.integers(-(1 << 64), 1 << 64)) << p) + draw(st.integers(-1000, 1000))
    return lo, draw(st.integers(1, 1 << 8) | st.integers(1, 1 << 400)), p


@settings(max_examples=400, deadline=None)
@example(((5 << 40) - 3, 3, 40))  # lo + width just reaches the next multiple of 2^40
@example(((5 << 40) - 3, 2, 40))  # and stops one short
@example((-(5 << 40) - 1, 1, 40))  # the same from below zero
@example((-(5 << 40) - 1, 2, 40))
@example((-1, 1, 0))
@given(_unit_floor_cases())
def test_unit_denominator_floors_are_the_general_rule_at_d_1(case):
    # At D = 1 the floor is decided by shifts alone, with the answer of
    # the general rule (lo >> p) // d == ((lo + (w + d - 1)) >> p) // d.
    lo, width, p = case
    d = 1
    floor_lo = (lo >> p) // d
    expected = floor_lo if floor_lo == ((lo + (width + d - 1)) >> p) // d else None
    assert certified._decide_floor(lo, width, 1, p) == expected


def test_interleaved_forms_each_get_their_own_bounds():
    # Interleaved and descending calls on several forms each give the
    # fresh bounds.
    forms = [_STEP_FORMS[0], _STEP_FORMS[2], _STEP_FORMS[0], _STEP_FORMS[6]]
    for p in (2200, 2300, 2264, 2264, 2100, 2600):
        for f in forms:
            assert eform_bounds(f, p) == _separate_bounds(f, p)
            assert eform_bounds(f, p + 70) == _separate_bounds(f, p + 70)


@settings(max_examples=150, deadline=None)
@given(
    _EFORMS,
    _EFORMS,
    st.integers(min_value=0, max_value=2000),
    st.integers(min_value=0, max_value=2000),
    st.integers(min_value=0, max_value=2000),
)
@example(_STEP_FORMS[0], _STEP_FORMS[2], 2200, 2300, 2264)  # p2 >= p1
@example(_STEP_FORMS[6], _STEP_FORMS[0], 1500, 2100, 900)  # p2 < p1
def test_bounds_of_a_form_do_not_depend_on_what_was_refined_before(f, g, p1, q, p2):
    # f is bounded at p1, g at q, then f at p2, above or below p1: the
    # call at p2 gives what a fresh copy of f gives there.
    eform_bounds(f, p1)
    eform_bounds(g, q)
    fresh = pickle.loads(pickle.dumps(f))
    assert eform_bounds(f, p2) == eform_bounds(fresh, p2) == _separate_bounds(f, p2)


@pytest.mark.parametrize("f", _STEP_FORMS)
def test_floors_signs_and_bounds_leave_a_form_as_it_was_built(f):
    # A form holds its integers and nothing else; the refinement step
    # lives in the loop, so deciding on a form writes nothing to it.
    assert EForm.__slots__ == ("_ints",)
    before = pickle.dumps(f)
    certified_floor_info(f)
    eform_sign(f)
    eform_bounds(f, 300)
    assert pickle.dumps(f) == before


_THREAD_FORMS = [
    _STEP_FORMS[0],
    _STEP_FORMS[6],
    counts.bound_N(76, 10) + EForm(0, 0, factorial(76)),
    EForm.from_rational(counts.bound_M(300, 10)) - frac_e_nfact(300),
    EForm(-1, factorial(400), -factorial(400)),
    EForm(Q(1, 3), -7, Q(5, 2)),
]


def test_threads_refining_shared_forms_get_the_sequential_results():
    # Four threads floor and sign the same form objects, each in its own
    # order, with frequent switches, so that steps of different forms and
    # of one form from two threads interleave: each gets the results of
    # one thread refining fresh copies alone.
    def results(forms):
        return [(certified_floor_info(f), eform_sign(f)) for f in forms]

    expected = results([pickle.loads(pickle.dumps(f)) for f in _THREAD_FORMS])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            barrier = threading.Barrier(4)
            got = {}

            def work(k):
                order = _THREAD_FORMS[k:] + _THREAD_FORMS[:k]
                if k % 2:
                    order.reverse()
                barrier.wait()
                got[k] = dict(zip(map(id, order), results(order)))

            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            for k in range(4):
                assert [got[k][id(f)] for f in _THREAD_FORMS] == expected
    finally:
        sys.setswitchinterval(interval)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["e", "e_inv"]),
    st.lists(st.integers(min_value=1, max_value=700), min_size=1, max_size=6),
)
def test_grown_entries_equal_fresh_builds(name, steps):
    # Each entry extended from the one before it, term by term, equals
    # the entry grown from the seed at its precision in one step, bracket
    # and all, and the bracket is the partial sum built term by term.
    entry = certified._grow(name, _SEED[name], steps[0])
    bits = steps[0]
    for step in steps[1:]:
        bits += step
        entry = certified._grow(name, entry, bits)
        assert entry == certified._grow(name, _SEED[name], bits)
    big_p, lo, m, f, r = entry
    s, m_factorial = _partial_sum(m, 1 if name == "e" else -1)
    assert f == m_factorial and (s << big_p) == lo * f + r and 0 <= r < f


def test_a_fresh_cache_holds_the_seed_brackets():
    # A new process starts from the m = 1 brackets, each in the one entry
    # shape _grow extends; at p = 0 they read floor(e) = 2, floor(1/e) = 0.
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
    assert proc.stdout.strip() == f"{sorted(_SEED.items())} 2 0"
    for name, x in (("e", 1), ("e_inv", -1)):
        big_p, lo, m, f, r = _SEED[name]
        assert _partial_sum(m, x) == (lo, f) and r == 0


# --- floor(x * 2^p) against the decimal module --------------------------

# References for floor(x * 2^p) that share no code with certified: the
# standard library's decimal arithmetic (libmpdec), which works in base
# 10 at p * 0.302 + 40 digits.


def _floor_between(lo: Decimal, hi: Decimal, p: int) -> int:
    """floor(y * 2^p), the same for every y in [lo, hi]."""
    (n_lo, d_lo), (n_hi, d_hi) = lo.as_integer_ratio(), hi.as_integer_ratio()
    cut = (n_lo << p) // d_lo
    assert cut == (n_hi << p) // d_hi, f"the decimal bracket does not decide p={p}"
    return cut


def _exp_bracket(name: str, p: int) -> tuple[Decimal, Decimal]:
    """e or 1/e within one ulp either side of Decimal(+-1).exp(), which
    is correctly rounded whatever the context's rounding."""
    with localcontext() as ctx:
        ctx.prec = int(p * 0.302) + 40
        x = Decimal(1 if name == "e" else -1).exp()
        ulp = Decimal((0, (1,), x.as_tuple().exponent))
        return x - ulp, x + ulp


def _taylor_bracket(name: str, p: int) -> tuple[Decimal, Decimal]:
    """e or 1/e between decimal Taylor sums S_K of exp(+-1), the terms
    and sums rounded down for the lower bound and up for the upper one,
    widened by 1/K!, which bounds either tail.  Decimal's exp takes 2.4 s
    at 12,000 digits; these sums take 0.06 s."""
    digits = int(p * 0.302) + 40
    down, up = (Context(prec=digits, rounding=r) for r in (ROUND_FLOOR, ROUND_CEILING))
    ulp = Decimal((0, (1,), 1 - digits))
    bounds = []
    for ctx, opposite in ((down, up), (up, down)):
        # near and far: 1/k! rounded with the sum and against it
        total = near = far = Decimal(1)
        k = 0
        while far >= ulp:
            k += 1
            near, far = ctx.divide(near, k), opposite.divide(far, k)
            total = ctx.add(total, near) if name == "e" or k % 2 == 0 else ctx.subtract(total, far)
        tail = max(near, far)
        bounds.append(ctx.subtract(total, tail) if ctx is down else ctx.add(total, tail))
    return bounds[0], bounds[1]


@pytest.mark.parametrize("name", ["e", "e_inv"])
def test_fixed_is_the_floor_that_decimal_gives(monkeypatch, name):
    # floor(x * 2^p) for every p in 0..2000 from Decimal's exp, read from
    # a cache grown one request at a time and from one far above; and
    # near p = 40,000 from the decimal Taylor sums, which agree with exp
    # at p = 2000.
    monkeypatch.setattr(certified, "_FIXED", dict(_SEED))
    small = _exp_bracket(name, 2000)
    assert _floor_between(*_taylor_bracket(name, 2000), 2000) == _floor_between(*small, 2000)
    expected = [_floor_between(*small, p) for p in range(2001)]
    assert [certified._fixed(name, p) for p in range(2001)] == expected
    monkeypatch.setitem(certified._FIXED, name, certified._grow(name, _SEED[name], 50000))
    assert [certified._fixed(name, p) for p in range(2001)] == expected
    large = _taylor_bracket(name, 40100)
    monkeypatch.setitem(certified._FIXED, name, _SEED[name])
    for p in (39900, 39999, 40000, 40001, 40036, 40100):
        assert certified._fixed(name, p) == _floor_between(*large, p)


@pytest.mark.parametrize("name", ["e", "e_inv"])
def test_fixed_below_the_cached_precision_is_the_exact_shift(monkeypatch, name):
    # From entries at P = 600 and P = 5000, every p at least 64 bits below
    # P is read as the cached lower endpoint shifted right by P - p, with
    # the entry left as it was; a p closer to P grows the entry first.
    # Each is the floor that Decimal's exp gives.
    bracket = _exp_bracket(name, 5000)
    for bits, precisions in ((600, range(601)), (5000, [*range(0, 101), 4000, 4936, 4937, 5000])):
        entry = certified._grow(name, _SEED[name], bits)
        for p in precisions:
            monkeypatch.setitem(certified._FIXED, name, entry)
            cut = certified._fixed(name, p)
            assert cut == _floor_between(*bracket, p)
            if p <= bits - 64:
                assert cut == entry[1] >> (bits - p) and certified._FIXED[name] is entry
            else:
                assert certified._FIXED[name][0] == p + 2 * certified._GUARD


@pytest.mark.parametrize("name", ["e", "e_inv"])
@pytest.mark.parametrize("guard", [1, 2])
def test_fixed_reads_more_bits_when_those_below_the_cut_are_all_ones(monkeypatch, name, guard):
    # With a guard of one or two bits, the bits below the cut are all ones
    # for about half or a quarter of p: from an entry at exactly p + guard,
    # _fixed then doubles the guard and grows the entry to p + 4 * guard,
    # and only then, and still gives the floor.
    bracket = _exp_bracket(name, 400)
    grown = []
    grow = certified._grow
    monkeypatch.setattr(certified, "_GUARD", guard)
    monkeypatch.setattr(
        certified, "_grow", lambda *args: grown.append(args[2]) or grow(*args)
    )
    retried = 0
    for p in range(400):
        entry = grow(name, _SEED[name], p + guard)
        monkeypatch.setitem(certified._FIXED, name, entry)
        grown.clear()
        assert certified._fixed(name, p) == _floor_between(*bracket, p)
        ones = entry[1] & ((1 << guard) - 1) == (1 << guard) - 1
        assert grown[:1] == ([p + 4 * guard] if ones else [])
        retried += ones
    assert 400 >> (guard + 2) < retried < 400 >> (guard - 1)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=64, max_value=5000),
    st.integers(min_value=3, max_value=1 << 3000),
    st.integers(min_value=0, max_value=1 << 200),
)
def test_fixed_floors_any_cached_endpoint_below_its_precision(p, shift, top, low):
    # Any lower endpoint lo cached at P = p + shift >= p + 64, here one
    # with shift zero bits below top and low added into them: unless the
    # 64 bits below the cut are all ones, _fixed is the floor of every y
    # in [lo, lo + 2) at 2^-p, without growing the entry.
    lo = (top << shift) + low
    saved = certified._FIXED["e"]
    certified._FIXED["e"] = entry = (p + shift, lo, 1, 1, 0)
    try:
        if (lo >> (shift - 64)) & 0xFFFFFFFFFFFFFFFF != 0xFFFFFFFFFFFFFFFF:
            assert certified._fixed("e", p) == lo >> shift == (lo + 1) >> shift
            assert certified._FIXED["e"] is entry
    finally:
        certified._FIXED["e"] = saved


class _Reads(int):
    """A cached endpoint that records each arithmetic operation on it."""

    ops: list[str] = []


def _recorded(op: str):
    def method(self, *args):
        _Reads.ops.append(op)
        return getattr(int, op)(int(self), *args)

    return method


for _op in ("__neg__", "__invert__", "__abs__", "__rshift__", "__lshift__", "__and__",
            "__add__", "__sub__", "__mul__", "__floordiv__", "__divmod__"):
    setattr(_Reads, _op, _recorded(_op))


@pytest.mark.parametrize("name", ["e", "e_inv"])
def test_a_request_below_the_cache_negates_no_endpoint_wider_than_o_of_p(monkeypatch, name):
    # Far below the cached P = 40,000 a request touches the P-bit lower
    # endpoint once, by the one right shift that cuts p + 64 bits from
    # it, and negates nothing; every later step works on integers of
    # p + O(64) bits.
    big_p, lo = certified._grow(name, _SEED[name], 40000)[:2]
    entry = (big_p, _Reads(lo), 1, 1, 0)
    monkeypatch.setitem(certified._FIXED, name, entry)
    for p in (0, 100, 1000, 3000, 20000, 39900):
        _Reads.ops = []
        assert certified._fixed(name, p) == lo >> (big_p - p)
        assert _Reads.ops == ["__rshift__"], (p, _Reads.ops)
        assert certified._FIXED[name] is entry
    _Reads.ops = []
    assert certified_floor_info(EForm(0, factorial(30), factorial(30))).value == floor(
        Q(factorial(30)) * (E_50 + E_INV_50)
    )
    assert "__neg__" not in _Reads.ops


# --- bounds do not depend on the cache ------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    _EFORMS,
    st.integers(min_value=0, max_value=2000),
    st.lists(st.integers(min_value=-2000, max_value=3000), max_size=4),
)
@example(EForm(Q(1, 3), 2, -5), 200, [0, 64, 63, 65, 5000 - 200])
def test_eform_bounds_are_the_same_for_every_cache_state(f, p, moves):
    # From the seed, and from entries grown to p + each move (to exactly
    # p at 0, below p for a negative one, not at all for none), f gets the
    # same bounds at p.
    saved = dict(certified._FIXED)
    try:
        certified._FIXED.update(_SEED)
        expected = eform_bounds(f, p)
        for move in moves:
            bits = max(0, p + move)
            for name, seed in _SEED.items():
                certified._FIXED[name] = certified._grow(name, seed, bits) if bits else seed
            assert eform_bounds(f, p) == expected
    finally:
        certified._FIXED.update(saved)


def test_a_200000_bit_request_leaves_the_bounds_of_50_factorial_e_as_they_were(monkeypatch):
    monkeypatch.setattr(certified, "_FIXED", dict(_SEED))
    f = EForm(0, factorial(50), 0)
    before = eform_bounds(f, 300)
    certified._fixed("e", 200000)
    assert certified._FIXED["e"][0] >= 200000
    assert eform_bounds(f, 300) == before


@pytest.mark.parametrize("p", [0, 1, 64, 200, 1000])
def test_eform_bounds_width_over_the_digest_forms(monkeypatch, p):
    # (hi - lo) * 2^-p < (|b| + |c|) * 2^-p + 2^(1-p), also read from
    # entries grown to exactly p, which gave width 2 for e and 1/e before
    # they were read as floor(x * 2^p).
    exact_p = {name: certified._grow(name, _SEED[name], p) if p else _SEED[name] for name in _SEED}
    for f in _digest_forms():
        monkeypatch.setattr(certified, "_FIXED", dict(exact_p))
        lo, hi = eform_bounds(f, p)
        _, big_b, big_c, den = f._ints
        assert (hi - lo - 2) * den < abs(big_b) + abs(big_c)


def test_eform_bounds_of_e_and_e_inv_contain_finer_enclosures():
    # Outward rounding: the kernel's bounds contain the exact enclosures
    # 64 bits finer, read from the cache and, one bit above the cached
    # precision at a time, from an entry grown for them.
    top = max(entry[0] for entry in certified._FIXED.values())
    for p in [*range(0, 700, 7), *range(top + 1, top + 61)]:
        for f, enclose in ((EForm(0, 1, 0), enclose_e), (EForm(0, 0, 1), enclose_e_inv)):
            lo, hi = eform_bounds(f, p)
            assert _scaled(lo, hi, p).encloses(enclose(p + 64))


def test_eform_bounds_threads_grow_cache_to_the_largest_precision():
    # Threads ask for different precisions at once, more of them than
    # cores, with frequent switches: a lost update would leave a smaller
    # entry in the cache, or an answer from a too-coarse one.
    f = EForm(Q(1, 3), -7, Q(5, 2))
    rng = random.Random(2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            base = max(entry[0] for entry in certified._FIXED.values())
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
                assert hi - lo < abs(f.b) + abs(f.c) + 2
            # Grown for the largest precision asked for: far enough past it
            # for the read, and no further than one grow for it goes.
            top = max(precisions)
            for entry in certified._FIXED.values():
                assert top + certified._GUARD <= entry[0] <= top + 2 * certified._GUARD
    finally:
        sys.setswitchinterval(interval)

"""Integer-arithmetic layer: factorials, partial sums, derangements,
and the derangement polynomial."""

import hashlib
import math
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecount import certified, exact
from ecount.errors import DomainError, _name
from ecount.exact import (
    DerangementPoly,
    derangements,
    dpoly,
    dpoly_eval,
    factorial,
    partial_sum_pos,
)

# OEIS A000166, frozen.
DERANGEMENTS = [1, 0, 1, 2, 9, 44, 265, 1854, 14833, 133496, 1334961]

# S_n = sum_{i<=n} n!/i!, frozen from S_0 = 1, S_k = k*S_{k-1} + 1
# (OEIS A000522 from n = 1 on).
PARTIAL_SUMS = [2, 5, 16, 65, 326, 1957, 13700, 109601, 986410, 9864101]


@pytest.mark.parametrize("n,expected", list(enumerate(DERANGEMENTS)))
def test_derangements_frozen(n, expected):
    assert derangements(n) == expected


@pytest.mark.parametrize("n,expected", list(enumerate(PARTIAL_SUMS, start=1)))
def test_partial_sum_frozen(n, expected):
    assert partial_sum_pos(n) == expected


def test_partial_sum_closed_form():
    for n in range(1, 40):
        assert partial_sum_pos(n) == sum(
            factorial(n) // factorial(i) for i in range(n + 1)
        )


def test_derangements_closed_form():
    # D_n = n! * sum (-1)^i / i! is an integer identity after clearing
    # denominators.
    for n in range(40):
        total = sum(
            (-1) ** i * factorial(n) // factorial(i) for i in range(n + 1)
        )
        assert derangements(n) == total


def test_domain_errors():
    with pytest.raises(DomainError):
        factorial(-1)
    with pytest.raises(DomainError):
        derangements(-1)
    with pytest.raises(DomainError):
        partial_sum_pos(0)


@pytest.mark.parametrize("read", [factorial, partial_sum_pos, derangements])
def test_reads_past_sys_maxsize_are_domain_errors(read):
    # math.factorial overflows there and a block of steps never ends; the
    # messages below the range are unchanged.
    for n in (sys.maxsize + 1, 10**20, 1 << 300):
        with pytest.raises(DomainError) as exc:
            read(n)
        assert str(exc.value) == (
            f"{read.__name__} requires n <= {sys.maxsize} (got {_name(n)})"
        )
    low = 0 if read is partial_sum_pos else -1
    with pytest.raises(DomainError) as exc:
        read(low)
    assert str(exc.value) == f"{read.__name__} requires n >= {low + 1} (got {low})"


@given(st.integers(min_value=1, max_value=300))
def test_recurrence_consistency(n):
    assert derangements(n) == n * derangements(n - 1) + (-1) ** n
    if n == 1:
        assert partial_sum_pos(1) == 2
    else:
        assert partial_sum_pos(n) == n * partial_sum_pos(n - 1) + 1


@given(st.integers(min_value=0, max_value=200))
def test_derangement_partial_sum_sum(n):
    # D_n + (n choose 1) D_{n-1} + ... counts all permutations, i.e.
    # sum_k C(n,k) D_{n-k} = n!.
    import math

    total = sum(math.comb(n, k) * derangements(n - k) for k in range(n + 1))
    assert total == factorial(n)


def test_dpoly_coefficients():
    # coeffs[i] is the coefficient of x^i, i.e. n!/i!.
    p = dpoly(4)
    assert p.coeffs == (24, 24, 12, 4, 1)
    assert dpoly(0).coeffs == (1,)
    assert dpoly(1).coeffs == (1, 1)


def test_dpoly_eval_points():
    # D_n(-1) is the derangement number, D_n(1) the partial sum.
    for n in range(12):
        assert dpoly_eval(n, -1) == derangements(n)
    for n in range(1, 10):
        assert dpoly_eval(n, 1) == partial_sum_pos(n)


def test_dpoly_eval_rational():
    # D_2(x) = x^2 + 2x + 2 at x = 1/2.
    assert dpoly_eval(2, Fraction(1, 2)) == Fraction(13, 4)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=120),
    st.fractions(max_denominator=10**6).filter(lambda x: abs(x) <= 10**6),
)
# 32 steps are one leaf and 33 the first split, 64 and 65 the same one
# level up, 600 several levels; with q > 1 and with p = 0
@example(32, Fraction(-7, 3))
@example(33, Fraction(0))
@example(64, Fraction(5, 4))
@example(65, Fraction(-1, 6))
@example(600, Fraction(2, 3))
@example(600, Fraction(0))
def test_dpoly_eval_matches_coefficient_form(n, x):
    # The split block of U_k = k*q*U_{k-1} + p^k against Horner's rule on
    # the coefficient form.
    assert dpoly_eval(n, x) == dpoly(n).eval(x)


def test_dpoly_derivative_is_shift():
    # d/dx D_n(x) = n * D_{n-1}(x) coefficientwise.
    for n in range(1, 20):
        d = DerangementPoly(n, dpoly(n).coeffs).derivative_coeffs()
        scaled = tuple(n * c for c in dpoly(n - 1).coeffs)
        assert d == scaled


@pytest.mark.parametrize("n", range(0, 51))
def test_ode_identity(n):
    # D_n(x) - D_n'(x) = x^n, checked on exact coefficient tuples.
    p = dpoly(n)
    deriv = p.derivative_coeffs() + (0,)
    diff = tuple(a - b for a, b in zip(p.coeffs, deriv))
    assert diff == (0,) * n + (1,)


def test_dpoly_rejects_negative():
    with pytest.raises(DomainError, match=r"^dpoly requires n >= 0 \(got -1\)$"):
        dpoly(-1)
    with pytest.raises(DomainError, match=r"^dpoly_eval requires n >= 0 \(got -1\)$"):
        dpoly_eval(-1, Fraction(1, 2))


# --- marks and split blocks ----------------------------------------------

N0 = exact._N0
# (x, function, marks) for T_n = sum_{i<=n} x^i * n!/i!
_SEQUENCES = (
    (0, factorial, "_FACT_MARKS"),
    (1, partial_sum_pos, "_PSUM_MARKS"),
    (-1, derangements, "_DER_MARKS"),
)


def _loop(x, n):
    """T_n by the plain recurrence T_0 = 1, T_k = k*T_{k-1} + x^k."""
    t = 1
    for k in range(1, n + 1):
        t = k * t + x**k
    return t


def _loops(p, n_max, q=1):
    """[U_0, ..., U_{n_max}] by U_0 = 1, U_k = k*q*U_{k-1} + p^k; at q = 1
    that is T_k = k*T_{k-1} + x^k with x = p."""
    values = [1]
    for k in range(1, n_max + 1):
        values.append(k * q * values[-1] + p**k)
    return values


def _empty():
    """Marks as at import: slot 0 holds T_0 = 1, every other slot None."""
    return [1] + [None] * (exact._SLOTS - 1)


def _slot(n):
    """The slot a read at n uses: the one at or below min(n, N0)."""
    n = min(n, N0)
    return n if n < 512 else 512 + (n - 512) // 8


def _stored(marks):
    return {s for s, t in enumerate(marks) if t is not None}


@pytest.fixture
def empty_marks(monkeypatch):
    for _, _, name in _SEQUENCES:
        monkeypatch.setattr(exact, name, _empty())


def test_marks_sit_below_512_and_at_every_8th_n_through_n0(empty_marks):
    want = list(range(512)) + list(range(512, N0 + 1, 8))
    assert exact._SLOTS == len(want) == 961
    assert [exact._index(s) for s in range(exact._SLOTS)] == want
    for x, fn, name in _SEQUENCES:
        marks = getattr(exact, name)
        # one read stores its own slot and no other
        fn(2551)
        assert _stored(marks) == {0, _slot(2551)}
        # reading every n through N0 stores exactly the layout
        for n in range(1, N0 + 1):
            fn(n)
        values = _loops(x, N0)
        assert marks == [values[n] for n in want]


@pytest.mark.parametrize("x,fn,name", _SEQUENCES, ids=[s[2] for s in _SEQUENCES])
def test_sequences_agree_with_plain_loops(empty_marks, x, fn, name):
    values = _loops(x, N0 + 1)
    # first fill in order through 600, then read every residue mod 8
    # around marks, and the edges of the dense range and of N0
    indices = list(range(1 if x == 1 else 0, 601)) + [511, 512, 513]
    indices += list(range(1024, 1041)) + [N0 - 1, N0, N0 + 1, 2047, 2048, 2049, 600, 3]
    for n in indices:
        assert fn(n) == values[n], n
    for n in (5000, 20000):
        assert fn(n) == _loop(x, n), n


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(-7, 7),
    q=st.integers(1, 7),
    lo=st.integers(0, 5000),
    steps=st.integers(0, 4 * exact._LEAF + 3),
)
@example(p=-1, q=1, lo=4095, steps=1000)
@example(p=1, q=1, lo=0, steps=4097)
@example(p=-1, q=1, lo=1, steps=4097)
def test_a_split_block_is_the_recurrence(p, q, lo, steps):
    hi = lo + steps
    big_p, r = exact._block(lo, hi, p, q)
    values = _loops(p, hi, q)
    assert big_p == q**steps * math.prod(range(lo + 1, hi + 1))
    assert big_p * values[lo] + r == values[hi]


@settings(max_examples=40, deadline=None)
@given(
    reads=st.lists(
        st.tuples(st.sampled_from([-1, 0, 1]), st.integers(0, N0 + 50)),
        min_size=1,
        max_size=30,
    )
)
@example(reads=[(1, N0 + 50), (1, 1), (0, N0 + 50), (-1, 600), (-1, 600), (-1, 599)])
def test_reads_in_any_order_store_only_the_slots_they_use(reads):
    # From empty marks, reads at random n, in random order and with
    # repeats: every value is the plain loop's, and the stored slots are
    # slot 0 and the slot of each read that took one.  factorial above N0
    # is math.factorial and takes none.
    fns = {x: fn for x, fn, _ in _SEQUENCES}
    with pytest.MonkeyPatch.context() as mp:
        for _, _, name in _SEQUENCES:
            mp.setattr(exact, name, _empty())
        want = {x: _loops(x, max([n for y, n in reads if y == x], default=0)) for x in fns}
        used = {x: {0} for x in fns}
        for x, n in reads:
            if x == 1 and n == 0:
                continue  # partial_sum_pos starts at n = 1
            assert fns[x](n) == want[x][n], (x, n)
            if x != 0 or n <= N0:
                used[x].add(_slot(n))
        for x, _, name in _SEQUENCES:
            assert _stored(getattr(exact, name)) == used[x]


def _prefix_read(marks, x, n):
    """A read from marks filled as a prefix: every slot up to the one read
    is stored, in order, each by one block from the slot before it."""
    slot = _slot(n)
    for s in range(len(marks), slot + 1):
        p, r = exact._block(exact._index(s - 1), exact._index(s), x, 1)
        marks.append(p * marks[s - 1] + r)
    p, r = exact._block(exact._index(slot), n, x, 1)
    return p * marks[slot] + r


def test_sweeps_cost_what_a_prefix_fill_costs_ascending_and_stay_bounded_descending(
    monkeypatch,
):
    # Ascending, each first read splits from the slot just below it, the
    # same blocks a prefix fill computes.  Descending, each first read
    # splits from slot 0: the stated price of storing only what is read.
    def ascending_on_demand():
        for _, _, name in _SEQUENCES:
            monkeypatch.setattr(exact, name, _empty())
        started = time.perf_counter()
        for n in range(1, N0 + 1):
            for _, fn, _ in _SEQUENCES:
                fn(n)
        return time.perf_counter() - started

    def ascending_prefix():
        prefixes = {x: [1] for x, _, _ in _SEQUENCES}
        started = time.perf_counter()
        for n in range(1, N0 + 1):
            for x, marks in prefixes.items():
                _prefix_read(marks, x, n)
        return time.perf_counter() - started

    # min of alternating runs, so a busy moment on the host hits both
    on_demand, prefix = zip(*((ascending_on_demand(), ascending_prefix()) for _ in range(3)))
    assert min(on_demand) < 1.2 * min(prefix), (on_demand, prefix)

    for _, _, name in _SEQUENCES:
        monkeypatch.setattr(exact, name, _empty())
    started = time.perf_counter()
    for n in range(N0, 0, -1):
        for _, fn, _ in _SEQUENCES:
            fn(n)
    assert time.perf_counter() - started < 5


def _digest(v):
    """sha256 of the little-endian bytes of the int v >= 0."""
    return hashlib.sha256(v.to_bytes((v.bit_length() + 7) // 8, "little")).hexdigest()


# sha256 of the little-endian bytes of D_100000 and S_100000, computed by
# the product tree of 2x2 matrices that served n > N0 before the split block
_DIGESTS_AT_100000 = (
    (derangements, "7164756427cd2d580aaac4ea67120206572422baafabb3ac764d1715dd577bae"),
    (partial_sum_pos, "44c583463af0120b7a4b21162d7e6fda349bd79ca559738b00b4ae5e00043017"),
)


@pytest.mark.parametrize("fn,digest", _DIGESTS_AT_100000, ids=["D", "S"])
def test_values_at_100000_keep_their_digests(fn, digest):
    assert _digest(fn(100000)) == digest


# (x, numerator digest, denominator digest) of D_20000(x), computed by the
# O(n) running product r_{i-1} = r_i*i*q that evaluated D_n(p/q) before the
# split block
_DPOLY_DIGESTS_AT_20000 = (
    (
        Fraction(-3, 2),
        "49ff289bdcee9280342b407fe8111d1d2397bf13b0752ca1fb8c169ef99b254a",
        "d9c329d8254823185e529ffb0f5d47c654ad123387bf16373464c13ea43daab3",
    ),
    (
        Fraction(2, 3),
        "15d41b563de02d7a059c8ef8a6c10d96fa917643cfee2be71a15fb8a85697829",
        "e8f9e4d6f3844b013d42abe4515723058bb11e3397198dd57aab593bae56ae60",
    ),
    (
        Fraction(1, 3),
        "3271c3e4b3c7fde2502c96254a3b209e9cebb241f9664f1d16b44e47b6711cd5",
        "e8f9e4d6f3844b013d42abe4515723058bb11e3397198dd57aab593bae56ae60",
    ),
)


@pytest.mark.parametrize("x,num,den", _DPOLY_DIGESTS_AT_20000, ids=["-3_2", "2_3", "1_3"])
def test_dpoly_eval_at_20000_keeps_its_digests(x, num, den):
    v = dpoly_eval(20000, x)
    assert (_digest(v.numerator), _digest(v.denominator)) == (num, den)


def test_exact_reads_nothing_from_the_certified_brackets(empty_marks, monkeypatch):
    # The mirror of test_brackets_read_nothing_from_exact: with the
    # certified binary split broken, the exact route answers on both
    # sides of N0.
    def broken(*args):
        raise AssertionError("the exact route called the certified split")

    monkeypatch.setattr(certified, "_split", broken)
    monkeypatch.setattr(certified, "_bracket", broken)
    for x, fn, _ in _SEQUENCES:
        for n in (1, 700, N0, N0 + 1, 6000):
            assert fn(n) == _loop(x, n), (fn, n)


def test_threads_from_empty_marks_read_the_sequential_values(empty_marks):
    # Four readers start from empty marks at interleaved indices, the
    # first ones above N0, and store slots while the others read them.
    n_max = N0 + 400
    want = {x: _loops(x, n_max) for x, _, _ in _SEQUENCES}
    started = time.monotonic()
    failures = []

    def reader(offset):
        try:
            for n in range(n_max - offset, 0, -97):
                for x, fn, _ in _SEQUENCES:
                    if fn(n) != want[x][n]:
                        failures.append((fn.__name__, n))
        except BaseException as exc:  # reported below
            failures.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(i * 13,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert failures == []
    assert time.monotonic() - started < 60
    read = [n for i in range(4) for n in range(n_max - i * 13, 0, -97)]
    for x, _, name in _SEQUENCES:
        marks = getattr(exact, name)
        stored = _stored(marks)
        # factorial above N0 is math.factorial and stores nothing
        assert stored == {0} | {_slot(n) for n in read if x != 0 or n <= N0}
        assert all(marks[s] == want[x][exact._index(s)] for s in stored)

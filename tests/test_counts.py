"""Path/cycle counts, the floor family for derangements, and the
certified bound chain."""

import json
import sys
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecount import certified, counts, exact
from ecount.certified import EForm, eform_eval, eform_sign
from ecount.errors import DomainError, InvariantViolation, PrecisionCapError
from ecount.exact import derangements, factorial, partial_sum_pos

Q = Fraction

# Paths between a fixed vertex pair in K_n, frozen from (n-2)! partial
# sums: w_3 = 2, w_4 = 5, w_5 = 16, w_6 = 65, w_10 = 109601.
PATHS = {3: 2, 4: 5, 5: 16, 6: 65, 10: 109601}

# Oriented cycles through a fixed vertex: c_n = floor(e(n-1)!) - n.
CYCLES = {3: 2, 4: 12, 5: 60, 6: 320, 8: 13692}

# Total path length over all paths: L_3 = 3, L_4 = 11, L_5 = 49.
PATH_LENGTH_SUMS = {3: 3, 4: 11, 5: 49, 6: 261}

# Total cycle length: L_3 = 6, L_4 = 42, L_5 = 3*12 + 4*24 + 5*24.
CYCLE_LENGTH_SUMS = {3: 6, 4: 42, 5: 252}


@pytest.mark.parametrize("n,expected", sorted(PATHS.items()))
def test_path_count_frozen(n, expected):
    assert counts.path_count(n) == expected


@pytest.mark.parametrize("n,expected", sorted(CYCLES.items()))
def test_cycle_count_frozen(n, expected):
    assert counts.cycle_count(n) == expected


@pytest.mark.parametrize("n,expected", sorted(PATH_LENGTH_SUMS.items()))
def test_path_length_sum_frozen(n, expected):
    assert counts.path_length_sum(n) == expected


@pytest.mark.parametrize("n,expected", sorted(CYCLE_LENGTH_SUMS.items()))
def test_cycle_length_sum_frozen(n, expected):
    assert counts.cycle_length_sum(n) == expected


def test_path_count_by_length():
    # w(i) = (n-2)!/(n-1-i)! paths of length i; at n = 5 that is
    # 1, 3, 6, 6 for i = 1..4.
    assert [counts.path_count_by_length(5, i) for i in range(1, 5)] == [1, 3, 6, 6]
    assert sum(counts.path_count_by_length(6, i) for i in range(1, 6)) == 65


def test_average_path_length():
    assert counts.average_path_length(3) == Q(3, 2)
    assert counts.average_path_length(4) == Q(11, 5)
    assert counts.average_path_length(6) == Q(261, 65)
    for n in range(3, 61):
        avg = counts.average_path_length(n)
        assert avg - (n - 2) == Q(1, counts.path_count(n))


def test_argmax_lengths():
    assert counts.path_argmax_lengths(3) == {1, 2}
    assert counts.path_argmax_lengths(4) == {2, 3}
    assert counts.path_argmax_lengths(7) == {5, 6}
    # Cross-check against exhaustive argmax of the by-length counts.
    for n in range(4, 61):
        table = {i: counts.path_count_by_length(n, i) for i in range(1, n)}
        top = max(table.values())
        assert counts.path_argmax_lengths(n) == {
            i for i, v in table.items() if v == top
        }


def test_path_cycle_counts_bundle():
    pc = counts.path_cycle_counts(6)
    assert pc.path_count == 65
    assert pc.cycle_count == 320
    assert pc.path_length_sum == 261
    assert pc.cycle_length_sum == counts.cycle_length_sum(6)


def _counted(monkeypatch, name):
    """Replace counts.<name> by a wrapper that logs each call."""
    calls = []
    original = getattr(counts, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(counts, name, wrapper)
    return calls


@pytest.mark.parametrize("n", [3, 7, 12])
def test_each_route_runs_once(monkeypatch, n):
    floors = _counted(monkeypatch, "certified_floor")
    terms = _counted(monkeypatch, "path_count_by_length")
    # The tallies are differences of partial sums S_m, so none of them
    # calls path_count_by_length.
    for fn, want_floors, want_terms in (
        (counts.path_count, 1, 0),
        (counts.path_length_sum, 1, 0),
        (counts.average_path_length, 1, 0),
        (counts.cycle_count, 1, 0),
        (counts.cycle_length_sum, 2, 0),
        (counts.path_cycle_counts, 3, 0),
    ):
        floors.clear()
        terms.clear()
        fn(n)
        assert (len(floors), len(terms)) == (want_floors, want_terms), fn.__name__


def _quotient_path_sums(n):
    """(w_n, total path length), one factorial quotient per term."""
    terms = {i: factorial(n - 2) // factorial(n - 1 - i) for i in range(1, n)}
    return sum(terms.values()), sum(i * w for i, w in terms.items())


def _quotient_cycle_sums(n):
    """(c_n, total cycle length), one factorial quotient per term."""
    terms = {i: factorial(n - 1) // factorial(n - i) for i in range(3, n + 1)}
    return sum(terms.values()), sum(i * t for i, t in terms.items())


def _running_path_sums(n):
    """(w_n, total path length), each term w(i+1) = w(i)*(n-1-i) the
    running product of the one before."""
    count = total = 0
    w = 1
    for i in range(1, n):
        count, total = count + w, total + i * w
        w *= n - 1 - i
    return count, total


def _running_cycle_sums(n):
    """(c_n, total cycle length), each term (n-1)!/(n-i)! the running
    product term(i+1) = term(i)*(n-i) of the one before."""
    count = total = 0
    term = (n - 1) * (n - 2)
    for i in range(3, n + 1):
        count, total = count + term, total + i * term
        term *= n - i
    return count, total


# S_m is read at m = n-2, n-1 and n: from dense marks (m < 512), from
# strided marks (512 <= m <= 4096) and above the last mark, N0 = 4096.
@settings(max_examples=60, deadline=None)
@example(511)
@example(512)
@example(513)
@example(514)
@example(4097)
@example(4098)
@given(st.integers(min_value=3, max_value=5000))
def test_tallies_match_reference_sums(n):
    paths, path_length = _running_path_sums(n)
    cycles, cycle_length = _running_cycle_sums(n)
    if n <= 400:
        assert _quotient_path_sums(n) == (paths, path_length)
        assert _quotient_cycle_sums(n) == (cycles, cycle_length)
    assert counts.path_count(n) == paths
    assert counts.path_length_sum(n) == path_length
    assert counts.average_path_length(n) == Q(path_length, paths)
    assert counts.cycle_count(n) == cycles
    assert counts.cycle_length_sum(n) == cycle_length
    assert counts.path_cycle_counts(n) == counts.PathCycleCounts(
        n, paths, path_length, cycles, cycle_length
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=400))
def test_argmax_matches_by_length_table(n):
    table = {i: counts.path_count_by_length(n, i) for i in range(1, n)}
    top = max(table.values())
    assert counts.path_argmax_lengths(n) == {i for i, w in table.items() if w == top}


def _prod_bound_m(n, m):
    """M_m(n) with one math.prod per term."""
    if m == 1:
        return Q(1, n)
    if m == 2:
        return Q(n + 2, (n + 1) ** 2)
    t = n + m - 1
    tail = sum(prod(range(i + 1, t + 1)) for i in range(n + 1, t))
    return Q(n + m + t * tail, t * prod(range(n + 1, t + 1)))


def _prod_bound_n(n, m):
    """N_m(n) with one math.prod per term."""
    top = n + 2 * m
    acc = sum((n + 2 * i - 1) * prod(range(n + 2 * i + 1, top + 1)) for i in range(1, m + 1))
    a = Q(acc - partial_sum_pos(top), prod(range(n + 1, top + 1)))
    return EForm(a, factorial(n), 0)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=60), st.integers(min_value=1, max_value=40))
def test_suffix_products_match_prod_bounds(n, m):
    assert counts.bound_M(n, m) == _prod_bound_m(n, m)
    assert counts.bound_N(n, m) == _prod_bound_n(n, m)


@settings(max_examples=100, deadline=None)
@example(2, 1, 1)
@example(2, 1, 2)
@example(3, 2, 2)
@example(5, 3, 3)
@example(5, 4, 9)
@given(
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=40),
)
def test_bound_families_match_single_bounds(n, m_lo, width):
    # One ascending pass builds every M_m and N_m from m_lo on (M two
    # steps at a time below m_lo); each is the bound built on its own, by
    # one math.prod per term.
    m_hi = m_lo + width
    want = range(m_lo, m_hi + 1)
    assert [Q(*pair) for pair in counts._m_pairs(n, m_lo, m_hi)] == [
        _prod_bound_m(n, m) for m in want
    ]
    assert list(counts._n_forms(n, m_lo, m_hi)) == [_prod_bound_n(n, m) for m in want]


def test_unreduced_bound_n_family_keeps_values_hashes_and_reduced_coefficients():
    # The N bounds are built on their unreduced common denominators; as
    # values, hash keys and reduced coefficients they are the Fraction
    # sums of the definition.
    for n in range(2, 41):
        nf = factorial(n)
        family = list(counts._n_forms(n, 1, 12))
        assert len(family) == 12
        for m, big_n in enumerate(family, start=1):
            single = counts.bound_N(n, m)
            assert big_n == single and hash(big_n) == hash(single)
            top = n + 2 * m
            a = sum(Q(nf * (n + 2 * i - 1), factorial(n + 2 * i)) for i in range(1, m + 1))
            a -= Q(nf * partial_sum_pos(top), factorial(top))
            for f in (big_n, single):
                assert isinstance(f, EForm)
                assert (f.a, f.b, f.c) == (a, nf, 0)
                assert type(f.a) is Fraction
            assert hash(big_n) == hash(EForm(a, nf, 0))


def test_path_count_stores_one_factorial_and_one_sum_mark(monkeypatch):
    # From empty marks and an empty bracket cache: the certified route
    # needs (n-2)! and builds its own bracket of e, and the exact route
    # reads S_{n-2}.
    marks = {
        name: [1] + [None] * (exact._SLOTS - 1)
        for name in ("_FACT_MARKS", "_PSUM_MARKS", "_DER_MARKS")
    }
    for name, table in marks.items():
        monkeypatch.setattr(exact, name, table)
    monkeypatch.setattr(certified, "_FIXED", {"e": (0, 2, 1, 1, 0), "e_inv": (0, 0, 1, 1, 0)})
    value = counts.path_count(2551)
    # 2549! and S_2549 are read from the marks at 2544, the slot
    # 512 + (2544 - 512) / 8: that slot is stored in each, beside slot 0,
    # and no D slot is
    slot = 512 + (2544 - 512) // 8
    stored = {name: [s for s, t in enumerate(t) if t is not None] for name, t in marks.items()}
    assert stored == {"_FACT_MARKS": [0, slot], "_PSUM_MARKS": [0, slot], "_DER_MARKS": [0]}
    assert marks["_FACT_MARKS"][slot] == factorial(2544)
    assert marks["_PSUM_MARKS"][slot] == partial_sum_pos(2544)
    assert value == partial_sum_pos(2549)


def test_cycle_length_guard_is_real(monkeypatch):
    # The floor of e*n! enters only the length check, so corrupting it
    # must raise there even though the count check still passes.
    n = 6
    real = counts.certified_floor
    nf = factorial(n)
    monkeypatch.setattr(
        counts, "certified_floor", lambda f, **kw: real(f, **kw) + (f.b == nf)
    )
    assert counts.cycle_count(n) == CYCLES[n]
    with pytest.raises(InvariantViolation, match="cycle_length_sum"):
        counts.cycle_length_sum(n)
    with pytest.raises(InvariantViolation, match="cycle_length_sum"):
        counts.path_cycle_counts(n)


def test_length_guards_bite_on_the_exact_side(monkeypatch):
    # S_{n-1} enters only the direct sum of the path length, and S_n only
    # that of the cycle length: one more there must raise, naming the
    # length function, while the count it rests on still passes.
    n = 6
    for fn, m, count, want in (
        (counts.path_length_sum, n - 1, counts.path_count, PATHS[n]),
        (counts.cycle_length_sum, n, counts.cycle_count, CYCLES[n]),
    ):
        monkeypatch.setattr(
            counts, "partial_sum_pos", lambda k, m=m: partial_sum_pos(k) + (k == m)
        )
        assert count(n) == want
        with pytest.raises(InvariantViolation, match=fn.__name__):
            fn(n)
        with pytest.raises(InvariantViolation, match=fn.__name__):
            counts.path_cycle_counts(n)


def test_counts_domain_errors():
    for fn in (
        counts.path_count,
        counts.cycle_count,
        counts.path_length_sum,
        counts.cycle_length_sum,
        counts.average_path_length,
        counts.path_argmax_lengths,
        counts.path_cycle_counts,
    ):
        with pytest.raises(DomainError):
            fn(2)
    with pytest.raises(DomainError):
        counts.path_count_by_length(5, 0)
    with pytest.raises(DomainError):
        counts.path_count_by_length(5, 5)


# --- the floor family --------------------------------------------------


@pytest.mark.parametrize("n", range(1, 61))
def test_family_agrees_small(n):
    dn = derangements(n)
    assert counts.derangement_eq2(n) == dn
    assert counts.derangement_lambda(n, Q(1, 3)) == dn
    assert counts.derangement_lambda(n, Q(1, 2)) == dn
    if n >= 2:
        assert counts.derangement_eq3(n) == dn
        assert counts.derangement_eq4(n) == dn
        assert counts.derangement_eq6(n) == dn
        assert counts.derangement_eq5(n, 3) == dn
        assert counts.derangement_eq5(n, 6) == dn
        assert counts.derangement_thm7(n, 1) == dn
        assert counts.derangement_thm7(n, 3) == dn


def test_lambda_window_sharpness():
    # Outside [1/3, 1/2] the shifted floor misses a derangement number.
    assert counts.derangement_lambda(2, 0) == 0 != derangements(2)
    assert counts.derangement_lambda(3, 1) == 3 != derangements(3)


def test_family_domain_errors():
    with pytest.raises(DomainError):
        counts.derangement_eq2(0)
    with pytest.raises(DomainError):
        counts.derangement_eq3(1)
    with pytest.raises(DomainError):
        counts.derangement_eq5(4, 2)
    with pytest.raises(DomainError):
        counts.derangement_thm7(4, 0)


class _Unformattable(int):
    """An int that computes as one but refuses to be formatted."""

    def __format__(self, spec):
        raise AssertionError("a passing check formatted its message")


def test_a_passing_check_formats_no_message():
    n, m = _Unformattable(14), _Unformattable(2)
    assert counts.derangement_thm7(n, m) == derangements(14)
    assert counts.derangement_eq5(n, _Unformattable(3)) == derangements(14)
    assert counts.path_count_by_length(n, m) == 12
    assert counts.bound_N(n, m) == counts.bound_N(14, 2)
    assert counts.chain_check(_Unformattable(5), m) == counts.chain_check(5, 2)
    # A failing check still names the argument.
    with pytest.raises(DomainError, match=r"^derangement_thm7 requires m >= 1 \(got m=0\)$"):
        counts.derangement_thm7(4, 0)
    with pytest.raises(DomainError, match=r"^bound_N requires n >= 2 \(got n=1\)$"):
        counts.bound_N(1, 1)


def test_thm7_tail_added_once():
    # The closing partial-sum correction enters the identity exactly
    # once, not once per summand; folding it into the inner sum breaks
    # equality as soon as the sum has two or more terms.
    from ecount.certified import certified_floor
    from ecount.exact import partial_sum_pos

    def thm7_tail_inside(n, m):
        nf = factorial(n)
        acc = Q(0)
        for i in range(1, m + 1):
            acc += Q(n + 2 * i - 1, factorial(n + 2 * i)) - Q(
                partial_sum_pos(n + 2 * m), factorial(n + 2 * m)
            )
        return certified_floor(EForm(acc * nf, nf, nf))

    for n in (2, 3, 5, 8):
        assert counts.derangement_thm7(n, 1) == thm7_tail_inside(n, 1)
        for m in (2, 3):
            assert counts.derangement_thm7(n, m) == derangements(n)
            assert thm7_tail_inside(n, m) != derangements(n)


def _sum_over_one_gcd(f: EForm, g: EForm) -> tuple[int, int, int, int]:
    """The integers of f + g over d1 * d2 / gcd(d1, d2), whatever d1 and d2."""
    a1, b1, c1, d1 = f._ints
    a2, b2, c2, d2 = g._ints
    g = gcd(d1, d2)
    m1, m2 = d2 // g, d1 // g
    return a1 * m1 + a2 * m2, b1 * m1 + b2 * m2, c1 * m1 + c2 * m2, d1 * m1


def _recording(real, seen):
    def record(*forms, **kwargs):
        seen.extend(forms)
        return real(*forms, **kwargs)

    return record


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=40),
    st.fractions(min_value=0, max_value=2, max_denominator=1000),
)
@example(1, 1, Q(1, 3))
@example(2, 3, Q(1, 2))
@example(300, 40, Q(1))
def test_integer_built_forms_are_the_fraction_built_ones(n, m, lam):
    # The floor family and the chain build their forms from integers; each
    # has the integers of the form built from the Fraction coefficients.
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counts, "certified_floor", _recording(certified.certified_floor, seen))
        mp.setattr(counts, "eform_lt", _recording(certified.eform_lt, seen))
        _check_forms_of_the_family_and_chain(n, m, lam, seen)


def _check_forms_of_the_family_and_chain(n, m, lam, seen):
    nf = factorial(n)
    zero = Q(0)
    cases = [
        (lambda: counts.derangement_eq2(n), [EForm(zero, zero, Q(nf + 1))]),
        (lambda: counts.derangement_lambda(n, lam), [EForm(lam, zero, Q(nf))]),
    ]
    if n >= 2:
        m5, t = max(m, 3), n + max(m, 3) - 1
        head5 = nf * (sum(Q(1, factorial(i)) for i in range(t)) + Q(n + m5, t * factorial(t)))
        e_nf = EForm(zero, Q(nf), zero)
        cases += [
            (lambda: counts.derangement_eq3(n), [EForm(Q(1, n), zero, Q(nf))]),
            (lambda: counts.derangement_eq4(n), [EForm(Q(n + 2, (n + 1) ** 2), zero, Q(nf))]),
            (lambda: counts.derangement_eq5(n, m5), [EForm(head5, zero, Q(nf)), e_nf]),
            (lambda: counts.derangement_eq6(n), [EForm(zero, Q(nf), Q(nf)), e_nf]),
        ]
    for call, want in cases:
        seen.clear()
        call()
        assert [f._ints for f in seen] == [f._ints for f in want]
    if n < 2:
        return

    seen.clear()
    assert counts.derangement_thm7(n, m) == derangements(n)
    (form,) = seen
    assert form._ints == _sum_over_one_gcd(counts.bound_N(n, m), EForm(zero, zero, Q(nf)))

    seen.clear()
    dn = derangements(n)
    counts.chain_check(n, m)
    chain = seen[:1] + seen[1::2]
    assert seen[2::2] == seen[1:-1:2]
    head = EForm(Q(dn), zero, Q(-nf)) if n % 2 == 0 else EForm(Q(-dn), zero, Q(nf))
    want = [head]
    want += [counts.bound_N(n, k) for k in range(m, 0, -1)]
    want += [EForm(Q(-partial_sum_pos(n)), Q(nf), zero)]
    want += [EForm.from_rational(counts.bound_M(n, k)) for k in range(m + 2, 0, -1)]
    want += [EForm(Q(1), zero, zero)]
    assert [f._ints for f in chain] == [f._ints for f in want]


def test_integer_derangement_floors_make_no_fraction(monkeypatch):
    # eq2-eq6, thm7 and lambda build their forms from integers and floor
    # them without a Fraction; a lam that is already a Fraction is read
    # as it is.
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    n, lam = 50, Q(2, 5)
    calls = {
        "eq2": lambda: counts.derangement_eq2(n),
        "eq3": lambda: counts.derangement_eq3(n),
        "eq4": lambda: counts.derangement_eq4(n),
        "eq5": lambda: counts.derangement_eq5(n, 7),
        "eq6": lambda: counts.derangement_eq6(n),
        "thm7": lambda: counts.derangement_thm7(n, 3),
        "lambda": lambda: counts.derangement_lambda(n, lam),
    }
    dn = derangements(n)
    made_by = {}
    for name, call in calls.items():
        monkeypatch.setattr(Fraction, "__new__", counting_new)
        made.clear()
        result = call()
        monkeypatch.undo()
        assert result == dn, name
        made_by[name] = list(made)
    assert made_by == {name: [] for name in calls}


# --- bounds ------------------------------------------------------------


def test_each_floor_is_one_decision_of_the_public_entry_points(monkeypatch):
    # A span tracer that wraps the module attributes certified_floor_info
    # and eform_sign counts one decision per call of either.  Each floor a
    # formula takes must reach one of them, not the refinement directly,
    # or it would be missing from that count.
    calls = []
    for name in ("certified_floor_info", "eform_sign"):
        real = getattr(certified, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(certified, name, counted)
    floors = {
        "eq2": (lambda: counts.derangement_eq2(7), 7, 1),
        "eq6": (lambda: counts.derangement_eq6(12), 12, 2),
        "thm7": (lambda: counts.derangement_thm7(28, 1), 28, 1),
    }
    for name, (call, n, taken) in floors.items():
        calls.clear()
        assert call() == derangements(n), name
        assert calls == ["certified_floor_info"] * taken, name


def test_bound_m_values():
    assert counts.bound_M(5, 1) == Q(1, 5)
    assert counts.bound_M(5, 2) == Q(7, 36)
    assert counts.bound_M(5, 3) == Q(19, 98)
    assert counts.bound_M(5, 4) == Q(521, 2688)


def test_bound_m_decreasing_to_frac():
    # M_m decreases with m and stays above {e n!}.
    from ecount.certified import eform_lt, frac_e_nfact

    for n in (2, 5, 9):
        frac = frac_e_nfact(n)
        prev = Q(1)
        for m in range(1, 9):
            cur = counts.bound_M(n, m)
            assert cur < prev
            assert eform_lt(frac, EForm.from_rational(cur))
            prev = cur


def test_bound_n_triple():
    f = counts.bound_N(2, 1)
    assert f.to_triple() == ("-31/6", "2", "0")


def test_bound_n_positive_and_decreasing():
    for n in (2, 5, 9):
        prev = None
        for m in range(1, 6):
            f = counts.bound_N(n, m)
            assert eform_sign(f) == 1
            if prev is not None:
                assert eform_sign(prev - f) == 1
            prev = f


@pytest.mark.parametrize("n", [2, 7, 40])
def test_table_bounds_rows_are_the_prod_bounds(n):
    # `table bounds` reads one pass of each builder; its rows are the
    # bounds that one math.prod per term gives, printed as the CLI prints.
    from cli_runner import invoke
    from ecount.cli import _digits_for_bits

    res = invoke(["table", "bounds", "--n", str(n), "--m-range", "1..30", "--format", "json"])
    assert res.exit_code == 0
    digits = _digits_for_bits(96)
    want = []
    for m in range(1, 31):
        n_lo, n_hi = eform_eval(_prod_bound_n(n, m), 96).to_decimal(digits)
        want.append({"m": m, "M": str(_prod_bound_m(n, m)), "N_lo": n_lo, "N_hi": n_hi})
    assert json.loads(res.stdout) == want


def test_chain_check_passes():
    for n in (2, 3, 5, 17, 50):
        chain = counts.chain_check(n, 8)
        assert chain.n == n
        assert len(chain.m_list) == 8


def test_chain_check_domain():
    with pytest.raises(DomainError):
        counts.chain_check(1, 3)
    with pytest.raises(DomainError):
        counts.chain_check(5, 0)


def test_dual_route_guard_is_real(monkeypatch):
    # The dual routes in path_count really are independent: corrupting
    # the certified route must raise, not silently agree.
    n = 6
    direct = sum(counts.path_count_by_length(n, i) for i in range(1, n))
    assert direct == counts.path_count(n)
    monkeypatch.setattr(counts, "certified_floor", lambda f, **kw: direct + 1)
    with pytest.raises(InvariantViolation):
        counts.path_count(n)


_FORMS = [
    (counts.derangement_eq2, ()),
    (counts.derangement_eq3, ()),
    (counts.derangement_eq4, ()),
    (counts.derangement_eq5, (3,)),
    (counts.derangement_eq6, ()),
    (counts.derangement_thm7, (1,)),
    (counts.derangement_lambda, (Q(1, 3),)),
]


@pytest.mark.parametrize("form, rest", _FORMS, ids=[f.__name__ for f, _ in _FORMS])
def test_checked_form_is_refused_before_its_exact_route(monkeypatch, form, rest):
    # The form's certified floor runs first: when it refuses at the cap,
    # derangements(n) (here one that would fail) never runs.
    def refused(*args, **kw):
        raise PrecisionCapError("floor undecided at precision cap 4 bits")

    def never(n):
        raise AssertionError("the exact route ran before the refusal")

    monkeypatch.setattr(counts, "certified_floor", refused)
    monkeypatch.setattr(counts, "derangements", never)
    with pytest.raises(PrecisionCapError):
        counts._checked_form(form, 6, *rest)


@pytest.mark.parametrize("form, rest", _FORMS, ids=[f.__name__ for f, _ in _FORMS])
def test_checked_form_names_the_call_and_both_values(monkeypatch, form, rest):
    assert counts._checked_form(form, 6, *rest) == 265
    monkeypatch.setattr(counts, "derangements", lambda n: derangements(n) - 1)
    call = ", ".join(map(str, (6, *rest)))
    want = f"{form.__name__}({call}): certified route gives 265, exact route gives 264"
    with pytest.raises(InvariantViolation) as exc:
        counts._checked_form(form, 6, *rest)
    assert str(exc.value) == want


@pytest.mark.parametrize(
    "moved_by, difference",
    [(1, " (certified - exact = 1)"), (1 << 300, "")],
    ids=["narrow-difference", "wide-difference"],
)
def test_checked_form_names_wide_values_by_their_bit_length(monkeypatch, moved_by, difference):
    # D_2000 has 5,736 digits, past Python's default limit of 4300 for
    # int-to-str: the refusal names each value by its bit length, and the
    # difference of the routes when that is narrow.
    value = derangements(2000)
    monkeypatch.setattr(counts, "derangements", lambda n: value - moved_by)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(InvariantViolation) as exc:
            counts._checked_form(counts.derangement_eq2, 2000)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert str(exc.value) == (
        f"derangement_eq2(2000): certified route gives a value of {value.bit_length()} bits, "
        f"exact route gives a value of {(value - moved_by).bit_length()} bits{difference}"
    )


def test_agreeing_routes_make_no_string_of_their_values():
    strings = []

    class Recorded(int):
        def __str__(self):
            strings.append(int(self))
            return super().__str__()

    assert counts._agree("f", (Recorded(5),), Recorded(7), Recorded(7)) == 7
    assert strings == []

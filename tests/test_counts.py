"""Path/cycle counts, the floor family for derangements, and the
certified bound chain."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecount import certified, counts, exact
from ecount.certified import EForm, eform_eval, eform_sign
from ecount.errors import DomainError, InvariantViolation
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
    # The sums take their terms as running products, so none of them
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


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=400))
def test_running_products_match_quotient_sums(n):
    paths, path_length = _quotient_path_sums(n)
    cycles, cycle_length = _quotient_cycle_sums(n)
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
@given(st.integers(min_value=2, max_value=60), st.integers(min_value=1, max_value=40))
def test_bound_families_match_single_bounds(n, m_max):
    # chain_check builds every M_m and N_m in one ascending pass each.
    assert counts._bound_M_family(n, m_max) == [
        counts.bound_M(n, m) for m in range(1, m_max + 1)
    ]
    assert counts._bound_N_family(n, m_max) == [
        counts.bound_N(n, m) for m in range(1, m_max + 1)
    ]


def test_unreduced_bound_n_family_keeps_values_hashes_and_reduced_coefficients():
    # The N bounds are built on their unreduced common denominators; as
    # values, hash keys and reduced coefficients they are the Fraction
    # sums of the definition.
    for n in range(2, 41):
        nf = factorial(n)
        family = counts._bound_N_family(n, 12)
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


def test_path_count_grows_the_factorial_table_only(monkeypatch):
    # From empty tables and an empty bracket cache: the exact route needs
    # (n-2)! alone, and the certified route builds its own bracket of e.
    tables = {name: [1] for name in ("_FACT", "_PSUM", "_DER")}
    for name, table in tables.items():
        monkeypatch.setattr(exact, name, table)
    monkeypatch.setattr(certified, "_FIXED", {"e": (0, 2, 3), "e_inv": (0, 0, 1)})
    value = counts.path_count(2551)
    assert {name: len(t) for name, t in tables.items()} == {
        "_FACT": 2550, "_PSUM": 1, "_DER": 1
    }
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


def test_counts_domain_errors():
    for fn in (
        counts.path_count,
        counts.cycle_count,
        counts.path_length_sum,
        counts.cycle_length_sum,
        counts.average_path_length,
        counts.path_argmax_lengths,
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


# --- bounds ------------------------------------------------------------


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

"""Tests for the truncated q-series kernel (exponents are q-powers)."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qbrackets import series
from qbrackets.arith import padic_valuation
from qbrackets.brackets import correction_column, normalized_qbracket
from qbrackets.errors import IntegralityError, TruncationError
from qbrackets.modforms import QuasimodularPoly, eisenstein
from qbrackets.report import congruent_mod
from qbrackets.series import (
    QExpansion,
    add,
    euler_function,
    first_difference,
    multiply,
    scale,
)
from qbrackets.shifted import ShiftedSymmetricPoly, bracket_of_polynomial, qbracket

from modforms_reference import delta, miller_basis, poly_series
from partitions_reference import partition_counts

T = 16

coeffs = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)
small_series = st.dictionaries(st.integers(0, T - 1), coeffs, max_size=6).map(
    lambda d: QExpansion(d, T)
)


def geometric(step: int, truncation: int) -> QExpansion:
    return QExpansion({e: 1 for e in range(0, truncation, step)}, truncation)


# --- construction and predicates ---


def test_constructor_drops_zeros_and_over_truncation_terms():
    a = QExpansion({0: 1, 3: 0, 24: Fraction(0, 5), 99: 7}, 50)
    assert a.terms == {0: 1}
    assert a.truncation == 50


def test_constructor_rejects_negative_exponent_and_bad_truncation():
    with pytest.raises(ValueError):
        QExpansion({-1: 1}, 10)
    with pytest.raises(ValueError):
        QExpansion({}, 0)


def test_coefficient_beyond_truncation_raises():
    a = QExpansion({0: 1}, 10)
    assert a.coefficient(9) == 0
    with pytest.raises(TruncationError):
        a.coefficient(10)


# --- ring structure ---


@settings(max_examples=60)
@given(small_series, small_series, small_series)
def test_ring_laws(a, b, c):
    assert add(a, b) == add(b, a)
    assert multiply(a, b) == multiply(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
    assert multiply(a, add(b, c)) == add(multiply(a, b), multiply(a, c))
    assert add(a, scale(a, -1)) == QExpansion({}, T)
    assert scale(multiply(a, b), Fraction(2, 3)) == multiply(scale(a, Fraction(2, 3)), b)
    assert scale(add(a, b), -3) == add(scale(a, -3), scale(b, -3))


def test_geometric_inverse():
    one_minus_q = QExpansion({0: 1, 1: -1}, 40)
    assert multiply(one_minus_q, geometric(1, 40)) == QExpansion.one(40)


def test_scale_by_zero():
    a = QExpansion({0: 1, 5: Fraction(2, 3)}, 12)
    assert scale(a, 0) == QExpansion({}, 12)
    assert scale(a, 3) == QExpansion({0: 3, 5: 2}, 12)


def test_truncation_propagates_as_minimum():
    a = QExpansion({0: 1, 30: 1}, 40)
    b = QExpansion({0: 1}, 25)
    assert add(a, b).truncation == 25
    assert 30 not in add(a, b).terms
    assert multiply(a, b).truncation == 25


def _is_clean(a: QExpansion) -> bool:
    """No zero coefficient is stored and every exponent is in [0, truncation)."""
    return all(c != 0 and 0 <= e < a.truncation for e, c in a.terms.items())


ragged_series = st.builds(
    QExpansion, st.dictionaries(st.integers(0, 2 * T), coeffs, max_size=8), st.integers(1, 2 * T)
)


@settings(max_examples=80)
@given(ragged_series, ragged_series, coeffs)
def test_results_built_without_a_copy_equal_the_constructor_s(a, b, c):
    # the dict each result is built from, passed through the checking constructor
    t = min(a.truncation, b.truncation)
    total = {e: a.terms.get(e, 0) + b.terms.get(e, 0) for e in {*a.terms, *b.terms}}
    expected = [
        (add(a, b), QExpansion(total, t)),
        (add(a, scale(a, -1)), QExpansion({}, a.truncation)),
        (scale(a, c), QExpansion({e: v * c for e, v in a.terms.items()}, a.truncation)),
    ]
    for got, want in expected:
        assert got == want and _is_clean(got)


@given(st.lists(coeffs, min_size=1, max_size=2 * T))
def test_from_column_keeps_the_nonzero_entries(column):
    a = QExpansion.from_column(column)
    assert a == QExpansion(dict(enumerate(column)), len(column))
    assert _is_clean(a)


# --- common-denominator multiply ---

# few exponents and truncations, so products collide, cancel and hit the edge
mixed_series = st.builds(
    QExpansion,
    st.dictionaries(st.integers(0, T - 1), coeffs, max_size=8),
    st.integers(1, T),
)
integral_coeffs = st.one_of(
    st.integers(-50, 50), st.integers(-50, 50).map(Fraction)
)


def naive_product(a: QExpansion, b: QExpansion) -> dict[int, Fraction]:
    t = min(a.truncation, b.truncation)
    out: dict[int, Fraction] = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            if ea + eb < t:
                out[ea + eb] = out.get(ea + eb, Fraction(0)) + Fraction(ca) * Fraction(cb)
    return {e: c for e, c in out.items() if c != 0}


@settings(max_examples=200)
@given(mixed_series, mixed_series)
def test_multiply_matches_naive_fraction_convolution(a, b):
    got = multiply(a, b)
    assert got.truncation == min(a.truncation, b.truncation)
    assert got.terms == naive_product(a, b)
    assert all(c != 0 for c in got.terms.values())


def test_multiply_cancels_to_zero_and_stops_at_truncation():
    a = QExpansion({0: Fraction(1, 2), 1: Fraction(1, 3)}, 10)
    b = QExpansion({0: Fraction(1, 2), 1: Fraction(-1, 3)}, 10)
    assert multiply(a, b).terms == {0: Fraction(1, 4), 2: Fraction(-1, 9)}
    c = QExpansion({0: Fraction(2, 3), 4: 1}, 5)
    d = QExpansion({0: Fraction(-3, 2), 1: 1, 4: Fraction(9, 4)}, 8)
    # q^4 cancels (2/3 * 9/4 - 3/2 = 0); q^5 and beyond fall past truncation 5
    assert multiply(c, d).terms == {0: -1, 1: Fraction(2, 3)}
    assert multiply(c, d).truncation == 5


@settings(max_examples=60)
@given(
    st.dictionaries(st.integers(0, T - 1), integral_coeffs, max_size=8),
    st.dictionaries(st.integers(0, T - 1), integral_coeffs, max_size=8),
)
def test_multiply_of_integral_operands_has_int_coefficients(a, b):
    got = multiply(QExpansion(a, T), QExpansion(b, T))
    assert all(type(c) is int for c in got.terms.values())
    assert got.terms == naive_product(QExpansion(a, T), QExpansion(b, T))


# --- euler_function ---


def test_euler_function_first_terms():
    e = euler_function(9)
    assert e.terms == {0: 1, 1: -1, 2: -1, 5: 1, 7: 1}


def test_euler_function_equals_literal_product():
    t = 50
    prod = QExpansion.one(t)
    for n in range(1, t + 1):
        prod = multiply(prod, QExpansion({0: 1, n: -1}, t))
    assert euler_function(t) == prod


def test_euler_inverse_is_partition_generating_series():
    t = 11
    counts = partition_counts(t - 1)
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert multiply(euler_function(t), QExpansion.from_column(counts)) == QExpansion.one(t)


def test_euler_times_partition_series_is_one_to_2400_units():
    t = 100  # q^100 is 2400 units of q^(1/24)
    partitions = QExpansion.from_column(partition_counts(t - 1))
    assert multiply(euler_function(t), partitions) == QExpansion.one(t)


def test_euler_cube_is_alternating_odd_series():
    t = 50
    euler = euler_function(t)
    cube = multiply(multiply(euler, euler), euler)
    want: dict[int, int] = {}
    n = 0
    while n * (n + 1) // 2 < t:
        want[n * (n + 1) // 2] = (2 * n + 1) * (-1 if n % 2 else 1)
        n += 1
    assert cube == QExpansion(want, t)


def test_equal_series_compare_without_listing_their_support():
    a = QExpansion({e: e * e + 1 for e in range(15000)}, 15000)
    b = QExpansion(dict(a.terms), 15000)
    tracemalloc.start()
    try:
        assert first_difference(a, b) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one sorted list of the 15,000 exponents alone takes 117 KiB
    assert peak < 16 * 1024
    c = QExpansion({**a.terms, 14999: 0}, 15000)
    assert first_difference(a, c) == (14999, str(a.terms[14999]), "0")


# --- congruent_mod ---


def test_congruent_mod_reflexive():
    a = QExpansion({0: Fraction(1, 6), 24: 5, 48: -3}, 100)
    assert congruent_mod(a, a, 7, 3) is None


def test_congruent_mod_constant_example():
    a = QExpansion({0: Fraction(1, 6)}, 1)
    b = QExpansion({0: Fraction(-1, 24)}, 1)
    assert congruent_mod(a, b, 5, 1) is None


def test_congruent_mod_reports_least_failing_exponent():
    a = QExpansion({0: 1, 24: 10, 48: 3}, 100)
    b = QExpansion({0: 1, 24: 0, 48: 4}, 100)
    assert congruent_mod(a, b, 5, 1) == (48, "3", "4")
    # Same pair passes mod 5 once the failing exponent is excluded.
    assert congruent_mod(QExpansion(a.terms, 48), b, 5, 1) is None


def test_congruent_mod_integrality_error_names_exponent():
    a = QExpansion({1: Fraction(1, 5)}, 5)
    b = QExpansion({}, 5)
    with pytest.raises(IntegralityError) as info:
        congruent_mod(a, b, 5, 1)
    assert info.value.exponent == 1
    # Coefficients with p in the denominator are fine at other primes.
    assert congruent_mod(a, a, 7, 1) is None


def test_congruent_mod_reads_columns_and_series_alike():
    # a list is a column; a QExpansion reads as one through len and [n]
    a = QExpansion({0: Fraction(1, 6), 3: 10, 5: 3}, 7)
    b = [Fraction(-1, 24), 0, 0, 5, 0, 4]
    assert congruent_mod(a, b, 5, 1) == (5, "3", "4")
    assert congruent_mod(list(a), b, 5, 1) == (5, "3", "4")
    assert congruent_mod(a, QExpansion.from_column(b), 5, 1) == (5, "3", "4")
    assert congruent_mod(a, b[:5], 5, 1) is None
    with pytest.raises(IntegralityError) as info:
        congruent_mod([1, Fraction(1, 5)], [1, 0], 5, 1)
    assert info.value.exponent == 1
    with pytest.raises(ValueError, match="modulus 4 is not prime"):
        congruent_mod(b, b, 4, 1)
    with pytest.raises(ValueError, match="power r must be >= 1, got 0"):
        congruent_mod(b, b, 5, 0)


def test_a_series_reads_as_its_column():
    a = QExpansion({0: Fraction(1, 6), 3: 10}, 5)
    assert len(a) == 5
    assert a[3] == 10 and a[1] == 0
    assert list(a) == [Fraction(1, 6), 0, 0, 10, 0]
    assert QExpansion.from_column(list(a)) == a
    with pytest.raises(TruncationError):
        a[5]


def _congruent_mod_by_valuations(a, b, p, r):
    """Reference: `congruent_mod` on the valuations of the coefficients."""
    for e, ca, cb in series._joint_coefficients(a, b):
        for c in (ca, cb):
            if c != 0 and padic_valuation(c, p) < 0:
                raise IntegralityError(e, f"coefficient {c} at exponent {e} is not {p}-integral")
        if ca != cb and padic_valuation(ca - cb, p) < r:
            return (e, str(ca), str(cb))
    return None


def _outcome(check, *args):
    try:
        return check(*args)
    except IntegralityError as error:
        return ("refused", error.exponent, str(error))


@st.composite
def _nearby_pairs(draw):
    """(a, b, p, r): b is a plus multiples of powers of p, so that both
    verdicts occur; some denominators are divisible by p."""
    p, r = draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 3))
    padic = st.builds(Fraction, st.integers(-400, 400), st.sampled_from([1, 1, 1, 2, 3, 4, 5, 9, 49]))
    a = draw(st.dictionaries(st.integers(0, 11), padic, max_size=6))
    shifts = st.builds(lambda x, k: Fraction(x * p**k), st.integers(-3, 3), st.integers(0, 4))
    delta = draw(st.dictionaries(st.integers(0, 11), shifts, max_size=4))
    b = {e: a.get(e, 0) + delta.get(e, 0) for e in {*a, *delta}}
    return QExpansion(a, 12), QExpansion(b, draw(st.integers(1, 12))), p, r


@settings(max_examples=300)
@given(_nearby_pairs())
def test_congruent_mod_matches_the_valuation_reference(case):
    assert _outcome(congruent_mod, *case) == _outcome(_congruent_mod_by_valuations, *case)


# --- the public integral-series constructors ---

_Q3_SQUARED = ShiftedSymmetricPoly({((3, 2),): 1, ((2, 1),): Fraction(-1, 24)})

CONSTRUCTORS = {
    "qbracket": lambda t: [qbracket(lambda lam: len(lam.parts), t)],
    "bracket-fast": lambda t: [normalized_qbracket(4, t)],
    "bracket-fast-p": lambda t: [normalized_qbracket(4, t, 5)],
    "bracket-fast-odd": lambda t: [normalized_qbracket(3, t)],
    "bracket-enum": lambda t: [normalized_qbracket(4, t, None, "enumerate")],
    "bracket-enum-p": lambda t: [normalized_qbracket(4, t, 5, "enumerate")],
    "correction": lambda t: [QExpansion.from_column(correction_column(2, 5, t))],
    "eisenstein-G": lambda t: [eisenstein(4, t, "G")],
    "eisenstein-E": lambda t: [eisenstein(6, t, "E")],
    "eisenstein-G_reg": lambda t: [eisenstein(2, t, "G_reg", 5)],
    "bracket-poly": lambda t: [bracket_of_polynomial(_Q3_SQUARED, t)],
    "euler": lambda t: [euler_function(t + 1)],
    "delta": lambda t: [delta(t)],
    "miller-basis": lambda t: miller_basis(24, t),
    "quasimodular-poly": lambda t: [
        poly_series(
            QuasimodularPoly({(2, 0, 0): Fraction(1, 48), (0, 1, 0): Fraction(1, 120)}, 4), t
        )
    ],
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_constructor_truncation_is_terms_plus_one(name):
    for terms in (3, 8, 13):
        for s in CONSTRUCTORS[name](terms):
            assert s.truncation == terms + 1, (name, terms)
            assert all(0 <= e <= terms for e in s.terms), (name, terms)
            s.coefficient(terms)  # q^terms is known

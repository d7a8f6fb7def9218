"""Tests for the bivariate (q, zeta) series engine: the Laurent polynomials,
the column operations, checked against the unit-grid reference of
`zetaseries_reference`, and that reference itself."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qbrackets.doublesum import _substituted_poles
from qbrackets.errors import NotAntisymmetricError, TruncationError
from qbrackets.series import QExpansion
from qbrackets.zetaseries import (
    ZetaLaurent,
    column_product,
    divide_antisymmetric,
    one_sided_pole_expansion,
)

import zetaseries_reference as reference
from series_reference import add, multiply
from zetaseries_reference import ZetaQExpansion, zeta_filter, zeta_substitute, zq_add, zq_multiply

T = 12

laurents = st.dictionaries(st.integers(-6, 6), st.integers(-5, 5), max_size=5).map(
    ZetaLaurent
)
antisym_laurents = st.dictionaries(
    st.integers(1, 6), st.integers(-5, 5), max_size=4
).map(lambda d: ZetaLaurent({**{m: c for m, c in d.items()}, **{-m: -c for m, c in d.items()}}))
zq_series = st.dictionaries(st.integers(0, T - 1), laurents, max_size=4).map(
    lambda d: ZetaQExpansion(d, T)
)
antisym_series = st.dictionaries(st.integers(0, T - 1), antisym_laurents, max_size=4).map(
    lambda d: ZetaQExpansion(d, T)
)
# series at integral q-powers (multiples of 24 units), T of them
integral_zq_series = st.dictionaries(
    st.integers(0, T - 1).map(lambda n: 24 * n), laurents, max_size=4
).map(lambda d: ZetaQExpansion(d, 24 * T))


# mixed int and Fraction coefficients, as the kernels produce them
mixed_scalars = st.one_of(
    st.integers(-5, 5), st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
)
mixed_laurents = st.dictionaries(
    st.integers(-6, 6), mixed_scalars, max_size=5
).map(ZetaLaurent)
mixed_series = st.dictionaries(st.integers(0, T - 1), mixed_laurents, max_size=4).map(
    lambda d: ZetaQExpansion(d, T)
)

# columns of the package's layer: zero entries included, as in the kernels
columns = st.lists(mixed_laurents, min_size=1, max_size=8)
antisym_columns = st.lists(antisym_laurents, min_size=1, max_size=8)


def zeta_pm(c=1):
    return ZetaLaurent.antisymmetric(1, c)


def power_moment(lau, power):
    """The sum of coefficient * exponent^power of a Laurent polynomial (0^0 = 1)."""
    return sum(c * m**power for m, c in lau.terms.items())


def taylor_extract(a, k):
    """Collapse zeta^m to m^(k-1) at every q-power of a series on whole
    q-powers (multiples of 24 units): the collapse that
    `doublesum.verify_taylor_chain` applies to each kernel coefficient."""
    assert all(e % 24 == 0 for e in a.regular)
    collapsed = {e // 24: power_moment(lau, k - 1) for e, lau in a.regular.items()}
    return QExpansion(collapsed, -(-a.truncation // 24))


# --- ZetaLaurent ---


def test_laurent_basic_algebra():
    a = ZetaLaurent({1: 1, -1: -1})
    b = ZetaLaurent({1: 1, -1: 1})
    assert a * b == ZetaLaurent({2: 1, -2: -1})
    assert a + b == ZetaLaurent({1: 2})
    assert a + -1 * a == ZetaLaurent()
    assert (a * 3).terms == {1: 3, -1: -3}
    assert ZetaLaurent.constant(0).is_zero()


def test_laurent_antisymmetry_predicate():
    assert ZetaLaurent({3: 2, -3: -2}).is_antisymmetric()
    assert ZetaLaurent().is_antisymmetric()
    assert not ZetaLaurent({3: 2, -3: 2}).is_antisymmetric()
    assert not ZetaLaurent({0: 1}).is_antisymmetric()


@given(mixed_laurents, mixed_laurents)
def test_laurent_product_matches_naive_fraction_convolution(a, b):
    naive: dict[int, Fraction] = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            naive[m1 + m2] = naive.get(m1 + m2, Fraction(0)) + Fraction(c1) * c2
    assert (a * b).terms == {m: c for m, c in naive.items() if c}


@settings(max_examples=60)
@given(mixed_series, mixed_series)
def test_zq_multiply_matches_naive_laurent_products(a, b):
    naive: dict[int, ZetaLaurent] = {}
    for ea, la in a.regular.items():
        for eb, lb in b.regular.items():
            if ea + eb < T:
                naive[ea + eb] = naive.get(ea + eb, ZetaLaurent()) + la * lb
    assert zq_multiply(a, b) == ZetaQExpansion(naive, T)


def test_laurent_filter_and_substitute():
    a = ZetaLaurent({3: 1, 5: 2, 10: 3, -5: -2})
    assert a.filter_exponents(5, "divisible").terms == {5: 2, 10: 3, -5: -2}
    assert a.filter_exponents(5, "coprime").terms == {3: 1}
    with pytest.raises(ValueError):
        a.filter_exponents(5, "both")
    substituted = zeta_substitute(ZetaQExpansion({0: a}, 1), 2, 1).regular[0]
    assert substituted.terms == {6: 1, 10: 2, 20: 3, -10: -2}


# --- construction ---


def test_zq_constructor_cleans_and_validates():
    a = ZetaQExpansion({0: zeta_pm(), 5: ZetaLaurent(), 99: zeta_pm()}, 20)
    assert a.support() == [0]
    with pytest.raises(ValueError):
        ZetaQExpansion({-1: zeta_pm()}, 10)
    with pytest.raises(ValueError):
        ZetaQExpansion({}, 0)


def test_coefficient_at_or_beyond_truncation_is_a_truncation_error():
    a = ZetaQExpansion({4: zeta_pm()}, 5)
    assert a.coefficient(4) == zeta_pm() and a.coefficient(3) == ZetaLaurent()
    for e in (5, 6):
        with pytest.raises(TruncationError):
            a.coefficient(e)
    with pytest.raises(TruncationError):
        QExpansion({}, 5).coefficient(5)


def test_coefficient_at_a_negative_exponent_is_refused_as_the_constructor_refuses_it():
    # a list column reads its last entry at -1; a series has no such entry
    a = ZetaQExpansion({0: zeta_pm(), 4: zeta_pm()}, 5)
    assert len(a) == 5 and a[4] == zeta_pm() and a[1] == ZetaLaurent()
    for read in a.coefficient, a.__getitem__:
        with pytest.raises(ValueError, match="negative q-exponent -1 is out of contract"):
            read(-1)
    with pytest.raises(TypeError, match="not iterable"):
        iter(a)


def test_from_q_roundtrip_via_taylor():
    s = QExpansion({0: 1, 1: -3, 5: Fraction(1, 2)}, 6)
    z = ZetaQExpansion.from_q([1, -3, 0, 0, 0, Fraction(1, 2)])
    assert ZetaQExpansion.from_q(s) == z  # a series reads as its column
    assert z.support() == [0, 24, 120] and z.truncation == 144
    assert taylor_extract(z, 1) == s
    # higher weights differentiate the z-constant away
    assert taylor_extract(z, 4) == QExpansion({}, 6)


def test_from_q_shift_places_q_powers_on_the_unit_grid():
    # q^(1/8) (1 - 3q): known below q^(2 + 1/8), that is 51 units
    z = ZetaQExpansion.from_q([1, -3], 3)
    assert z.regular == {3: ZetaLaurent.constant(1), 27: ZetaLaurent.constant(-3)}
    assert z.truncation == 51
    with pytest.raises(ValueError):
        ZetaQExpansion.from_q([1, 0], -1)


# --- multiplication ---


def test_zq_multiply_example():
    a = ZetaQExpansion({0: zeta_pm()}, 10)
    b = ZetaQExpansion({0: ZetaLaurent({1: 1, -1: 1})}, 10)
    got = zq_multiply(a, b)
    assert got.regular == {0: ZetaLaurent({2: 1, -2: -1})}


@settings(max_examples=40)
@given(zq_series, zq_series, zq_series)
def test_zq_ring_laws(a, b, c):
    assert zq_multiply(a, b) == zq_multiply(b, a)
    assert zq_add(a, b) == zq_add(b, a)
    assert zq_multiply(a, zq_add(b, c)) == zq_add(zq_multiply(a, b), zq_multiply(a, c))


# --- filter and substitute ---


def test_zeta_filter_example_and_partition():
    a = ZetaQExpansion(
        {0: ZetaLaurent({3: 1}), 24: ZetaLaurent({5: 1})}, 48
    )
    assert zeta_filter(a, 5, "divisible").regular == {24: ZetaLaurent({5: 1})}
    assert zeta_filter(a, 5, "coprime").regular == {0: ZetaLaurent({3: 1})}


@settings(max_examples=30)
@given(zq_series, st.sampled_from([3, 5, 7]))
def test_zeta_filter_partitions_exponents(a, p):
    assert zq_add(
        zeta_filter(a, p, "divisible"), zeta_filter(a, p, "coprime")
    ) == a


def test_zeta_substitute_examples():
    a = ZetaQExpansion({24: ZetaLaurent({1: 1})}, 30)
    got = zeta_substitute(a, 5, 25)
    assert got.regular == {600: ZetaLaurent({5: 1})}
    assert got.truncation == 750
    assert zeta_substitute(a, 1, 1) == a
    # diffexp maps the kernel's pole list alone, orderwise
    assert _substituted_poles(((1, Fraction(1, 2)),), 7) == ((7, Fraction(1, 2)),)


@settings(max_examples=30)
@given(zq_series, st.integers(1, 4), st.integers(1, 4))
def test_zeta_substitute_multiplicative_in_powers(a, zp, qp):
    twice = zeta_substitute(zeta_substitute(a, zp, qp), zp, qp)
    assert twice == zeta_substitute(a, zp * zp, qp * qp)


# --- divide_antisymmetric ---


def test_divide_antisymmetric_displayed_factorization():
    column = [ZetaLaurent({3: 1, -3: -1}), zeta_pm(), ZetaLaurent()]
    assert divide_antisymmetric(column) == [
        ZetaLaurent({2: 1, 0: 1, -2: 1}), ZetaLaurent({0: 1}), ZetaLaurent()]
    a = ZetaQExpansion({0: column[0]}, 5)
    assert reference.divide_antisymmetric(a).regular == {0: ZetaLaurent({2: 1, 0: 1, -2: 1})}


def test_divide_antisymmetric_rejects_and_names_exponent():
    # entry 1 of a series at q^(7/24) is at 31 units
    with pytest.raises(NotAntisymmetricError) as info:
        divide_antisymmetric([zeta_pm(), ZetaLaurent({2: 1})], 7)
    assert info.value.q_exponent == 31
    with pytest.raises(NotAntisymmetricError) as info:
        reference.divide_antisymmetric(ZetaQExpansion({7: ZetaLaurent({2: 1})}, 10))
    assert info.value.q_exponent == 7


@settings(max_examples=40)
@given(antisym_columns)
def test_divide_antisymmetric_multiplies_back(column):
    quotient = divide_antisymmetric(column)
    assert column_product([zeta_pm()] + [ZetaLaurent()] * len(column), quotient) == column


@settings(max_examples=60)
@given(antisym_columns, st.integers(0, 23))
def test_divide_antisymmetric_matches_the_unit_grid_reference(column, shift):
    got = ZetaQExpansion.from_column(divide_antisymmetric(column, shift), shift)
    assert got == reference.divide_antisymmetric(ZetaQExpansion.from_column(column, shift))


@settings(max_examples=60)
@given(columns, columns)
def test_column_product_matches_the_unit_grid_reference(a, b):
    got = column_product(a, b)
    assert len(got) == min(len(a), len(b))
    expected = zq_multiply(ZetaQExpansion.from_column(a), ZetaQExpansion.from_column(b))
    assert ZetaQExpansion.from_column(got) == expected


def test_column_product_truncates_to_the_shorter_column():
    a = [ZetaLaurent(), zeta_pm(), ZetaLaurent({2: 3})]
    b = [ZetaLaurent.constant(2), ZetaLaurent.constant(-1)]
    assert column_product(a, b) == [ZetaLaurent(), zeta_pm(2)]
    assert column_product(b, a) == column_product(a, b)
    assert column_product(a, []) == []


# --- taylor_extract ---


def test_taylor_extract_examples():
    # q^n is known when 24n lies below the truncation: 49 units reach q^2
    a = ZetaQExpansion({0: zeta_pm(), 48: zeta_pm(3)}, 49)
    assert taylor_extract(a, 2) == QExpansion({0: 2, 2: 6}, 3)
    # odd weight k has even power k-1: antisymmetric pairs cancel
    assert taylor_extract(a, 3) == QExpansion({}, 3)


@settings(max_examples=30)
@given(antisym_series, st.sampled_from([3, 5, 7]))
def test_taylor_extract_kills_antisymmetric_at_odd_weight(a, k):
    assert all(power_moment(lau, k - 1) == 0 for lau in a.regular.values())


@settings(max_examples=30)
@given(integral_zq_series, integral_zq_series, st.sampled_from([2, 4]))
def test_taylor_extract_linear(a, b, k):
    assert taylor_extract(zq_add(a, b), k) == add(taylor_extract(a, k), taylor_extract(b, k))


def test_taylor_extract_zeta_free_factor_acts_as_scalar_series():
    free = ZetaQExpansion.from_q(QExpansion({0: 2, 1: -1}, T))
    mixed = ZetaQExpansion({0: ZetaLaurent({3: 1, -1: 2})}, 24 * T)
    for k in (2, 3, 4):
        lhs = taylor_extract(zq_multiply(free, mixed), k)
        rhs = multiply(taylor_extract(free, 1), taylor_extract(mixed, k))
        assert lhs == rhs


# --- pole expansion consistency ---


def test_one_sided_pole_expansion_shape():
    assert one_sided_pole_expansion(1, 7).terms == {1: -1, 3: -1, 5: -1, 7: -1}
    assert one_sided_pole_expansion(5, 20).terms == {5: -1, 15: -1}


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@pytest.mark.parametrize("cap", [50, 101])
def test_pole_filter_consistency(p, cap):
    # filtering the order-1 expansion to p-divisible exponents gives the order-p one
    full = one_sided_pole_expansion(1, cap)
    assert full.filter_exponents(p, "divisible") == one_sided_pole_expansion(p, cap)


def test_one_sided_expansion_inverts_binomial():
    # (zeta - zeta^(-1)) * (-sum zeta^(2i+1)) = 1 - zeta^(2n+2) -> constant 1 below cap
    cap = 31
    prod = zeta_pm() * one_sided_pole_expansion(1, cap)
    assert prod.terms[0] == 1
    assert {m for m in prod.terms if m != 0} == {cap + 1}

"""Tests for q-brackets, the normalized weight-k series, and the correction term."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qbrackets.arith import bernoulli, legendre, regularized_bernoulli
from qbrackets.brackets import (
    FAST_GATE_TERMS,
    _collapsed_double_sum,
    correction_term,
    normalized_qbracket,
    theta_rows,
)
from qbrackets.partitions import Partition, enumerate_partitions
from qbrackets.series import QExpansion, substitute_power
from qbrackets.shifted import ShiftedSymmetricPoly, bracket_of_polynomial, qbracket

from partitions_reference import normalized_power_sum

# Published ten-term tables for weights 2 and 22, plain and regularized at 5.
WEIGHT2_PLAIN = [Fraction(-1, 24), 1, 3, 4, 7, 6, 12, 8, 15, 13]
WEIGHT2_REG5 = [Fraction(1, 6), 1, 3, -1, 7, 6, 12, 13, 0, 13]
WEIGHT22_PLAIN = [
    Fraction(-162912981133, 552),
    1,
    10460353203,
    476837158203124,
    558545864083284007,
    109418989121052006006,
    7400249944258160101212,
    247064528596613234501288,
    4987885095119476318359375,
    69091933354462879257896413,
]
WEIGHT22_REG5 = [
    Fraction(19420740739464719098414873, 138),
    1,
    10460353203,
    -1,
    558545864083284007,
    109418989121052006006,
    7400249944258160101212,
    247064529073450392704413,
    0,
    69091933354462879257896413,
]


def coefficients(series: QExpansion, terms: int) -> list:
    return [series.coefficient(n) for n in range(terms + 1)]


def correction_oracle(k: int, p: int, terms: int) -> QExpansion:
    """Brute-force double sum, written independently of the module."""
    d: dict[int, int] = {}
    for n in range(1, 2 * terms + 2):
        if n % p == 0:
            continue
        for M in range(0, terms + 1):
            num = n * n + n * p * (2 * M + 1)
            assert num % 2 == 0
            e = num // 2
            if e > terms:
                break
            d[e] = d.get(e, 0) - (-1) ** n * (2 * M + 1) ** (k - 1)
    return QExpansion(d, terms + 1)


def double_sum_loop(k: int, terms: int, p: int | None) -> QExpansion:
    """The fast bracket as a per-(n, m) loop with one power per term."""
    bern = bernoulli(k) if p is None else regularized_bernoulli(k, p)
    out = {0: -bern * (2 ** (k - 1) - 1) / (2 * k)}
    n = 1
    while n * (n + 1) // 2 <= terms:
        sign = 1 if n % 2 else -1
        e, m = n * (n + 1) // 2, 0
        while e <= terms:
            odd = 2 * m + 1
            if p is None or odd % p:
                out[e] = out.get(e, 0) + sign * odd ** (k - 1)
            m += 1
            e += n
        n += 1
    return QExpansion(out, terms + 1)


def correction_loop(k: int, p: int, terms: int) -> QExpansion:
    """The correction series as a per-(n, M) loop with one power per term."""
    out: dict[int, int] = {}
    n = 1
    while n * (n + p) <= 2 * terms:
        if n % p:
            sign = 1 if n % 2 else -1
            doubled_e, m_odd = n * (n + p), 1
            while doubled_e <= 2 * terms:
                key = doubled_e // 2
                out[key] = out.get(key, 0) + sign * m_odd ** (k - 1)
                m_odd += 2
                doubled_e += 2 * n * p
        n += 1
    return QExpansion(out, terms + 1)


# --- qbracket ---


def test_qbracket_of_one_is_one():
    assert qbracket(lambda lam: 1, 12) == QExpansion.one(13)


def test_qbracket_of_weight_one_vanishes():
    got = qbracket(lambda lam: normalized_power_sum(lam, 1), 12)
    assert got.is_zero()


def test_qbracket_weight_two_matches_published_table():
    got = qbracket(lambda lam: normalized_power_sum(lam, 2), 9)
    assert coefficients(got, 9) == WEIGHT2_PLAIN


# --- normalized series: published tables ---


@pytest.mark.parametrize("method", ["enumerate", "fast"])
def test_weight2_tables_both_methods(method):
    assert coefficients(normalized_qbracket(2, 9, None, method), 9) == WEIGHT2_PLAIN
    assert coefficients(normalized_qbracket(2, 9, 5, method), 9) == WEIGHT2_REG5


def test_weight22_tables_fast():
    assert coefficients(normalized_qbracket(22, 9, None, "fast"), 9) == WEIGHT22_PLAIN
    assert coefficients(normalized_qbracket(22, 9, 5, "fast"), 9) == WEIGHT22_REG5


def test_weight22_mod25_congruence_with_weight2():
    # The two published mod-25 statements tying weight 22 to weight 2.
    for a, b in ((WEIGHT22_PLAIN, WEIGHT2_REG5), (WEIGHT22_REG5, WEIGHT2_REG5)):
        for x, y in zip(a, b):
            diff = Fraction(x) - Fraction(y)
            assert diff.denominator % 5 and diff.numerator % 25 == 0


# --- method agreement (small slice; the full gate runs in the acceptance suite) ---


@pytest.mark.parametrize("p", [None, 5])
@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_fast_agrees_with_enumeration(k, p):
    assert normalized_qbracket(k, 15, p, "fast") == normalized_qbracket(
        k, 15, p, "enumerate"
    )


@pytest.mark.parametrize("p", [None, 5, 7])
@pytest.mark.parametrize("k", [2, 4, 8])
def test_fast_agrees_with_frobenius_counting_to_200_terms(k, p):
    # "enumerate" reads the counted Frobenius-pair histograms, which share
    # nothing with the theta-style double sum
    assert normalized_qbracket(k, 200, p, "enumerate") == normalized_qbracket(k, 200, p)


@pytest.mark.parametrize("method", ["enumerate", "fast"])
def test_odd_weights_vanish(method):
    for k in (3, 5):
        assert normalized_qbracket(k, 10, None, method).is_zero()
        assert normalized_qbracket(k, 10, 5, method).is_zero()


def test_nonconstant_coefficients_are_integers():
    for k in (2, 6, 12):
        s = normalized_qbracket(k, 20, None, "fast")
        for e, c in s.terms.items():
            if e:
                assert Fraction(c).denominator == 1


def test_normalized_qbracket_validates_input():
    with pytest.raises(ValueError):
        normalized_qbracket(0, 5)
    with pytest.raises(ValueError):
        normalized_qbracket(2, -1)
    with pytest.raises(ValueError):
        normalized_qbracket(2, 5, 6)
    with pytest.raises(ValueError):
        normalized_qbracket(2, 5, None, "adaptive")


def test_fast_gate_bound_is_pinned():
    # The acceptance suite exercises the oracle gate exactly to this bound.
    assert FAST_GATE_TERMS == 30


# --- the regularization identity and the correction term ---


@pytest.mark.parametrize("k,p,terms", [(2, 5, 60), (4, 3, 40), (2, 7, 50)])
def test_regularization_identity(k, p, terms):
    plain = normalized_qbracket(k, terms, None, "fast")
    reg = normalized_qbracket(k, terms, p, "fast")
    inner = substitute_power(
        normalized_qbracket(k, -(-terms // p**2), None, "fast"), p * p
    )
    rhs = plain - p ** (k - 1) * inner.truncated(plain.truncation) - p ** (
        k - 1
    ) * correction_term(k, p, terms)
    assert reg == rhs


@pytest.mark.parametrize("k,p,terms", [(2, 5, 40), (4, 7, 60), (2, 3, 30), (6, 5, 35)])
def test_correction_term_against_oracle(k, p, terms):
    assert correction_term(k, p, terms) == correction_oracle(k, p, terms)


@pytest.mark.parametrize("p", [None, 3, 5, 7, 11])
@pytest.mark.parametrize("k", [2, 4, 12])
def test_power_table_double_sum_matches_per_term_loop(k, p):
    for terms in (0, 1, 2, 3, 5, 8, 40, 333):
        assert normalized_qbracket(k, terms, p) == double_sum_loop(k, terms, p)


@pytest.mark.parametrize("p", [3, 5, 7, 13])
@pytest.mark.parametrize("k", [2, 6, 12])
def test_power_table_correction_matches_per_term_loop(k, p):
    for terms in (0, 1, 2, 3, 4, 5, 6, 7, 8, 13, 14, 15, 97, 500):
        assert correction_term(k, p, terms) == correction_loop(k, p, terms)


def theta_terms_brute_force(s: int, terms: int) -> list[tuple[int, int, int]]:
    """(q-power, sign, s(2m+1)) of every (n, m) term through q^terms, by
    direct enumeration of n(n + s(2m+1))/2 over n prime to s."""
    out = []
    for n in range(1, terms + 1):
        if gcd(n, s) != 1:
            continue
        for m in range(terms + 1):
            odd = s * (2 * m + 1)
            if n * (n + odd) > 2 * terms:
                break
            out.append((n * (n + odd) // 2, -((-1) ** n), odd))
    return out


@pytest.mark.parametrize("s", [1, 3, 5, 7])
@pytest.mark.parametrize("terms", [0, 1, 2, 10, 100])
def test_theta_rows_match_brute_force_terms(s, terms):
    expanded = [
        (e, sign, s * (2 * m + 1))
        for sign, first, step in theta_rows(s, terms)
        for m, e in enumerate(range(first, terms + 1, step))
    ]
    assert sorted(expanded) == sorted(theta_terms_brute_force(s, terms))
    # every row reaches q^terms, and no (q-power, s(2m+1)) pair repeats
    assert all(first <= terms for _, first, _ in theta_rows(s, terms))
    pairs = [(e, odd) for e, _, odd in expanded]
    assert len(set(pairs)) == len(pairs)


def double_sum_by_terms(s: int, terms: int, powers: list[int]) -> list[int]:
    """The double sum with x_m = powers[m] through q^terms, one (n, m) term at
    a time: -(-1)^n x_m at q^(n(n+s)/2 + m n s) for n prime to s."""
    acc = [0] * (terms + 1)
    for n in range(1, terms + 1):
        if gcd(n, s) != 1:
            continue
        for m, x in enumerate(powers):
            e = n * (n + s) // 2 + m * n * s
            if e > terms:
                break
            acc[e] -= (-1) ** n * x
    return acc


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 5, 7, 11]), st.integers(0, 300), st.randoms(use_true_random=False))
def test_collapsed_double_sum_matches_the_per_term_loop(s, terms, rng):
    # signed values of up to 200 bits, as many as the longest row reads
    count = terms if s == 1 else terms // s + 1
    powers = [rng.randrange(-(2**200), 2**200) for _ in range(count)]
    want = double_sum_by_terms(s, terms, powers)
    consumed = list(powers)
    assert _collapsed_double_sum(s, terms, consumed) == want
    # the kernel cuts the list it is given to the rows it still has to read,
    # so at the end it holds what the last, shortest row read
    rows = list(theta_rows(s, terms))
    if rows:
        _, first, step = rows[-1]
        assert consumed == powers[: (terms - first) // step + 1]


def test_correction_term_first_coefficients():
    got = correction_term(2, 5, 30)
    want = {3: 1, 7: -1, 8: 3, 12: 1, 13: 5, 17: -3, 18: 6, 23: 9, 27: -2, 28: 11}
    assert got.terms == want


def test_correction_term_support_legendre_class():
    for k, p in ((2, 5), (4, 7)):
        target = legendre(2, p)
        s = correction_term(k, p, 200)
        assert not s.is_zero()
        for e in s.terms:
            assert 0 < e < s.truncation
            assert legendre(e, p) == target


def test_correction_term_validates_input():
    with pytest.raises(ValueError):
        correction_term(3, 5, 10)
    with pytest.raises(ValueError):
        correction_term(2, 2, 10)
    with pytest.raises(ValueError):
        correction_term(2, 9, 10)


# --- polynomial brackets ---


def test_poly_constructors_and_algebra():
    q2 = ShiftedSymmetricPoly.generator(2)
    q3 = ShiftedSymmetricPoly.generator(3)
    poly = q3 * q3 - Fraction(1, 24) * q2
    assert poly.gradings() == (2, 6)
    assert poly.weight() == 6
    assert not poly.is_homogeneous()
    assert (q3**2).is_homogeneous()
    assert (q2 + q3 - q3) == q2
    assert ShiftedSymmetricPoly.constant(0).weight() == 0


def test_poly_evaluate():
    lam = Partition([4, 3, 1])
    q2 = ShiftedSymmetricPoly.generator(2)
    assert q2.evaluate(lam) == Fraction(191, 24)
    assert (q2 * q2).evaluate(lam) == Fraction(191, 24) ** 2
    assert ShiftedSymmetricPoly.constant(7).evaluate(lam) == 7
    five = ShiftedSymmetricPoly.generator(1)
    assert five.evaluate(lam) == 0


def _reference_value(poly, lam, p=None):
    """poly at lam from the Fraction-valued generators, term by term."""
    total = Fraction(0)
    for mono, coeff in poly.terms.items():
        v = Fraction(coeff)
        for i, e in mono:
            v *= normalized_power_sum(lam, i, p) ** e
        total += v
    return total


@pytest.mark.parametrize("p", [None, 2, 3, 5, 7])
def test_poly_evaluate_matches_generator_values(p):
    # the integer row-form evaluation against the diagonal reference
    polys = [
        ShiftedSymmetricPoly({((2, 1), (3, 1)): 1}),
        ShiftedSymmetricPoly({((3, 2),): 1, ((2, 1),): Fraction(-1, 24)}),
        ShiftedSymmetricPoly(
            {((1, 2), (4, 1)): Fraction(2, 3), ((6, 1),): Fraction(5, 7), (): -3}
        ),
    ]
    for poly in polys:
        for n in range(9):
            for lam in enumerate_partitions(n):
                assert poly.evaluate(lam, p) == _reference_value(poly, lam, p), (poly, lam)


def test_poly_evaluate_rejects_composite_modulus():
    with pytest.raises(ValueError):
        ShiftedSymmetricPoly.generator(2).evaluate(Partition([2]), 6)


def test_poly_rejects_bad_monomials():
    with pytest.raises(ValueError):
        ShiftedSymmetricPoly.generator(0)
    with pytest.raises(ValueError):
        ShiftedSymmetricPoly({((0, 1),): 1})
    with pytest.raises(ValueError):
        ShiftedSymmetricPoly({((2, 1), (2, 3)): 1})


def test_bracket_of_polynomial_consistency():
    q2 = ShiftedSymmetricPoly.generator(2)
    got = bracket_of_polynomial(q2, 9)
    assert got == normalized_qbracket(2, 9, None, "enumerate")
    one = ShiftedSymmetricPoly.constant(1)
    assert bracket_of_polynomial(one, 8) == QExpansion.one(9)


@pytest.mark.parametrize(
    "poly",
    [
        ShiftedSymmetricPoly({((2, 1), (3, 1)): 1}),
        ShiftedSymmetricPoly({((2, 1),): 1, ((4, 1),): 1}),
        ShiftedSymmetricPoly({((3, 2),): 1, ((2, 1),): Fraction(-1, 24)}),
        ShiftedSymmetricPoly.constant(5),
        ShiftedSymmetricPoly({((1, 2), (4, 1)): Fraction(2, 3), ((6, 1),): 1, (): -3}),
    ],
    ids=["Q2*Q3", "Q2+Q4", "Q3^2-Q2/24", "constant", "fraction-coefficient"],
)
def test_bracket_of_polynomial_integer_sums_match_partition_evaluation(poly):
    want = qbracket(lambda lam: _reference_value(poly, lam), 20)
    assert bracket_of_polynomial(poly, 20) == want


def test_bracket_of_polynomial_rejects_negative_terms():
    with pytest.raises(ValueError):
        bracket_of_polynomial(ShiftedSymmetricPoly.generator(2), -1)

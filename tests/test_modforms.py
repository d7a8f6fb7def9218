"""Tests for Eisenstein series, echelon bases, decomposition, and filtration."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from qbrackets import modforms
from qbrackets.arith import bernoulli, is_prime
from qbrackets.brackets import normalized_qbracket
from qbrackets.cli import run
from qbrackets.errors import (
    IntegralityError,
    InternalError,
    NotQuasimodularError,
    TruncationError,
)
from qbrackets.modforms import (
    QuasimodularPoly,
    _bracket_closed_form,
    _packed_multiply,
    _PowerLadder,
    bracket_decomposition,
    dim_modular,
    eisenstein,
    eisenstein_column,
    filtration,
    quasimodular_monomials,
)
from qbrackets.series import QExpansion, congruent_mod, euler_function, multiply

from modforms_reference import (
    delta,
    eisenstein_by_series,
    leading_g2_coefficient,
    miller_basis,
    poly_series,
    quasi_decompose,
    reduces_to_zero_mod_p,
)

DELTA_POLY = QuasimodularPoly(
    {(0, 3, 0): Fraction(1, 1728), (0, 0, 2): Fraction(-1, 1728)}, 12
)


def coefficients(series, terms):
    return [series.coefficient(n) for n in range(terms + 1)]


def sigma(power, n, p=None):
    return sum(
        d**power for d in range(1, n + 1) if n % d == 0 and (p is None or d % p)
    )


# --- Eisenstein series ---


def test_eisenstein_g2_table():
    assert coefficients(eisenstein(2, 5, "G"), 5) == [Fraction(-1, 24), 1, 3, 4, 7, 6]


def test_eisenstein_normalized_constants():
    assert coefficients(eisenstein(4, 2, "E"), 2) == [1, 240, 2160]
    assert eisenstein(6, 1, "E").coefficient(1) == -504
    assert eisenstein(2, 1, "E").coefficient(1) == -24


def test_eisenstein_divisor_coefficients():
    for k in (2, 4, 8):
        g = eisenstein(k, 12, "G")
        for n in range(1, 13):
            assert g.coefficient(n) == sigma(k - 1, n)


def test_eisenstein_regularized_is_definitional_and_has_coprime_sigma():
    for k, p in ((2, 5), (4, 7)):
        greg = eisenstein(k, 20, "G_reg", p)
        g = eisenstein(k, 20, "G")
        want_const = g.coefficient(0) * (1 - p ** (k - 1))
        assert greg.coefficient(0) == want_const
        for n in range(1, 21):
            assert greg.coefficient(n) == sigma(k - 1, n, p)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 4, 6, 8, 10, 12, 14, 16, 22]), st.integers(0, 150),
       st.sampled_from([("G", None), ("E", None), ("G_reg", 2), ("G_reg", 3), ("G_reg", 5),
                        ("G_reg", 7), ("G_reg", 11)]))
def test_eisenstein_column_matches_the_series_formula(k, terms, variant_and_prime):
    variant, p = variant_and_prime
    want = eisenstein_by_series(k, terms, variant, p)
    column = eisenstein_column(k, terms, variant, p)
    assert column == [want.coefficient(n) for n in range(terms + 1)]
    # every coefficient past the constant stays an int while the scale is one
    if variant != "E" or (2 * k / bernoulli(k)).denominator == 1:
        assert all(type(c) is int for c in column[1:])
    assert eisenstein(k, terms, variant, p) == want


def test_eisenstein_validates():
    with pytest.raises(ValueError):
        eisenstein(3, 5)
    with pytest.raises(ValueError):
        eisenstein(0, 5)
    with pytest.raises(ValueError):
        eisenstein(2, 5, "G_reg")
    with pytest.raises(ValueError):
        eisenstein(2, 5, "G_reg", 6)
    with pytest.raises(ValueError):
        eisenstein(2, 5, "E", 5)
    with pytest.raises(ValueError):
        eisenstein(2, 5, "H")


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_weight_p_minus_1_is_one_mod_p(p):
    # to the Sturm-type bound of weight p-1
    terms = (p - 1) // 12 + 2
    e = eisenstein(p - 1, terms, "E")
    one = QExpansion.one(e.truncation)
    assert congruent_mod(e, one, p, 1) is None


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_weight_2_matches_weight_p_plus_1_mod_p(p):
    terms = 30
    a = eisenstein(2, terms, "E")
    b = eisenstein(p + 1, terms, "E")
    assert congruent_mod(a, b, p, 1) is None


# --- delta ---


def test_delta_first_coefficients():
    d = delta(3)
    assert coefficients(d, 3) == [0, 1, -24, 252]


def test_delta_is_eta_product():
    t = 25
    d = delta(24)
    eta24 = multiply(QExpansion({1: 1}, t), euler_function(t) ** 24)
    assert d == eta24


# --- dimensions and Miller bases ---


def test_dim_modular_small_table():
    want = {0: 1, 2: 0, 4: 1, 6: 1, 8: 1, 10: 1, 12: 2, 14: 1, 24: 3, 26: 2}
    for w, d in want.items():
        assert dim_modular(w) == d
    assert dim_modular(-4) == 0
    assert dim_modular(3) == 0


def test_miller_basis_edges():
    b0 = miller_basis(0, 3)
    assert len(b0) == 1 and coefficients(b0[0], 3) == [1, 0, 0, 0]
    assert miller_basis(2, 3) == []


def test_miller_basis_weight_12():
    b = miller_basis(12, 3)
    assert coefficients(b[0], 3) == [1, 0, 196560, 16773120]
    assert coefficients(b[1], 3) == [0, 1, -24, 252]


@pytest.mark.parametrize("w", [4, 12, 24, 36, 48, 60, 72])
def test_miller_basis_echelon_property(w):
    d = dim_modular(w)
    basis = miller_basis(w, d + 3)
    assert len(basis) == d
    for i, b in enumerate(basis):
        for n in range(d):
            assert b.coefficient(n) == (1 if n == i else 0)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
@pytest.mark.parametrize("w", [12, 24, 48, 72])
def test_miller_basis_is_p_integral(w, p):
    # pivots survive reduction: all coefficients integers here
    for b in miller_basis(w, dim_modular(w) + 2):
        for c in b.terms.values():
            assert Fraction(c).denominator % p != 0


def test_miller_basis_truncation_error():
    with pytest.raises(TruncationError):
        miller_basis(24, 1)
    with pytest.raises(ValueError):
        miller_basis(7, 5)


# --- quasimodular decomposition ---


def test_quasimodular_monomials_weights():
    assert quasimodular_monomials(2) == [(1, 0, 0)]
    assert set(quasimodular_monomials(6)) == {(3, 0, 0), (1, 1, 0), (0, 0, 1)}
    for w in range(0, 16, 2):
        for a, b, c in quasimodular_monomials(w):
            assert 2 * a + 4 * b + 6 * c == w


def test_quasi_decompose_weight_2():
    got = quasi_decompose(normalized_qbracket(2, 9), 2, margin=2)
    assert got.terms == {(1, 0, 0): Fraction(-1, 24)}


def test_quasi_decompose_weight_4():
    got = quasi_decompose(normalized_qbracket(4, 40), 4, margin=3)
    assert got.terms == {(2, 0, 0): Fraction(1, 48), (0, 1, 0): Fraction(1, 120)}


def test_quasi_decompose_eisenstein_is_trivial():
    got = quasi_decompose(eisenstein(4, 6, "E"), 4, margin=2)
    assert got.terms == {(0, 1, 0): 1}


def test_quasi_decompose_roundtrip():
    for k in (6, 8):
        s = normalized_qbracket(k, 25)
        d = quasi_decompose(s, k, margin=4)
        assert poly_series(d, 25) == s


def test_quasi_decompose_rational_coefficients_roundtrip():
    # non-integral target: Bareiss runs on the target cleared by lcm 2 * 3 * 5 * 7 * 11
    poly = QuasimodularPoly(
        {
            (6, 0, 0): Fraction(1, 7),
            (3, 0, 1): Fraction(-5, 6),
            (2, 2, 0): Fraction(3, 11),
            (0, 3, 0): Fraction(-2, 5),
            (0, 0, 2): 4,
        },
        12,
    )
    s = poly_series(poly, 20)
    assert any(Fraction(c).denominator > 1 for c in s.terms.values())
    d = quasi_decompose(s, 12, margin=3)
    assert d == poly
    assert poly_series(d, 20) == s


def test_quasi_decompose_detects_non_quasimodular():
    s = normalized_qbracket(4, 30)
    bad = s + QExpansion({10: 1}, s.truncation)
    with pytest.raises(NotQuasimodularError) as info:
        quasi_decompose(bad, 4, margin=3)
    assert info.value.exponent == 10


def test_quasi_decompose_needs_enough_coefficients():
    with pytest.raises(TruncationError):
        quasi_decompose(normalized_qbracket(4, 1), 4, margin=1)
    with pytest.raises(ValueError):
        quasi_decompose(normalized_qbracket(4, 10), 4, margin=0)


def test_quasi_decompose_reports_a_singular_monomial_matrix_as_a_bug(monkeypatch):
    # an E2 series that vanishes leaves the weight-2 column without a pivot
    monkeypatch.setattr(
        modforms, "eisenstein", lambda k, terms, variant="G", p=None: QExpansion.zero(terms + 1)
    )
    with pytest.raises(InternalError, match="singular"):
        quasi_decompose(normalized_qbracket(2, 9), 2)


# --- the closed form of the bracket ---


def _bracket_depth(k):
    """The bracket of weight k on the coefficients the command line decomposes."""
    return normalized_qbracket(k, len(quasimodular_monomials(k)) + 3)


@pytest.mark.parametrize("k", range(2, 47, 2))
def test_closed_form_equals_bareiss(k):
    s = _bracket_depth(k)
    assert bracket_decomposition(s, k) == quasi_decompose(s, k)


def test_closed_form_leading_e2_coefficient_to_weight_100():
    # the top E2 coefficient from the recurrence alone, against the closed form
    for k in range(2, 101, 2):
        num, den = _bracket_closed_form(k)
        got, want = leading_g2_coefficient(
            QuasimodularPoly({m: Fraction(v, den) for m, v in num.items()}, k)
        )
        assert got == want, k


@pytest.mark.parametrize("k", [2, 4, 12, 24])
def test_closed_form_rejects_a_skewed_bracket_at_the_skewed_exponent(k):
    s = _bracket_depth(k)
    for n in (0, 1, s.truncation // 2, s.truncation - 1):
        with pytest.raises(NotQuasimodularError) as info:
            bracket_decomposition(s + QExpansion({n: Fraction(1, 7)}, s.truncation), k)
        assert info.value.exponent == n


def test_closed_form_refusals_match_bareiss():
    for terms in (0, 1):
        s = normalized_qbracket(4, terms)
        errors = []
        for decompose in (bracket_decomposition, quasi_decompose):
            with pytest.raises(TruncationError) as info:
                decompose(s, 4)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert errors[0] == f"need 3 coefficients to decompose at weight 4, have {terms + 1}"
    # odd brackets vanish, and a polynomial of odd weight does not exist
    with pytest.raises(ValueError, match="non-negative even integer, got 3"):
        bracket_decomposition(normalized_qbracket(3, 6), 3)
    with pytest.raises(NotQuasimodularError):
        bracket_decomposition(QExpansion({2: 1}, 6), 3)
    for weight in (0, -2):
        with pytest.raises(ValueError, match="weight >= 1"):
            bracket_decomposition(QExpansion({0: 1}, 6), weight)


# --- leading coefficient closed form ---


def test_leading_g2_coefficient_closed_form():
    for k, n in ((2, 9), (4, 20), (6, 25)):
        d = quasi_decompose(normalized_qbracket(k, n), k, margin=3)
        got, want = leading_g2_coefficient(d)
        assert got == want
    # pinned expected values
    assert leading_g2_coefficient(quasi_decompose(normalized_qbracket(2, 9), 2))[1] == Fraction(-1, 24)
    assert leading_g2_coefficient(quasi_decompose(normalized_qbracket(4, 9), 4))[1] == Fraction(1, 48)
    assert leading_g2_coefficient(quasi_decompose(normalized_qbracket(6, 9), 6))[1] == Fraction(-5, 216)


# --- filtration ---


def test_filtration_examples():
    d2 = quasi_decompose(normalized_qbracket(2, 9), 2, margin=2)
    assert filtration(d2, 5) == 6
    assert filtration(QuasimodularPoly({(0, 1, 0): 1}, 4), 5) == 0
    assert filtration(DELTA_POLY, 5) == 12
    assert filtration(DELTA_POLY, 7) == 12
    d4 = quasi_decompose(normalized_qbracket(4, 20), 4, margin=3)
    assert filtration(d4, 7) == 16


def test_filtration_zero_mod_p():
    scaled = QuasimodularPoly({(0, 1, 0): 5}, 4)
    assert filtration(scaled, 5) == 0
    assert reduces_to_zero_mod_p(scaled, 5)
    assert not reduces_to_zero_mod_p(DELTA_POLY, 5)


def test_filtration_congruent_to_lift_weight_mod_p_minus_1():
    for k, p in ((2, 5), (2, 7), (4, 7)):
        d = quasi_decompose(normalized_qbracket(k, 20), k, margin=3)
        w = filtration(d, p)
        assert (k * (p + 1) // 2 - w) % (p - 1) == 0


def _reference_filtration(d, p):
    """Filtration by the rational path, sharing no code with the mod-p lift:
    the lift is built over Q from the public Eisenstein series, reduced mod p
    here, and matched against a fresh public miller_basis per weight."""
    k = d.weight
    lifted_weight = k * (p + 1) // 2
    rows = lifted_weight // 12 + 2  # Sturm-type comparison bound
    e = {w: eisenstein(w, rows - 1, "E") for w in (4, 6, p - 1, p + 1)}
    lifted = QExpansion.zero(rows)
    for (a, b, c), coeff in d.terms.items():
        mono = e[4] ** b * e[6] ** c * e[p + 1] ** a * e[p - 1] ** (k // 2 - a)
        lifted = lifted + coeff * mono

    def mod_p(c):
        f = Fraction(c)
        return f.numerator * pow(f.denominator, -1, p) % p

    target = [mod_p(lifted.coefficient(n)) for n in range(rows)]
    if not any(target):
        return 0
    for w in range(lifted_weight % (p - 1), lifted_weight + 1, p - 1):
        combo = [0] * rows
        for i, basis in enumerate(miller_basis(w, rows - 1)):
            for n in range(rows):
                c = mod_p(basis.coefficient(n))
                combo[n] = (combo[n] + target[i] * c) % p
        if combo == target:
            return w
    raise AssertionError("no weight matched")


THM_C_PAIRS = [
    (p, k)
    for p in (5, 7, 11, 13, 17, 19, 23, 29)
    for k in range(2, p, 2)
    if k % (p - 1)
]


@pytest.mark.parametrize("p, k", THM_C_PAIRS)
def test_filtration_shared_ladder_matches_fresh_basis_per_weight(p, k):
    d = quasi_decompose(normalized_qbracket(k, len(quasimodular_monomials(k)) + 3), k)
    assert filtration(d, p) == _reference_filtration(d, p) == k * (p + 1) // 2


def test_filtration_validates():
    d = QuasimodularPoly({(0, 1, 0): Fraction(1, 5)}, 4)
    with pytest.raises(IntegralityError):
        filtration(d, 5)
    with pytest.raises(ValueError):
        filtration(DELTA_POLY, 3)
    with pytest.raises(ValueError, match=r"^filtration needs a prime >= 5, got 9$"):
        filtration(DELTA_POLY, 9)


# --- the Kronecker-packed product mod p ---


def _naive_product(a, b, p):
    return [sum(a[i] * b[n - i] for i in range(n + 1)) % p for n in range(len(a))]


def _prime_at_most(n):
    while not is_prime(n):
        n -= 1
    return n


def _largest_packable_prime(rows):
    """The largest prime p with rows * (p-1)^2 < 2^64."""
    return _prime_at_most(isqrt(((1 << 64) - 1) // rows) + 1)


@st.composite
def _packed_operands(draw):
    rows = draw(st.integers(1, 120))
    top = _largest_packable_prime(rows)
    p = draw(st.one_of(
        st.sampled_from([5, 7, 11, 47, top]),
        st.integers(5, top).map(_prime_at_most),
    ))
    residues = st.one_of(
        st.just([0] * rows),
        st.just([p - 1] * rows),
        st.lists(st.integers(0, p - 1), min_size=rows, max_size=rows),
    )
    return draw(residues), draw(residues), p


@given(_packed_operands())
def test_packed_product_is_the_truncated_convolution_mod_p(operands):
    a, b, p = operands
    assert _packed_multiply(a, b, p) == _naive_product(a, b, p)


@pytest.mark.parametrize("rows", [1, 2, 61, 120])
def test_packed_product_at_the_slot_bound(rows):
    p = _largest_packable_prime(rows)
    top = [p - 1] * rows  # every product slot reaches rows * (p-1)^2 at its last entry
    assert _packed_multiply(top, top, p) == _naive_product(top, top, p)
    assert _PowerLadder(rows - 1, p).modulus == p
    beyond = p + 1
    while not is_prime(beyond):
        beyond += 1
    with pytest.raises(ValueError, match="64-bit"):
        _PowerLadder(rows - 1, beyond)


def test_ladder_eisenstein_scale_is_the_exact_one_mod_p():
    # the ladder takes the scale of E_w mod p from w mod p - 1; the reference
    # reduces the exact -2w/B_w, which is 0 mod p when p - 1 divides w
    for p in range(5, 200):
        if not is_prime(p):
            continue
        ladder = _PowerLadder(1, p)
        for w in (4, 6, p - 1, p + 1):
            exact = Fraction(-2 * w) / bernoulli(w)
            assert exact.denominator % p
            want = exact.numerator * pow(exact.denominator, -1, p) % p
            assert ladder.power(w, 1)[1] == want, (p, w)


def test_filtration_refuses_a_prime_whose_products_overflow_a_slot(capsys):
    # the lift at p = 2^31 - 1 would need about 10^9 rows; the guard refuses it first
    p = 2**31 - 1
    with pytest.raises(ValueError, match="64-bit"):
        filtration(DELTA_POLY, p)
    with pytest.raises(ValueError, match="64-bit"):
        reduces_to_zero_mod_p(DELTA_POLY, p)
    assert run(["filtration", "--k", "2", "--p", str(p)]) == 2
    assert "64-bit" in capsys.readouterr().err


# --- QuasimodularPoly type ---


def test_quasimodular_poly_validates_homogeneity():
    with pytest.raises(ValueError):
        QuasimodularPoly({(1, 1, 0): 1}, 4)
    with pytest.raises(ValueError):
        QuasimodularPoly({(-1, 0, 1): 1}, 4)
    with pytest.raises(ValueError):
        QuasimodularPoly({}, 3)
    p = QuasimodularPoly({(2, 0, 0): 0, (0, 1, 0): 2}, 4)
    assert p.terms == {(0, 1, 0): 2}
    assert p.coefficient((2, 0, 0)) == 0

"""Tests for exact scalar arithmetic.

Bernoulli values are checked against an independent Akiyama-Tanigawa oracle
and the binomial recurrence the package used before Seidel's triangle,
the totient reference and legendre against brute-force definitions, and the classical
von Staudt-Clausen and Kummer congruence properties over fixed grids.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from math import comb, gcd, inf
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qbrackets import arith, brackets, correction, doublesum, jacobi, modforms, shifted
from qbrackets.arith import (
    bernoulli,
    is_prime,
    legendre,
    padic_valuation,
    regularized_bernoulli,
    require_terms,
)

from arith_reference import totient


def bernoulli_akiyama_tanigawa(n: int) -> Fraction:
    """Independent oracle: Akiyama-Tanigawa transform of 1/(m+1)."""
    row = [Fraction(1, m + 1) for m in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(n + 1 - i):
            row[j] = (j + 1) * (row[j] - row[j + 1])
    return row[0]


def bernoulli_binomial_recurrence(n: int) -> list[Fraction]:
    """B_0, B_2, ..., B_n (n even) from sum_{j<=m} C(m+1, j) B_j = 0 restricted
    to even indices, with B_1 = -1/2."""
    even = [Fraction(1)]
    while len(even) <= n // 2:
        m = 2 * len(even)
        s = Fraction(m + 1, -2)  # B_1 term: C(m+1, 1) * (-1/2)
        for j, b in enumerate(even):
            s += comb(m + 1, 2 * j) * b
        even.append(-s / (m + 1))
    return even


def totient_naive(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def squares_mod(p: int) -> set[int]:
    return {a * a % p for a in range(1, p)}


# --- Bernoulli numbers ---


@pytest.mark.parametrize("k", range(0, 62, 2))
def test_bernoulli_matches_akiyama_tanigawa(k):
    assert bernoulli(k) == bernoulli_akiyama_tanigawa(k)


def test_bernoulli_matches_the_binomial_recurrence_through_300():
    assert [bernoulli(k) for k in range(0, 301, 2)] == bernoulli_binomial_recurrence(300)


def test_bernoulli_1000_satisfies_von_staudt_clausen():
    # the binomial recurrence takes seconds here; the denominator of B_1000 is
    # the product of the primes p with (p - 1) | 1000
    b = bernoulli(1000)
    primes = [p for p in range(2, 1002) if is_prime(p) and 1000 % (p - 1) == 0]
    assert b < 0 and (b + sum(Fraction(1, p) for p in primes)).denominator == 1
    assert bernoulli(1000) is b


def test_bernoulli_pinned_values():
    assert bernoulli(0) == 1
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(10) == Fraction(5, 66)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(22) == Fraction(854513, 138)


def test_bernoulli_rejects_odd_and_negative():
    for k in (-2, -1, 1, 3, 11):
        with pytest.raises(ValueError):
            bernoulli(k)


def test_bernoulli_constant_term_combination():
    # -B_k (2^(k-1) - 1) / (2k): the constant term of the weight-k bracket series.
    assert -bernoulli(2) * (2**1 - 1) / 4 == Fraction(-1, 24)
    assert -bernoulli(22) * (2**21 - 1) / 44 == Fraction(-162912981133, 552)


def test_regularized_bernoulli_values():
    assert regularized_bernoulli(2, 5) == Fraction(-2, 3)
    assert regularized_bernoulli(2, 7) == -1
    assert regularized_bernoulli(22, 5) == (1 - 5**21) * Fraction(854513, 138)
    # Denominator can keep a single factor of p when (p-1) | k.
    assert padic_valuation(regularized_bernoulli(4, 5), 5) == -1


def test_regularized_bernoulli_constant_term_combination():
    got = -regularized_bernoulli(22, 5) * (2**21 - 1) / 44
    assert got == Fraction(19420740739464719098414873, 138)


def test_regularized_bernoulli_rejects_bad_input():
    with pytest.raises(ValueError):
        regularized_bernoulli(2, 6)
    with pytest.raises(ValueError):
        regularized_bernoulli(3, 5)
    with pytest.raises(ValueError):
        regularized_bernoulli(0, 5)


@pytest.mark.parametrize("k", range(2, 62, 2))
def test_von_staudt_clausen(k):
    # B_k plus sum of 1/p over primes with (p-1) | k is an integer.
    s = bernoulli(k) + sum(
        Fraction(1, p) for p in range(2, k + 2) if is_prime(p) and k % (p - 1) == 0
    )
    assert s.denominator == 1


@pytest.mark.parametrize("p", [5, 7, 11, 13])
@pytest.mark.parametrize("r", [1, 2])
def test_kummer_congruence(p, r):
    # (1 - p^(k-1)) B_k / k is constant mod p^r on even k in a fixed residue
    # class mod (p-1)p^(r-1), away from k = 0 mod (p-1).
    modulus = (p - 1) * p ** (r - 1)
    for k in range(2, 121, 2):
        k2 = k + modulus
        if k % (p - 1) == 0:
            continue
        a = regularized_bernoulli(k, p) / k
        b = regularized_bernoulli(k2, p) / k2
        assert padic_valuation(a - b, p) >= r, (p, r, k)


# --- primality ---


def test_is_prime_small_range():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(-3, 2000):
        assert is_prime(n) == trial(n), n


def test_is_prime_larger_values():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)
    assert is_prime(10**18 + 9)
    # Carmichael number.
    assert not is_prime(561)
    assert is_prime(2**61 - 1)


# psi_12 and psi_13, the least composites that pass Miller-Rabin to the first
# 12 and 13 prime bases (Sorenson and Webster, Math. Comp. 86, 2017)
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_rejects_the_least_strong_pseudoprime_to_twelve_bases():
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_prime(PSI_12)


def test_is_prime_refuses_to_decide_from_its_bound_on():
    # psi_13 passes all 13 bases, so no answer at or beyond it would be sound
    assert PSI_13 == 1287836182261 * 2575672364521
    assert not is_prime(PSI_13 - 1)  # even
    for n in (PSI_13, PSI_13 + 2, 10**30):
        with pytest.raises(ValueError, match=f"decided only below {PSI_13}, got {n}"):
            is_prime(n)


# --- totient (the reference of the closed form at prime powers) ---


@pytest.mark.parametrize("n", list(range(1, 120)))
def test_totient_naive_oracle(n):
    assert totient(n) == totient_naive(n)


def test_totient_prime_powers():
    assert totient(1) == 1
    assert totient(5**3) == 100
    assert totient(2 * 3 * 5 * 7) == 1 * 2 * 4 * 6


def test_totient_rejects_nonpositive():
    with pytest.raises(ValueError):
        totient(0)


@given(st.integers(1, 500), st.integers(1, 500))
def test_totient_multiplicative(a, b):
    if gcd(a, b) == 1:
        assert totient(a * b) == totient(a) * totient(b)


# --- Legendre symbol ---


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_legendre_against_square_table(p):
    sq = squares_mod(p)
    for a in range(-p, 2 * p):
        want = 0 if a % p == 0 else (1 if a % p in sq else -1)
        assert legendre(a, p) == want


def test_legendre_of_two_by_residue_class():
    # (2/p) = 1 exactly when p = +-1 mod 8.
    for p in [7, 17, 23, 31]:
        assert legendre(2, p) == 1
    for p in [3, 5, 11, 13, 19, 29]:
        assert legendre(2, p) == -1


def test_legendre_rejects_non_odd_prime():
    for p in (2, 9, 15):
        with pytest.raises(ValueError):
            legendre(3, p)


@given(st.integers(-50, 50), st.integers(-50, 50), st.sampled_from([3, 5, 7, 11, 13]))
def test_legendre_multiplicative(a, b, p):
    assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


# --- p-adic valuation ---


def test_padic_valuation_examples():
    assert padic_valuation(48, 2) == 4
    assert padic_valuation(48, 3) == 1
    assert padic_valuation(Fraction(5, 27), 3) == -3
    assert padic_valuation(Fraction(-250, 3), 5) == 3
    assert padic_valuation(0, 7) == inf


@given(
    st.integers(-10**6, 10**6),
    st.integers(1, 10**6),
    st.sampled_from([2, 3, 5, 7, 11]),
)
def test_padic_valuation_additive_on_products(num, den, p):
    x = Fraction(num, den)
    if x != 0:
        assert padic_valuation(x * p, p) == padic_valuation(x, p) + 1
        assert padic_valuation(x * x, p) == 2 * padic_valuation(x, p)


def padic_valuation_through_fraction(x, p):
    """The definition `padic_valuation` had before it read int and Fraction
    values directly: every value converted to a Fraction first."""
    x = Fraction(x)
    if x == 0:
        return inf

    def _vp(n: int) -> int:
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    return _vp(abs(x.numerator)) - _vp(x.denominator)


@given(
    st.one_of(
        st.integers(-10**9, 10**9),
        st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**9)),
    ),
    st.sampled_from([2, 3, 5, 7, 11, 13]),
)
def test_padic_valuation_matches_the_fraction_definition(x, p):
    got = padic_valuation(x, p)
    assert got == padic_valuation_through_fraction(x, p)
    assert type(got) is type(padic_valuation_through_fraction(x, p))


_VALUATION_AT_BASE = """
import sys
from fractions import Fraction
from qbrackets.arith import padic_valuation
for x in (12, Fraction(-5, 3), 0):
    try:
        padic_valuation(x, int(sys.argv[1]))
    except ValueError as exc:
        print(exc)
"""


@pytest.mark.parametrize("p", [1, -1, 0])
def test_padic_valuation_refuses_a_base_below_2(p):
    # in a child process with a timeout, so that a valuation loop that never
    # ends (every power of 1 and -1 divides every integer) fails this test
    # instead of stalling the suite
    env = dict(os.environ, PYTHONPATH=str(Path(arith.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _VALUATION_AT_BASE, str(p)], env=env,
                          capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"p-adic valuation needs a base >= 2, got {p}\n" * 3


# every entry point below the checkers that takes a term count, and the two
# checkers that read the double-sum stream, which must refuse when called,
# not when read; with arguments that pass every check made before the term
# count's
_TERM_COUNT_ENTRY_POINTS = {
    "arith.require_terms": require_terms,
    "brackets.normalized_qbracket": lambda t: brackets.normalized_qbracket(2, t),
    "brackets.normalized_qbracket-enumerate": lambda t: brackets.normalized_qbracket(
        2, t, 5, "enumerate"),
    "brackets.bracket_column": lambda t: brackets.bracket_column(4, t, 7),
    "correction.correction_column": lambda t: correction.correction_column(2, 5, t),
    "jacobi.partition_zeta_sum": lambda t: jacobi.partition_zeta_sum(t, 5),
    "jacobi.theta1_doubled": jacobi.theta1_doubled,
    "jacobi._doubled_kernel": lambda t: jacobi._doubled_kernel(t, 5),
    "doublesum.verify_diffexp": lambda t: doublesum.verify_diffexp(5, t),
    "doublesum.verify_taylor_chain": lambda t: doublesum.verify_taylor_chain(4, t, 7),
    "shifted.qbracket": lambda t: shifted.qbracket(lambda lam: 1, t),
    "modforms.eisenstein": lambda t: modforms.eisenstein(4, t, "G_reg", 5),
    "modforms.eisenstein_column": lambda t: modforms.eisenstein_column(6, t, "E", None),
}


@pytest.mark.parametrize("call", _TERM_COUNT_ENTRY_POINTS.values(), ids=_TERM_COUNT_ENTRY_POINTS)
def test_every_entry_point_refuses_a_negative_term_count_with_one_message(call):
    with pytest.raises(ValueError) as refused:
        call(-1)
    assert str(refused.value) == "term count must be >= 0, got -1"
    call(0)  # the same arguments with a valid count are accepted

"""Tests for partition enumeration, diagonal coordinates, and signed power sums."""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import pytest

from qbrackets.partitions import (
    FrobeniusCoords,
    Partition,
    beta,
    c_multiset,
    diagonal_counts,
    enumerate_partitions,
    frobenius,
    normalized_power_sum,
    signed_power_sum,
)
from qbrackets.series import euler_function, invert


def beta_oracle(kmax: int) -> list[Fraction]:
    """Independent oracle: Taylor coefficients of (z/2)/sinh(z/2) by series inversion.

    sinh(z/2)/(z/2) = sum_i z^(2i) / (4^i (2i+1)!); invert that unit series.
    """
    a = [Fraction(0)] * (kmax + 1)
    for i in range(0, kmax // 2 + 1):
        a[2 * i] = Fraction(1, 4**i * factorial(2 * i + 1))
    b = [Fraction(0)] * (kmax + 1)
    b[0] = Fraction(1)
    for n in range(1, kmax + 1):
        b[n] = -sum(a[j] * b[n - j] for j in range(1, n + 1))
    return b


# --- Partition basics ---


def test_partition_normalizes_and_validates():
    assert Partition([1, 3, 2]).parts == (3, 2, 1)
    assert Partition().size == 0
    assert Partition([4, 3, 1]).size == 8
    with pytest.raises(ValueError):
        Partition([3, 0])


def test_conjugate():
    assert Partition([4, 3, 1]).conjugate() == Partition([3, 2, 2, 1])
    assert Partition().conjugate() == Partition()
    for n in range(10):
        for lam in enumerate_partitions(n):
            assert lam.conjugate().conjugate() == lam


# --- enumeration ---


def test_enumerate_partitions_small():
    assert list(enumerate_partitions(0)) == [Partition()]
    got = [lam.parts for lam in enumerate_partitions(5)]
    assert got == [
        (5,),
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]


def test_enumerate_partitions_is_reverse_lex_and_complete():
    for n in range(1, 16):
        seen = [lam.parts for lam in enumerate_partitions(n)]
        assert all(sum(p) == n for p in seen)
        assert len(set(seen)) == len(seen)
        assert seen == sorted(seen, reverse=True)


def test_enumerate_partitions_counts_match_generating_series():
    gen = invert(euler_function(31))
    for n in (5, 12, 30):
        count = sum(1 for _ in enumerate_partitions(n))
        assert count == gen.coefficient(n)


# --- Frobenius coordinates and the doubled multiset ---


def test_frobenius_worked_example():
    assert frobenius(Partition([4, 3, 1])) == FrobeniusCoords(2, (3, 1), (2, 0))


def test_frobenius_edge_cases():
    assert frobenius(Partition()) == FrobeniusCoords(0, (), ())
    for n in (1, 2, 7):
        assert frobenius(Partition([n])) == FrobeniusCoords(1, (n - 1,), (0,))
        assert frobenius(Partition([1] * n)) == FrobeniusCoords(1, (0,), (n - 1,))


def test_frobenius_size_identity_up_to_20():
    for n in range(21):
        for lam in enumerate_partitions(n):
            r, arms, legs = frobenius(lam)
            assert lam.size == r + sum(arms) + sum(legs)
            assert list(arms) == sorted(arms, reverse=True) and len(set(arms)) == r
            assert list(legs) == sorted(legs, reverse=True) and len(set(legs)) == r


def test_c_multiset_examples_and_shape():
    assert c_multiset(Partition([4, 3, 1])) == (-5, -1, 3, 7)
    assert c_multiset(Partition()) == ()
    for n in range(13):
        for lam in enumerate_partitions(n):
            ds = c_multiset(lam)
            assert all(d % 2 for d in ds)
            assert len(set(ds)) == len(ds)
            assert sum(1 for d in ds if d > 0) == sum(1 for d in ds if d < 0)


# --- per-size diagonal counts (Frobenius-pair enumeration) ---


def _reference_histogram(
    multisets: list[tuple[int, ...]], p: int | None = None
) -> dict[int, int]:
    """h_n[d] aggregated over the Partition-based doubled multisets of size n."""
    hist: dict[int, int] = {}
    for doubled in multisets:
        for d in doubled:
            if p is None or d % p:
                hist[d] = hist.get(d, 0) + (1 if d > 0 else -1)
    return hist


@pytest.mark.parametrize("n", range(26))
def test_diagonal_counts_match_partition_reference(n):
    counts = diagonal_counts(n)
    multisets = [c_multiset(lam) for lam in enumerate_partitions(n)]
    assert counts.partitions == len(multisets)
    assert len(counts.arms) == len(counts.legs) == n
    for p in (None, 3, 5, 7):
        assert dict(counts.signed(p)) == _reference_histogram(multisets, p), p


def test_diagonal_counts_count_every_partition():
    gen = invert(euler_function(41))
    for n in range(41):
        assert diagonal_counts(n).partitions == gen.coefficient(n), n


def test_diagonal_counts_rejects_negative_size():
    with pytest.raises(ValueError):
        diagonal_counts(-1)


def test_partition_caches_are_bounded():
    maxsize = diagonal_counts.cache_info().maxsize
    assert maxsize is not None and maxsize > 0


# --- signed power sums ---


def test_signed_power_sum_examples():
    lam = Partition([4, 3, 1])
    assert signed_power_sum(lam, 1) == 8
    assert signed_power_sum(lam, 1, 5) == Fraction(11, 2)
    assert signed_power_sum(Partition(), 4) == 0


def test_first_power_sum_is_size():
    for n in range(13):
        for lam in enumerate_partitions(n):
            assert signed_power_sum(lam, 1) == n
            assert signed_power_sum(lam, 0) == 0


def test_conjugation_negates_even_power_sums():
    # Conjugation flips the sign of every diagonal coordinate.
    for n in range(13):
        for lam in enumerate_partitions(n):
            mu = lam.conjugate()
            for k in (0, 2, 4):
                assert signed_power_sum(lam, k) + signed_power_sum(mu, k) == 0
            for k in (1, 3):
                assert signed_power_sum(lam, k) == signed_power_sum(mu, k)


def test_regularized_equals_plain_when_no_multiple_of_p():
    for n in range(11):
        for lam in enumerate_partitions(n):
            ds = c_multiset(lam)
            if all(d % 7 for d in ds):
                for k in range(5):
                    assert signed_power_sum(lam, k, 7) == signed_power_sum(lam, k)


def test_signed_power_sum_rejects_bad_input():
    with pytest.raises(ValueError):
        signed_power_sum(Partition([2]), -1)
    with pytest.raises(ValueError):
        signed_power_sum(Partition([2]), 1, 6)


# --- beta ---


def test_beta_matches_series_inversion_oracle():
    oracle = beta_oracle(24)
    for k in range(25):
        assert beta(k) == oracle[k], k


def test_beta_examples():
    assert beta(0) == 1
    assert beta(2) == Fraction(-1, 24)
    assert beta(2, 5) == Fraction(1, 6)
    assert beta(3) == 0
    assert beta(0, 5) == Fraction(4, 5)


def test_beta_rejects_bad_input():
    with pytest.raises(ValueError):
        beta(-2)
    with pytest.raises(ValueError):
        beta(2, 4)


# --- normalized power sums ---


def test_normalized_power_sum_constant_cases():
    lam = Partition([3, 1])
    assert normalized_power_sum(lam, 0) == 1
    assert normalized_power_sum(lam, 0, 5) == Fraction(4, 5)
    assert normalized_power_sum(lam, 0, 7) == Fraction(6, 7)


def test_normalized_power_sum_weight_one_vanishes():
    for n in range(11):
        for lam in enumerate_partitions(n):
            assert normalized_power_sum(lam, 1) == 0


def test_normalized_power_sum_weight_two_is_size_shift():
    for n in range(16):
        for lam in enumerate_partitions(n):
            assert normalized_power_sum(lam, 2) == n - Fraction(1, 24)


def test_normalized_power_sum_worked_example():
    assert normalized_power_sum(Partition([4, 3, 1]), 2) == Fraction(191, 24)
    assert normalized_power_sum(Partition(), 6) == beta(6)

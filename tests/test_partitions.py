"""Tests for partition enumeration, diagonal coordinates, and signed power sums."""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import given, settings, strategies as st

from qbrackets.partitions import (
    DiagonalCounts,
    Partition,
    beta,
    diagonal_counts,
    enumerate_partitions,
    times_euler,
)
from qbrackets.series import QExpansion
from qbrackets.shifted import ShiftedSymmetricPoly, bracket_of_polynomial

from partitions_reference import (
    FrobeniusCoords,
    c_multiset,
    conjugate,
    doubled_signed_power,
    frobenius,
    normalized_power_sum,
    partition_counts,
    signed_power_sum,
)
from series_reference import euler_function, multiply


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
    assert conjugate(Partition([4, 3, 1])) == Partition([3, 2, 2, 1])
    assert conjugate(Partition()) == Partition()
    for n in range(10):
        for lam in enumerate_partitions(n):
            assert conjugate(conjugate(lam)) == lam


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


def test_enumerate_partitions_lists_validated_partitions():
    for n in range(12):
        for lam in enumerate_partitions(n):
            assert lam == Partition(lam.parts) and lam.size == Partition(lam.parts).size == n


def test_enumerate_partitions_counts_match_generating_series():
    counts = partition_counts(30)
    for n in (5, 12, 30):
        count = sum(1 for _ in enumerate_partitions(n))
        assert count == counts[n]


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


# --- diagonal counts (Frobenius-pair counting) against enumeration ---


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


@functools.lru_cache(maxsize=None)
def _strict_sets(size: int, total: int, below: int) -> tuple[tuple[int, ...], ...]:
    """Sets of `size` distinct integers in [0, below) summing to `total`."""
    if size == 0:
        return ((),) if total == 0 else ()
    return tuple(
        rest + (top,)
        for top in range(min(below - 1, total), size - 2, -1)
        for rest in _strict_sets(size - 1, total - top, top)
    )


def _frobenius_walk_reference(n: int) -> tuple[int, dict[int, int], dict[int, int]]:
    """Partition count and arm and leg histograms of size n, visiting every
    Frobenius pair (A, B), |A| = |B| = r, n = r + sum(A) + sum(B), once."""
    count = 0 if n else 1
    arms: dict[int, int] = {}
    legs: dict[int, int] = {}
    r = 1
    while r * r <= n:
        for arm_sum in range(n - r + 1):
            leg_sets = _strict_sets(r, n - r - arm_sum, n)
            for arm_set in _strict_sets(r, arm_sum, n):
                for leg_set in leg_sets:
                    count += 1
                    for a in arm_set:
                        arms[a] = arms.get(a, 0) + 1
                    for b in leg_set:
                        legs[b] = legs.get(b, 0) + 1
        r += 1
    return count, arms, legs


@pytest.mark.parametrize("n", range(41))
def test_diagonal_counts_match_partition_reference(n):
    counts = diagonal_counts(40)[n]
    assert len(counts.arms) == n
    if n <= 25:
        multisets = [c_multiset(lam) for lam in enumerate_partitions(n)]
        assert counts.partitions == len(multisets)
        for p in (None, 3, 5, 7):
            reference = _reference_histogram(multisets, p)
            # conjugation: every arm length occurs as often as the same leg length
            assert all(reference[-d] == -h for d, h in reference.items() if d > 0)
            assert dict(counts.signed(p)) == reference, p
        return
    count, arms, legs = _frobenius_walk_reference(n)
    assert arms == legs
    assert counts.partitions == count
    for p in (None, 3, 5, 7):
        reference = {}
        for a, h in arms.items():
            if p is None or (2 * a + 1) % p:
                reference[2 * a + 1] = h
                reference[-(2 * a + 1)] = -legs[a]
        assert dict(counts.signed(p)) == reference, p


def test_diagonal_counts_count_every_partition():
    counts = partition_counts(40)
    table = diagonal_counts(40)
    assert len(table) == 41
    for n in range(41):
        assert table[n].partitions == counts[n], n


def test_diagonal_counts_tables_agree_on_their_common_sizes():
    # the slot width grows with the table, so a short table is built
    # with narrower slots than a long one
    assert diagonal_counts(60)[:31] == diagonal_counts(30)
    assert diagonal_counts(0) == (DiagonalCounts(1, ()),)


def test_diagonal_counts_rejects_negative_size():
    with pytest.raises(ValueError):
        diagonal_counts(-1)


def test_partition_caches_are_bounded():
    maxsize = diagonal_counts.cache_info().maxsize
    assert maxsize is not None and maxsize > 0
    for terms in range(maxsize + 3):
        diagonal_counts(terms)
    assert diagonal_counts.cache_info().currsize == maxsize


# --- signed power sums ---


@pytest.mark.parametrize("power", range(6))
def test_partition_sums_read_power_sums_off_the_rows(power):
    # Q_{power+1} = S / (2^power power!) + beta, with S the doubled signed
    # power sum that the evaluator reads off the rows; check S against the diagonal
    numerator, denominator = ShiftedSymmetricPoly({((power + 1, 1),): 1})._evaluator()
    for n in range(17):
        for lam in enumerate_partitions(n):
            value = Fraction(numerator(lam), denominator)
            got = (value - beta(power + 1)) * 2**power * factorial(power)
            assert got == doubled_signed_power(c_multiset(lam), power), lam
    constant = [7, 0, 0, 0]  # 7 times p(n), times the Euler function
    assert bracket_of_polynomial(ShiftedSymmetricPoly({(): 7}), 3) == constant


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
            mu = conjugate(lam)
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


# --- the Euler pass ---


def _by_dict_product(column):
    """The reference: the column's series times the Euler function, by the
    sparse dict product."""
    return list(multiply(QExpansion.from_column(column), euler_function(len(column))))


_fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=60)
euler_columns = st.one_of(
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=300),
    st.lists(st.one_of(_fractions, st.integers(-50, 50)), min_size=1, max_size=300),
    st.builds(lambda n, zero: [zero] * n, st.integers(1, 300), st.sampled_from([0, Fraction(0)])),
)


@settings(max_examples=150, deadline=None)
@given(euler_columns)
def test_the_euler_pass_matches_the_dict_product_string_for_string(column):
    got = times_euler(column)
    want = _by_dict_product(column)
    assert got == want
    assert list(map(str, got)) == list(map(str, want))
    if all(c.denominator == 1 for c in column):
        assert all(type(c) is int for c in got)


def test_three_euler_passes_give_jacobi_s_cube_through_q_2000():
    terms = 2000
    cube = [1] + [0] * terms
    for _ in range(3):
        cube = times_euler(cube)
    want = [0] * (terms + 1)
    n = 0
    while n * (n + 1) // 2 <= terms:
        want[n * (n + 1) // 2] = -(2 * n + 1) if n % 2 else 2 * n + 1
        n += 1
    assert cube == want


def _pass_with_one_sign_flipped(column, flipped):
    """A copy of `times_euler` whose shift by the pentagonal number `flipped`
    carries the wrong sign."""
    den = lcm(*(c.denominator for c in column))
    numerators = [c.numerator * (den // c.denominator) for c in column]
    out = numerators[:]
    j = 1
    while (shift := j * (3 * j - 1) // 2) < len(out):
        for e in shift, shift + j:
            op = operator.sub if (j % 2) != (e == flipped) else operator.add
            out[e:] = map(op, out[e:], numerators)
        j += 1
    return out if den == 1 else [Fraction(v, den) for v in out]


@pytest.mark.parametrize("flipped", [1, 2, 5, 7, 12, 15, 22, 26])
def test_a_pass_with_one_pentagonal_sign_flipped_disagrees_with_the_reference(flipped):
    column = [1] + [0] * 30
    assert _pass_with_one_sign_flipped(column, -1) == _by_dict_product(column)
    assert _pass_with_one_sign_flipped(column, flipped) != _by_dict_product(column)

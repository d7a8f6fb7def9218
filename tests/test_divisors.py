"""The divisor-power sieves of `divisors` against the naive divisor double loop."""

import pytest
from hypothesis import example, given, settings, strategies as st

from qbrackets.divisors import sigma_table


def naive_sigma_table(power, terms):
    """sigma_power(n) for n = 0..terms: every divisor d added to each multiple of it."""
    table = [0] * (terms + 1)
    for d in range(1, terms + 1):
        for n in range(d, terms + 1, d):
            table[n] += d**power
    return table


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 13), st.integers(0, 3000))
@example(0, 0)
@example(3, 1)
@example(13, 2)
@example(5, 1024)
@example(1, 2187)
def test_the_multiplicative_sieve_is_the_divisor_sum(power, terms):
    assert sigma_table(power, terms) == naive_sigma_table(power, terms)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 13), st.integers(0, 3000), st.sampled_from([5, 7, 37, 10007]))
@example(4, 0, 7)
@example(4, 1, 7)
@example(4, 2, 7)
@example(12, 2187, 13)
def test_the_residue_sieve_is_the_divisor_sum_mod_its_prime(power, terms, mod):
    got = sigma_table(power, terms, mod)
    assert [x % mod for x in got] == [x % mod for x in naive_sigma_table(power, terms)]
    # a sum of residues, one per divisor, never an exact power
    assert all(0 <= x <= n * (mod - 1) for n, x in enumerate(got))


@pytest.mark.parametrize("terms", [0, 1, 2, 17, 60])
def test_the_residue_sieve_at_a_large_power(terms):
    # the power p - 2 of `filtration --p 10007`: exact powers of ~10^4 digits
    # here, reduced only at the end
    p = 10007
    want = [x % p for x in naive_sigma_table(p - 2, terms)]
    assert [x % p for x in sigma_table(p - 2, terms, p)] == want

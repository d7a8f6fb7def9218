"""The divisor-power sieve of `divisors` against the naive divisor double loop."""

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

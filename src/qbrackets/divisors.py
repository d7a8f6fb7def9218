"""Divisor-power sums and the Eisenstein columns read off them.

sigma_s(n), the sum of d^s over the divisors d of n, is multiplicative, so the
exact table is built one prime power at a time: q = p^a rescales every entry
at a multiple of q from sigma_s(p^(a-1)) to sigma_s(p^a), one slice update
each.  This layer imports only `arith`, so `compute eisenstein` writes its
column without the series layer.
"""

from __future__ import annotations

from itertools import compress, repeat
from math import isqrt
from operator import floordiv, mul

from .arith import bernoulli, is_prime, require_terms


def sigma_table(power: int, terms: int) -> list[int]:
    """sigma_power(n) for n = 0..terms (index 0 unused)."""
    table = [0] + [1] * terms
    primes = bytearray([1]) * (terms + 1)
    primes[:2] = bytes(min(2, terms + 1))
    for n in range(2, isqrt(terms) + 1):
        if primes[n]:
            primes[n * n::n] = bytes(len(range(n * n, terms + 1, n)))
    for p in compress(range(terms + 1), primes):
        q, below, top, step = p, 1, 1, p**power
        while q <= terms:
            top *= step
            sigma = below + top  # sigma(p^a) from sigma(p^(a-1))
            rest = table[q::q] if below == 1 else map(floordiv, table[q::q], repeat(below))
            table[q::q] = map(mul, rest, repeat(sigma))
            q, below = q * p, sigma
    return table


def eisenstein_column(k: int, terms: int, variant: str, p: int | None) -> list:
    """Dense coefficients of q^0 .. q^terms of the weight-k Eisenstein series.

    "G": constant -B_k/2k, divisor-power coefficients.
    "E": constant 1 (G rescaled by -2k/B_k).
    "G_reg": G minus p^(k-1) G(p tau); drops p-divisible divisors from sigma.
    """
    if k < 2 or k % 2:
        raise ValueError(f"Eisenstein weight must be even and >= 2, got {k}")
    require_terms(terms)
    if variant == "G_reg":
        if p is None or not is_prime(p):
            raise ValueError(f"regularized variant needs a prime, got {p}")
    elif p is not None:
        raise ValueError(f"variant {variant!r} takes no prime")
    elif variant not in ("G", "E"):
        raise ValueError(f"unknown variant {variant!r}")
    column = sigma_table(k - 1, terms)
    constant = -bernoulli(k) / (2 * k)
    if variant == "E":  # G divided by its constant
        factor = 1 / constant
        if factor.denominator == 1:  # k = 2..10 and 14: the coefficients stay int
            factor = factor.numerator
        for e in range(1, terms + 1):  # in place: each old value is freed at once
            column[e] *= factor
        constant = 1
    column[0] = constant
    if variant == "G_reg":
        # G(p tau) has G's coefficient m at q^(m p): subtract p^(k-1) times it
        power = p ** (k - 1)
        column[::p] = [g - power * c for g, c in zip(column[::p], column)]
    return column

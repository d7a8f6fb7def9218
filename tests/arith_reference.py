"""References for scalar arithmetic that only the tests use.

`totient` is Euler's phi of any n >= 1 by trial-division factorization.
The package needs phi only at prime powers, where `theorems.check_thm_a`
and `check_thm_b` use the closed form phi(p^r) = (p - 1) p^(r - 1); the
tests check that closed form against this reference.
"""

from __future__ import annotations


def totient(n: int) -> int:
    """Euler's totient of n >= 1, by trial-division factorization."""
    if n < 1:
        raise ValueError(f"totient needs n >= 1, got {n}")
    result = m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            result -= result // d
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        result -= result // m
    return result

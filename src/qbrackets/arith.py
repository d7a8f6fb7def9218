"""Exact scalar arithmetic: Bernoulli numbers, totient, Legendre symbol, p-adic valuation.

Every value is an exact ``fractions.Fraction`` (or int); no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import inf

__all__ = [
    "is_prime",
    "bernoulli",
    "regularized_bernoulli",
    "totient",
    "legendre",
    "padic_valuation",
]

# Cache of even-index Bernoulli numbers B_0, B_2, B_4, ..., and the last row
# of Seidel's triangle they were read from (row 0 is 1)
_BERNOULLI_EVEN: list[Fraction] = [Fraction(1)]
_SEIDEL_ROW = [1]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for n < 3.3e24 with the fixed base set)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if not n % p:
            return False
    d = n - 1
    s = 0
    while not d % 2:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_terms(terms: int) -> None:
    """Refuse a negative term count, with the one message every layer gives."""
    if terms < 0:
        raise ValueError(f"term count must be >= 0, got {terms}")


def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k in the convention with B_2 = 1/6.

    Only even k (and k = 0) are in contract; odd k is rejected.  Computed in
    integers: row 2i of Seidel's triangle starts 0, T_i, where T_i is the i-th
    tangent number, and B_2i = (-1)^(i-1) 2i T_i / (4^i (4^i - 1)) (Brent and
    Harvey, "Fast computation of Bernoulli, Tangent and Secant numbers", 2011).
    """
    if k < 0 or k % 2:
        raise ValueError(f"bernoulli is defined here for even k >= 0, got {k}")
    m = k // 2
    while len(_BERNOULLI_EVEN) <= m:
        i = len(_BERNOULLI_EVEN)
        for _ in range(2):  # each row: 0, then the partial sums of the last one reversed
            _SEIDEL_ROW[:] = accumulate(reversed(_SEIDEL_ROW), initial=0)
        _BERNOULLI_EVEN.append(Fraction(2 * i * _SEIDEL_ROW[1], (-4) ** i * (1 - 4**i)))
    return _BERNOULLI_EVEN[m]


def regularized_bernoulli(k: int, p: int) -> Fraction:
    """(1 - p^(k-1)) * B_k, the Euler-factor-removed Bernoulli value at the prime p."""
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if k < 2 or k % 2:
        raise ValueError(f"regularized Bernoulli value needs even k >= 2, got {k}")
    return (1 - p ** (k - 1)) * bernoulli(k)


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


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p; values in {-1, 0, 1}."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"Legendre symbol needs an odd prime, got {p}")
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def padic_valuation(x: Fraction | int, p: int) -> int | float:
    """v_p of a rational: valuation of numerator minus valuation of denominator.

    Returns +infinity for x = 0, so `padic_valuation(x, p) >= r` reads as
    `x = 0 mod p^r` uniformly.  A base below 2 is refused: every power of 1
    and -1 divides every integer, and 0 divides none but 0.
    """
    if p < 2:
        raise ValueError(f"p-adic valuation needs a base >= 2, got {p}")
    if x == 0:
        return inf

    def _vp(n: int) -> int:
        v = 0
        while not n % p:
            n //= p
            v += 1
        return v

    return _vp(x.numerator) - _vp(x.denominator)

"""References for the partition layer that only the tests use.

`conjugate` transposes a Young diagram, `signed_power_sum` is the signed
power sum of a partition's half-integer diagonal coordinates, and
`normalized_power_sum` the distinguished shifted-symmetric evaluation Q_k
built from it, one partition at a time; the package sums these in integers
over all partitions of a size instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from qbrackets.arith import is_prime
from qbrackets.partitions import Partition, beta, c_multiset, doubled_signed_power


def conjugate(lam: Partition) -> Partition:
    parts = lam.parts
    if not parts:
        return Partition()
    return Partition(
        sum(1 for x in parts if x >= j) for j in range(1, parts[0] + 1)
    )


def signed_power_sum(lam: Partition, k: int, p: int | None = None) -> Fraction:
    """Signed k-th power sum of the half-integer diagonal coordinates.

    With p given, coordinates whose doubled value is divisible by p are dropped.
    """
    if k < 0:
        raise ValueError(f"power must be >= 0, got {k}")
    if p is not None and not is_prime(p):
        raise ValueError(f"regularization modulus {p} is not prime")
    return Fraction(doubled_signed_power(c_multiset(lam), k, p), 2**k)


def normalized_power_sum(lam: Partition, k: int, p: int | None = None) -> Fraction:
    """The k-th distinguished shifted-symmetric evaluation.

    k = 0 gives the constant 1 (or 1 - 1/p regularized); otherwise the signed
    (k-1)-st power sum over (k-1)! plus beta_k.
    """
    if k < 0:
        raise ValueError(f"index must be >= 0, got {k}")
    if k == 0:
        if p is None:
            return Fraction(1)
        if not is_prime(p):
            raise ValueError(f"regularization modulus {p} is not prime")
        return 1 - Fraction(1, p)
    return signed_power_sum(lam, k - 1, p) / factorial(k - 1) + beta(k, p)

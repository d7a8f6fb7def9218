"""References for the partition layer that only the tests use.

`frobenius` reads a partition's arm and leg lengths off its diagonal,
`c_multiset` doubles them into distinct odd integers, and
`doubled_signed_power` takes their signed power sum.  `conjugate`
transposes a Young diagram, `signed_power_sum` is the signed power sum of a
partition's half-integer diagonal coordinates, and `normalized_power_sum`
the distinguished shifted-symmetric evaluation Q_k built from it, one
partition at a time.  The package reads the same power sums off a
partition's rows instead (`ShiftedSymmetricPoly.evaluate`), or sums them in
integers over all partitions of a size without listing any.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import factorial
from typing import NamedTuple

from qbrackets.arith import is_prime
from qbrackets.partitions import Partition, beta


class FrobeniusCoords(NamedTuple):
    r: int  # Durfee square side
    arms: tuple[int, ...]  # strictly decreasing, >= 0
    legs: tuple[int, ...]  # strictly decreasing, >= 0


def frobenius(lam: Partition) -> FrobeniusCoords:
    """Arm/leg lengths along the main diagonal of the Young diagram."""
    parts = lam.parts
    r = 0
    while r < len(parts) and parts[r] > r:
        r += 1
    arms = tuple(parts[i] - i - 1 for i in range(r))
    # leg_i = (number of parts >= i) - i, counted on the descending list
    neg = [-x for x in parts]
    legs = tuple(bisect_right(neg, -i) - i for i in range(1, r + 1))
    return FrobeniusCoords(r, arms, legs)


def c_multiset(lam: Partition) -> tuple[int, ...]:
    """Doubled diagonal coordinates: 2a_i + 1 and -(2b_i + 1), sorted ascending.

    All entries are odd and distinct, with equally many of each sign.
    """
    r, arms, legs = frobenius(lam)
    return tuple(sorted([-(2 * b + 1) for b in legs] + [2 * a + 1 for a in arms]))


def doubled_signed_power(doubled: tuple[int, ...], k: int, p: int | None = None) -> int:
    """sum of sign(d) * d^k over the doubled multiset, skipping p | d when p is given."""
    s = 0
    for d in doubled:
        if p is not None and d % p == 0:
            continue
        s += d**k if d > 0 else -(d**k)
    return s


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

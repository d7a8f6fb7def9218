"""Partitions, diagonal (arm/leg) coordinates, and the evaluations fed to q-brackets.

Each partition yields a multiset of half-integers (the hook-diagonal coordinates);
to stay in integer arithmetic, the multiset is stored doubled, as distinct odd
integers whose signs split evenly.  The signed power sums of those half-integers,
their factorial normalizations, and the sinh-Taylor constants beta_k are the
per-partition quantities every bracket computation consumes.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterable, Iterator, NamedTuple

from .arith import bernoulli, is_prime

__all__ = [
    "Partition",
    "FrobeniusCoords",
    "enumerate_partitions",
    "frobenius",
    "c_multiset",
    "DiagonalCounts",
    "diagonal_counts",
    "doubled_signed_power",
    "signed_power_sum",
    "beta",
    "normalized_power_sum",
]


class Partition:
    """Integer partition: weakly decreasing positive parts."""

    __slots__ = ("parts", "size")

    def __init__(self, parts: Iterable[int] = ()):
        p = tuple(parts)
        if any(x < 1 for x in p):
            raise ValueError(f"parts must be positive integers, got {p}")
        if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
            p = tuple(sorted(p, reverse=True))
        self.parts = p
        self.size = sum(p)

    def conjugate(self) -> "Partition":
        parts = self.parts
        if not parts:
            return Partition()
        return Partition(
            sum(1 for x in parts if x >= j) for j in range(1, parts[0] + 1)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __len__(self):
        return len(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


class FrobeniusCoords(NamedTuple):
    r: int  # Durfee square side
    arms: tuple[int, ...]  # strictly decreasing, >= 0
    legs: tuple[int, ...]  # strictly decreasing, >= 0


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, reverse-lexicographically, starting from (n)."""
    if n < 0:
        raise ValueError(f"cannot partition {n}")
    if n == 0:
        yield Partition()
        return
    a = [n]
    while True:
        yield Partition(a)
        # rightmost part above 1; everything after it is a run of 1s
        k = len(a) - 1
        while k >= 0 and a[k] == 1:
            k -= 1
        if k < 0:
            return
        x = a[k] - 1
        rem = a[k] + (len(a) - 1 - k) - x
        del a[k:]
        a.append(x)
        while rem > x:
            a.append(x)
            rem -= x
        if rem:
            a.append(rem)


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


class DiagonalCounts(NamedTuple):
    """Per-size aggregate of the doubled multisets of all partitions of n.

    arms[a] (legs[b]) counts the partitions of n with an arm (leg) of length
    a (b), so the signed histogram is h_n[2a+1] = arms[a], h_n[-(2b+1)] = -legs[b].
    """

    partitions: int
    arms: tuple[int, ...]
    legs: tuple[int, ...]

    def signed(self, p: int | None = None) -> Iterator[tuple[int, int]]:
        """(d, h_n[d]) for every odd d with |d| < 2n, skipping p | d when p is given."""
        for a, count in enumerate(self.arms):
            d = 2 * a + 1
            if p is None or d % p:
                yield d, count
                yield -d, -self.legs[a]


def _strict_sets_by_sum(r: int, budget: int) -> list[list[tuple[int, ...]]]:
    """Sets of r distinct integers >= 0 (as decreasing tuples), bucketed by
    their sum, for every sum up to budget."""
    buckets: list[list[tuple[int, ...]]] = [[] for _ in range(budget + 1)]
    layer = [((), 0)]
    for _ in range(r):
        grown = []
        for rest, total in layer:
            low = rest[0] + 1 if rest else 0
            for top in range(low, budget - total + 1):
                grown.append(((top,) + rest, total + top))
        layer = grown
    for members, total in layer:
        buckets[total].append(members)
    return buckets


@lru_cache(maxsize=128)
def diagonal_counts(n: int) -> DiagonalCounts:
    """Partition count and diagonal histogram of size n, by full enumeration.

    Every partition of n is visited once, as its Frobenius pair: strict sets
    A (arms) and B (legs) of nonnegative integers with |A| = |B| = r and
    n = r + sum(A) + sum(B).  Cached; an entry holds 2n + 1 integers.
    """
    if n < 0:
        raise ValueError(f"cannot partition {n}")
    arms = [0] * n
    legs = [0] * n
    count = 0 if n else 1  # the empty partition has r = 0
    r = 1
    while r * r <= n:
        budget = n - r
        by_sum = _strict_sets_by_sum(r, budget)
        for arm_sum, arm_sets in enumerate(by_sum):
            leg_sets = by_sum[budget - arm_sum]
            for arm_set in arm_sets:
                for leg_set in leg_sets:
                    count += 1
                    for a in arm_set:
                        arms[a] += 1
                    for b in leg_set:
                        legs[b] += 1
        r += 1
    return DiagonalCounts(count, tuple(arms), tuple(legs))


def doubled_signed_power(doubled: tuple[int, ...], k: int, p: int | None = None) -> int:
    """sum of sign(d) * d^k over the doubled multiset, skipping p | d when p is given."""
    s = 0
    for d in doubled:
        if p is not None and d % p == 0:
            continue
        s += d**k if d > 0 else -(d**k)
    return s


def signed_power_sum(lam: Partition, k: int, p: int | None = None) -> Fraction:
    """Signed k-th power sum of the half-integer diagonal coordinates.

    With p given, coordinates whose doubled value is divisible by p are dropped.
    """
    if k < 0:
        raise ValueError(f"power must be >= 0, got {k}")
    if p is not None and not is_prime(p):
        raise ValueError(f"regularization modulus {p} is not prime")
    return Fraction(doubled_signed_power(c_multiset(lam), k, p), 2**k)


def beta(k: int, p: int | None = None) -> Fraction:
    """Taylor coefficient of (z/2)/sinh(z/2) at z^k; odd coefficients vanish.

    Closed form for even k: -B_k (2^(k-1) - 1) / (2^(k-1) k!).  With p given the
    value is multiplied by (1 - p^(k-1)); at k = 0 that factor is 1 - 1/p.
    """
    if k < 0:
        raise ValueError(f"index must be >= 0, got {k}")
    if p is not None and not is_prime(p):
        raise ValueError(f"regularization modulus {p} is not prime")
    if k == 0:
        b = Fraction(1)
    elif k % 2:
        b = Fraction(0)
    else:
        b = -bernoulli(k) * (2 ** (k - 1) - 1) / (2 ** (k - 1) * factorial(k))
    if p is not None:
        b *= 1 - Fraction(p) ** (k - 1)
    return b


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

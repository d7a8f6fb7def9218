"""Partitions, diagonal (arm/leg) coordinates, and the evaluations fed to q-brackets.

Each partition yields a multiset of half-integers (the hook-diagonal coordinates);
to stay in integer arithmetic, the multiset is stored doubled, as distinct odd
integers whose signs split evenly.  The signed power sums of that doubled
multiset and the sinh-Taylor constants beta_k are the per-partition quantities
every bracket computation consumes.

Aggregates over all partitions of a size come from Frobenius pairs (A, B) of
strict sets: `diagonal_counts` counts them without listing any.  Only
`partition_sums` (behind `bracket_of_polynomial`) and the generic q-bracket
list every partition.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import factorial, isqrt
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
    "beta",
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

    @classmethod
    def _listed(cls, parts: tuple[int, ...], size: int) -> "Partition":
        """A partition from parts already known to be valid, unchecked."""
        lam = object.__new__(cls)
        lam.parts = parts
        lam.size = size
        return lam

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
    listed = Partition._listed
    while True:
        yield listed(tuple(a), n)
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

    arms[a] counts the partitions of n with an arm of length a; by
    conjugation as many have a leg of length a, so the signed histogram is
    h_n[2a+1] = arms[a], h_n[-(2a+1)] = -arms[a].
    """

    partitions: int
    arms: tuple[int, ...]

    def signed(self, p: int | None = None) -> Iterator[tuple[int, int]]:
        """(d, h_n[d]) for every odd d with |d| < 2n, skipping p | d when p is given."""
        for a, count in enumerate(self.arms):
            d = 2 * a + 1
            if p is None or d % p:
                yield d, count
                yield -d, -count


def _partition_numbers(terms: int) -> list[int]:
    """p(0), ..., p(terms), by adding parts of each size in turn."""
    counts = [1] + [0] * terms
    for part in range(1, terms + 1):
        for m in range(part, terms + 1):
            counts[m] += counts[m - part]
    return counts


@lru_cache(maxsize=8)
def diagonal_counts(terms: int) -> tuple[DiagonalCounts, ...]:
    """Partition count and diagonal histogram of every size n <= terms, by
    counting Frobenius pairs; entry n is size n.

    A partition of n is a pair of strict sets A (arms) and B (legs) of
    nonnegative integers with |A| = |B| = r and n = r + sum(A) + sum(B).  One
    knapsack over the elements 0 .. terms - 1 counts the r-sets of each sum s,
    C[r][s], and packs into W[r][s] one slot per element a: the number of
    those sets that contain a.  Then size n has sum over r, s of
    C[r][s] C[r][n-r-s] partitions, and arms[a] is slot a of the same sum with
    W[r][s] for the first factor; legs equal arms by conjugation.  No slot
    exceeds p(terms), which fixes the slot width.  No partition is listed.
    Cached; an entry holds about terms^2 / 2 integers.
    """
    if terms < 0:
        raise ValueError(f"cannot partition {terms}")
    width = (_partition_numbers(terms)[-1].bit_length() + 7) // 8  # bytes per slot
    rmax = isqrt(terms)
    # an r-set of arms leaves at least r(r-1)/2 to the legs and r to the diagonal
    cap = [terms - r - r * (r - 1) // 2 for r in range(rmax + 1)]
    counts = [[0] * (c + 1) for c in cap]
    packed = [[0] * (c + 1) for c in cap]
    counts[0][0] = 1
    for a in range(terms):
        marker = 1 << (8 * width * a)
        for r in range(min(a, rmax - 1), -1, -1):
            top = cap[r + 1] - a  # sum of the r smaller elements
            if top < 0:
                continue
            src_c, src_w, dst_c, dst_w = counts[r], packed[r], counts[r + 1], packed[r + 1]
            for s in range(r * (r - 1) // 2, top + 1):
                c = src_c[s]
                if c:
                    dst_c[s + a] += c
                    dst_w[s + a] += src_w[s] + c * marker
    table = []
    for n in range(terms + 1):
        total = 0 if n else 1  # the empty partition has r = 0
        hist = 0
        r = 1
        while r * r <= n:
            low = r * (r - 1) // 2
            c_r, w_r = counts[r], packed[r]
            for s in range(low, n - r - low + 1):
                c = c_r[n - r - s]
                if c:
                    total += c_r[s] * c
                    hist += w_r[s] * c
            r += 1
        raw = hist.to_bytes(n * width, "little")
        arms = tuple(int.from_bytes(raw[i : i + width], "little") for i in range(0, n * width, width))
        table.append(DiagonalCounts(total, arms))
    return tuple(table)


def partition_sums(
    generators: list[tuple[int, int, int]], monomials: list, denominator: int, terms: int
) -> dict[int, Fraction]:
    """Per size n <= terms, the sum over the partitions of n of
    `_monomial_sum(values, monomials) / denominator`, where values[j] =
    scale * S + shift for the j-th generator (i, scale, shift) and S is the
    doubled signed (i-1)-st power sum of the partition (the integer plan of
    `ShiftedSymmetricPoly.evaluate`); sizes with sum 0 are left out.

    Every partition is listed by `enumerate_partitions`, and S is read off
    its rows rather than its diagonal: with m = i - 1, S is the sum over rows
    j of (2 lambda_j - 2j + 1)^m - (1 - 2j)^m (the row form of the
    Bloch-Okounkov power sum), so no Frobenius coordinates are built.
    """
    if terms < 0:
        raise ValueError(f"term count must be >= 0, got {terms}")
    odd = range(1, 2 * terms, 2)
    # per generator: power m, scale, shift, and offset[l] = sum of (1 - 2j)^m over j <= l
    plan = [
        (i - 1, scale, shift, [sum((-d) ** (i - 1) for d in odd[:rows]) for rows in range(terms + 1)])
        for i, scale, shift in generators
    ]
    raw: dict[int, Fraction] = {}
    for n in range(terms + 1):
        total = 0
        for lam in enumerate_partitions(n):
            parts = lam.parts
            rows = len(parts)
            rim = [x + x - d for x, d in zip(parts, odd)]
            values = [scale * (sum(map(pow, rim, repeat(m, rows))) - offset[rows]) + shift
                      for m, scale, shift, offset in plan]
            total += _monomial_sum(values, monomials)
        if total:
            raw[n] = Fraction(total, denominator)
    return raw


def _monomial_sum(values: list[int], monomials: list) -> int:
    """sum of multiplier * prod(values[j] ** e) over (multiplier, ((j, e), ...))."""
    total = 0
    for multiplier, mono in monomials:
        v = multiplier
        for j, e in mono:
            v *= values[j] ** e
        total += v
    return total


def doubled_signed_power(doubled: tuple[int, ...], k: int, p: int | None = None) -> int:
    """sum of sign(d) * d^k over the doubled multiset, skipping p | d when p is given."""
    s = 0
    for d in doubled:
        if p is not None and d % p == 0:
            continue
        s += d**k if d > 0 else -(d**k)
    return s


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

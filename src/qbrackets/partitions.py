"""Partitions, their diagonal (arm/leg) histograms, and the constants fed to q-brackets.

Each partition's hook-diagonal coordinates are half-integers; to stay in
integer arithmetic they are counted doubled, as distinct odd integers whose
signs split evenly.  Their signed power sums and the sinh-Taylor constants
beta_k are what every bracket computation consumes.

Aggregates over all partitions of a size come from Frobenius pairs (A, B) of
strict sets: `diagonal_counts` counts them without listing any, and
`bracket_by_enumeration` reads the weight-k brackets off those counts.  Only
`shifted.qbracket` lists every partition, through `enumerate_partitions`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt
from typing import Iterable, Iterator, NamedTuple

from .arith import bernoulli, is_prime
from .series import QExpansion, euler_function, multiply

__all__ = [
    "Partition",
    "enumerate_partitions",
    "DiagonalCounts",
    "diagonal_counts",
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


def bracket_by_enumeration(k: int, terms: int, p: int | None) -> QExpansion:
    """`brackets.normalized_qbracket(k, terms, p, "enumerate")`, its arguments
    checked there: the bracket read off the counted diagonal histograms."""
    # norm * Q_k(lambda) = (doubled signed power sum)/2 + norm * beta_k, where
    # norm = 2^(k-2) (k-1)!; summed over the partitions of each size, the
    # power sums collapse onto that size's diagonal histogram.
    norm_beta = Fraction(2) ** (k - 2) * factorial(k - 1) * beta(k, p)
    t = terms + 1
    raw = {
        n: Fraction(sum(h * d ** (k - 1) for d, h in counts.signed(p)), 2)
        + counts.partitions * norm_beta
        for n, counts in enumerate(diagonal_counts(terms))
    }  # QExpansion drops the zeros
    return multiply(QExpansion(raw, t), euler_function(t))


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

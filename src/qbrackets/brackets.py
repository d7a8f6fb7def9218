"""q-brackets: partition averages as exact q-series.

The bracket of a partition function f is (sum over lambda of f(lambda)
q^|lambda|) times the Euler product; the eta prefactor's q^(1/24) cancels
against the averaging weight, so brackets always live on integral q-powers.
The distinguished weight-k bracket series come in two algorithms: a count of
partitions by Frobenius pairs (`partitions.bracket_by_enumeration`), and a
sparse theta-style double sum, expanded into a dense column (`bracket_column`).
The double sum is only trusted because the test suite gates it against the
count (weights <= 12 to 30 q-terms, 2, 4, 8 to 200; regularization at 5 and 7).
Brackets of other partition functions are in `shifted`.
"""

from __future__ import annotations

import operator
from math import gcd
from typing import TYPE_CHECKING, Iterator

from .arith import bernoulli, is_prime, regularized_bernoulli, require_terms

# the tables of `compute` and the Theorem E checks read dense columns and
# never load the series layer; only the QExpansion wrappers import it
if TYPE_CHECKING:
    from .series import QExpansion

__all__ = [
    "FAST_GATE_TERMS",
    "normalized_qbracket",
    "correction_term",
]

# Largest q-truncation at which the double-sum method is oracle-gated by the
# test suite; the CLI refuses longer fast series without an override.
FAST_GATE_TERMS = 30


def _validated(k: int, terms: int, p: int | None, method: str) -> None:
    if k < 1:
        raise ValueError(
            "weight must be >= 1 (the weight-0 normalization is undefined; "
            "use qbracket for the constant function)"
        )
    require_terms(terms)
    if p is not None and not is_prime(p):
        raise ValueError(f"regularization modulus {p} is not prime")
    if method not in ("enumerate", "fast"):
        raise ValueError(f"unknown method {method!r}")


def normalized_qbracket(
    k: int, terms: int, p: int | None = None, method: str = "fast"
) -> QExpansion:
    """The weight-k bracket series, scaled by 2^(k-2) (k-1)! to clear denominators.

    Odd k gives the zero series (conjugation pairing).  "enumerate" reads the
    counted diagonal histogram of each size; "fast" expands the theta-style double sum
    with constant term -B_k (2^(k-1)-1) / (2k), Bernoulli value regularized
    when p is given.
    """
    if method == "fast":
        from .series import QExpansion

        return QExpansion.from_column(bracket_column(k, terms, p))
    _validated(k, terms, p, method)
    from .partitions import bracket_by_enumeration

    return bracket_by_enumeration(k, terms, p)


def _odd_powers(count: int, power: int, p: int | None = None) -> list[int]:
    """(2m+1)^power for m < count, with 0 where p divides 2m+1."""
    return [
        0 if p and odd % p == 0 else odd**power
        for odd in range(1, 2 * count, 2)
    ]


def theta_rows(s: int, terms: int) -> Iterator[tuple[int, int, int]]:
    """Rows of the theta-style double sum through q^terms, for odd s.

    The sum over n >= 1 prime to s and m >= 0 of -(-1)^n x_m
    q^(n(n+s)/2 + m n s) behind the bracket (s = 1), the correction series
    (s = p) and the two-variable kernel: row n is (-(-1)^n, n(n+s)/2, n s),
    the sign, the q-power of x_0 and the q-power step per m.
    """
    n = 1
    while n * (n + s) <= 2 * terms:
        if gcd(n, s) == 1:
            yield (1 if n % 2 else -1), n * (n + s) // 2, n * s
        n += 1


def _collapsed_double_sum(s: int, terms: int, powers: list[int]) -> list[int]:
    """Dense coefficients of q^0 .. q^terms of the double sum with x_m = powers[m].

    Consumes `powers`: rows only get shorter, so the list is cut to each row's
    length in turn, and the powers that no later row reads are freed.
    """
    acc = [0] * (terms + 1)
    for sign, first, step in theta_rows(s, terms):
        del powers[(terms - first) // step + 1:]
        if first == (s + 1) // 2:  # row n = 1: sign +1, landing on zeros
            acc[first::step] = powers
        else:
            op = operator.add if sign > 0 else operator.sub
            acc[first::step] = map(op, acc[first::step], powers)
    return acc


def bracket_column(k: int, terms: int, p: int | None) -> list:
    """Dense coefficients of q^0 .. q^terms of `normalized_qbracket(k, terms, p)`
    by the double sum (zeros for odd k)."""
    _validated(k, terms, p, "fast")
    if k % 2:
        return [0] * (terms + 1)
    bern = bernoulli(k) if p is None else regularized_bernoulli(k, p)
    # row 1 is the longest, with terms entries
    acc = _collapsed_double_sum(1, terms, _odd_powers(terms, k - 1, p))
    acc[0] = -bern * (2 ** (k - 1) - 1) / (2 * k)  # no row reaches q^0
    return acc


def correction_term(k: int, p: int, terms: int) -> QExpansion:
    """The exact discrepancy series in the regularization identity.

    Double sum over n >= 1 coprime to p and M >= 0 of -(-1)^n (2M+1)^(k-1)
    q^(n(n + p(2M+1))/2); every exponent is an integer, and its Legendre
    symbol at p equals that of 2.
    """
    from .series import QExpansion

    return QExpansion.from_column(correction_column(k, p, terms))


def correction_column(k: int, p: int, terms: int) -> list[int]:
    """Dense coefficients of q^0 .. q^terms of `correction_term(k, p, terms)`."""
    if k < 2 or k % 2:
        raise ValueError(f"weight must be even and >= 2, got {k}")
    if p == 2 or not is_prime(p):
        raise ValueError(f"modulus {p} is not an odd prime")
    require_terms(terms)
    # the exponent steps by n p >= p per M, so M < terms / p
    return _collapsed_double_sum(p, terms, _odd_powers(terms // p + 1, k - 1))

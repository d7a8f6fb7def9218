"""q-brackets: partition averages as exact q-series.

The bracket of a partition function f is (sum over lambda of f(lambda)
q^|lambda|) times the Euler product; the eta prefactor's q^(1/24) cancels
against the averaging weight, so brackets always live on integral q-powers.
The distinguished weight-k bracket series come in two algorithms: a count of
partitions by Frobenius pairs, and a sparse theta-style double sum.  The double
sum is only trusted because the test suite gates it against the count (weights
<= 12 to 30 q-terms, 2, 4, 8 to 200; regularization at 5 and 7).  Brackets of
other partition functions are in `shifted`.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd
from typing import Iterator

from .arith import bernoulli, is_prime, regularized_bernoulli
from .series import QExpansion, Scalar, euler_function, multiply

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
    if terms < 0:
        raise ValueError(f"term count must be >= 0, got {terms}")
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
    _validated(k, terms, p, method)
    if method == "enumerate":
        return _bracket_by_enumeration(k, terms, p)
    if k % 2:
        return QExpansion.zero(terms + 1)
    return QExpansion.from_column(bracket_column(k, terms, p))


def _bracket_by_enumeration(k: int, terms: int, p: int | None) -> QExpansion:
    from .partitions import beta, diagonal_counts

    t = terms + 1
    # norm * Q_k(lambda) = (doubled signed power sum)/2 + norm * beta_k, where
    # norm = 2^(k-2) (k-1)!; summed over the partitions of each size, the
    # power sums collapse onto that size's diagonal histogram.
    norm_beta = Fraction(2) ** (k - 2) * factorial(k - 1) * beta(k, p)
    raw: dict[int, Scalar] = {}
    for n, counts in enumerate(diagonal_counts(terms)):
        s = sum(h * d ** (k - 1) for d, h in counts.signed(p))
        coeff = Fraction(s, 2) + counts.partitions * norm_beta
        if coeff:
            raw[n] = coeff
    return multiply(QExpansion(raw, t), euler_function(t))


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
    """Dense coefficients of q^0 .. q^terms of the double sum with x_m = powers[m]."""
    acc = [0] * (terms + 1)
    for sign, first, step in theta_rows(s, terms):
        row = slice(first, terms + 1, step)
        if sign > 0:
            acc[row] = [a + w for a, w in zip(acc[row], powers)]
        else:
            acc[row] = [a - w for a, w in zip(acc[row], powers)]
    return acc


def bracket_column(k: int, terms: int, p: int | None) -> list:
    """Dense coefficients of q^0 .. q^terms of `normalized_qbracket(k, terms, p)`
    for even k, with the arguments that function accepts (not checked here)."""
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
    return QExpansion.from_column(correction_column(k, p, terms))


def correction_column(k: int, p: int, terms: int) -> list[int]:
    """Dense coefficients of q^0 .. q^terms of `correction_term(k, p, terms)`."""
    if k < 2 or k % 2:
        raise ValueError(f"weight must be even and >= 2, got {k}")
    if p == 2 or not is_prime(p):
        raise ValueError(f"modulus {p} is not an odd prime")
    if terms < 0:
        raise ValueError(f"term count must be >= 0, got {terms}")
    # the exponent steps by n p >= p per M, so M < terms / p
    return _collapsed_double_sum(p, terms, _odd_powers(terms // p + 1, k - 1))

"""q-brackets: partition averages as exact q-series.

The bracket of a partition function f is (sum over lambda of f(lambda)
q^|lambda|) times the Euler product; the eta prefactor's q^(1/24) cancels
against the averaging weight, so brackets always live on integral q-powers.
The distinguished weight-k bracket series come in two algorithms, both dense
columns of `bracket_column` selected by its method: a count of partitions by
Frobenius pairs (`partitions.bracket_by_enumeration`), and a sparse
theta-style double sum, expanded into the column.
The double sum is only trusted because the test suite gates it against the
count (weights <= 12 to 30 q-terms, 2, 4, 8 to 200; regularization at 5 and 7).
One generator, `_collapsed_windows`, collapses the rows of `theta_rows` into
the column a window of q-powers at a time, adding each row in slices of at
most 1,024 entries.  A dense column is its single window: the fast bracket
here, and the correction series of the regularization identity, which
expands the same rows at s = p (`correction.correction_column`).  The
Theorem E checks of `correction` walk narrower windows, of the plain and
regularized brackets over one shared list of powers (`_bracket_windows`).
Brackets of other partition functions are in `shifted`.
"""

from __future__ import annotations

import operator
from math import gcd
from typing import TYPE_CHECKING, Iterator

from .arith import bernoulli, is_prime, regularized_bernoulli, require_terms

# the tables of `compute` and the Theorem E checks read lists and never load
# the series layer; only `normalized_qbracket` imports it
if TYPE_CHECKING:
    from .series import QExpansion

__all__ = [
    "FAST_GATE_TERMS",
    "normalized_qbracket",
]

# Largest q-truncation at which the double-sum method is oracle-gated by the
# test suite; the CLI refuses longer fast series without an override.
FAST_GATE_TERMS = 30


def normalized_qbracket(
    k: int, terms: int, p: int | None = None, method: str = "fast"
) -> QExpansion:
    """The weight-k bracket series, scaled by 2^(k-2) (k-1)! to clear denominators.

    Odd k gives the zero series (conjugation pairing).  "enumerate" reads the
    counted diagonal histogram of each size; "fast" expands the theta-style double sum
    with constant term -B_k (2^(k-1)-1) / (2k), Bernoulli value regularized
    when p is given.  It is the column of `bracket_column` as a series.
    """
    from .series import QExpansion

    return QExpansion.from_column(bracket_column(k, terms, p, method))


def _odd_powers(count, power):
    """(2m+1)^power for m < count."""
    return [odd**power for odd in range(1, 2 * count, 2)]


def theta_rows(s: int, terms: int) -> Iterator[tuple[int, int, int]]:
    """Rows of the theta-style double sum through q^terms, for odd s.

    The sum over n >= 1 prime to s and m >= 0 of -(-1)^n x_m
    q^(n(n+s)/2 + m n s) behind the bracket (s = 1), the correction series
    (s = p) and the two-variable kernel: row n is (-(-1)^n, n(n+s)/2, n s),
    the sign, the q-power of x_0 and the q-power step per m.
    """
    n = 1
    while (first := n * (n + s) // 2) <= terms:
        if gcd(n, s) == 1:
            yield -((-1) ** n), first, n * s
        n += 1


def _collapsed_windows(s, terms, powers, width, constant):
    """Coefficients of q^0 .. q^terms of the double sum with x_m = powers[m],
    and `constant` at q^0, which no row reaches: a list per `width` q-powers.

    Each row reads the powers through its own iterator, which every window
    advances past the ones it adds, 1,024 at a time.  In the last window rows
    only get shorter, so `powers` is cut to each row's length in turn and the
    powers that no later row reads are freed.
    """
    # row n = 1 lands on zeros and keeps its powers: {}.get(0, x) is x
    rows = [
        ({}.get if step == s else operator.add if sign > 0 else operator.sub, first, step,
         iter(powers))
        for sign, first, step in theta_rows(s, terms)
    ]
    for low in range(0, terms + 1, width):
        acc = [0] * min(width, terms + 1 - low)
        if not low:
            acc[0] = constant
        for op, first, step, read in rows:
            if low + width > terms:
                del powers[(terms - first) // step + 1 :]
            first -= low  # where the row starts, relative to the window
            for i in range(max(first, first % step), len(acc), 1024 * step):
                part = slice(i, i + 1024 * step, step)
                acc[part] = map(op, acc[part], read)
        yield acc


def _bracket_windows(k, terms, p, powers, width):
    """`bracket_column(k, terms, p)` for even k, `width` q-powers at a time,
    from powers = `_odd_powers(terms, k - 1)`.  At p the powers are copied
    now, with the multiples of p zeroed, so that the plain and regularized
    brackets share one list; the plain bracket cuts it in its last window."""
    if p:
        powers = powers[:]
        # an odd p divides 2m + 1 exactly at m = p // 2 mod p; 2 divides none
        for m in range(p // 2, terms if p % 2 else 0, p):
            powers[m] = 0
    # the constant term, B_k (1 - 2^(k-1)) / (2k), Bernoulli value regularized at p
    return _collapsed_windows(
        1, terms, powers, width,
        (regularized_bernoulli(k, p) if p else bernoulli(k)) * (1 - 2 ** (k - 1)) / (2 * k),
    )


def bracket_column(k: int, terms: int, p: int | None, method: str = "fast") -> list:
    """Dense coefficients of q^0 .. q^terms of `normalized_qbracket(k, terms, p,
    method)`: the double sum (zeros for odd k), or with "enumerate" the
    Frobenius-pair count of `partitions`, which only that method loads."""
    if k < 1:
        raise ValueError(
            "weight must be >= 1 (the weight-0 normalization is undefined; "
            "use qbracket for the constant function)"
        )
    require_terms(terms)
    if p is not None and not is_prime(p):
        raise ValueError(f"regularization modulus {p} is not prime")
    if method == "enumerate":
        from .partitions import bracket_by_enumeration

        return bracket_by_enumeration(k, terms, p)
    if method != "fast":
        raise ValueError(f"unknown method {method!r}")
    if k % 2:
        return [0] * (terms + 1)
    # row 1 is the longest, with terms entries
    return next(_bracket_windows(k, terms, p, _odd_powers(terms, k - 1), terms + 1))

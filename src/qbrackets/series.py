"""Truncated exact power series in q.

Every exponent is a q-power: exponent n stands for q^n, and a series known
through q^terms has truncation terms + 1.  (Only the two-variable kernel in
`zetaseries`/`jacobi` needs the fractional powers of eta and theta; it keeps
its own 1/24 grid.)  A series carries an exclusive truncation bound and keeps
only nonzero coefficients below it.  Coefficients are exact (int or
Fraction), and integral ones stay int through `multiply`: it puts each
operand over one common denominator, convolves the integer numerators, and
builds a Fraction only where the product of the two denominators is not 1.
A series also reads as a column: len(s) is its truncation and s[n] its
coefficient of q^n, which is all that `modforms.bracket_decomposition` and
`report.congruent_mod` read of their inputs.

`first_difference` walks the joint support below the joint truncation and
reports the witness (exponent, lhs value, rhs value) of the first differing
coefficient.  No command that reads dense columns loads this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator, Union

from .errors import TruncationError

Scalar = Union[int, Fraction]

Witness = tuple[int, str, str]

__all__ = [
    "QExpansion",
    "Witness",
    "add",
    "multiply",
    "scale",
    "euler_function",
    "first_difference",
]


class QExpansion:
    """Sparse truncated series: exponent -> coefficient, exponents in [0, truncation)."""

    __slots__ = ("terms", "truncation")

    def __init__(self, terms: dict[int, Scalar], truncation: int):
        if truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {truncation}")
        clean: dict[int, Scalar] = {}
        for e, c in terms.items():
            if c == 0:
                continue
            if e < 0:
                raise ValueError(f"negative exponent {e} is out of contract")
            if e < truncation:
                clean[e] = c
        self.terms = clean
        self.truncation = truncation

    @classmethod
    def one(cls, truncation: int) -> "QExpansion":
        return cls({0: 1}, truncation)

    @classmethod
    def from_column(cls, column: list[Scalar]) -> "QExpansion":
        """The series with coefficient column[e] at q^e, known through q^(len - 1)."""
        return _kept({e: c for e, c in enumerate(column) if c}, len(column))

    def coefficient(self, exponent: int) -> Scalar:
        if exponent >= self.truncation:
            raise TruncationError(
                f"exponent {exponent} is at or beyond truncation {self.truncation}"
            )
        return self.terms.get(exponent, 0)

    __getitem__ = coefficient

    def __len__(self) -> int:
        return self.truncation

    def __iter__(self) -> Iterator[Scalar]:
        return map(self.coefficient, range(self.truncation))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QExpansion):
            return NotImplemented
        return self.truncation == other.truncation and self.terms == other.terms

    def __repr__(self) -> str:
        parts = [f"{self.terms[e]}*q^{e}" for e in sorted(self.terms)[:6]]
        body = " + ".join(parts) if parts else "0"
        if len(self.terms) > 6:
            body += " + ..."
        return f"QExpansion({body}; T={self.truncation})"


def _kept(terms: dict[int, Scalar], truncation: int) -> QExpansion:
    """A series that keeps `terms`, nonzero and in [0, truncation), without a copy."""
    series = object.__new__(QExpansion)
    series.terms = terms
    series.truncation = truncation
    return series


def add(a: QExpansion, b: QExpansion) -> QExpansion:
    t = min(a.truncation, b.truncation)
    terms = {e: c for e, c in a.terms.items() if e < t}
    for e, c in b.terms.items():
        if e < t and (c := terms.pop(e, 0) + c):  # a sum of 0 stays out
            terms[e] = c
    return _kept(terms, t)


def scale(a: QExpansion, c: Scalar) -> QExpansion:
    return _kept({e: v * c for e, v in a.terms.items()} if c else {}, a.truncation)


def _numerators(a: QExpansion) -> tuple[list[tuple[int, int]], int]:
    """Sorted (exponent, integer numerator) pairs over the lcm of the denominators."""
    den = lcm(*(c.denominator for c in a.terms.values()))
    items = sorted(a.terms.items())
    return [(e, c.numerator * (den // c.denominator)) for e, c in items], den


def multiply(a: QExpansion, b: QExpansion) -> QExpansion:
    t = min(a.truncation, b.truncation)
    if len(b.terms) < len(a.terms):
        a, b = b, a
    a_items, da = _numerators(a)
    b_items, db = _numerators(b)
    out: dict[int, int] = {}
    for ea, ca in a_items:
        cap = t - ea
        if cap <= 0:
            break
        for eb, cb in b_items:
            if eb >= cap:
                break
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    den = da * db
    if den == 1:
        return QExpansion(out, t)
    return QExpansion({e: Fraction(v, den) for e, v in out.items() if v}, t)


def euler_function(truncation: int) -> QExpansion:
    """Product over n of (1 - q^n), expanded by the pentagonal number theorem.

    Exponents land at j(3j-1)/2 for j = 0, 1, -1, 2, -2, ... with sign (-1)^j.
    """
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    terms: dict[int, Scalar] = {0: 1}
    j = 1
    while True:
        hit = False
        for e in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if e < truncation:
                terms[e] = -1 if j % 2 else 1
                hit = True
        if not hit:
            break
        j += 1
    return QExpansion(terms, truncation)


def _joint_coefficients(a, b) -> Iterator[tuple[int, Scalar, Scalar]]:
    """(exponent, a's coefficient, b's coefficient) for every exponent of the
    joint support below the joint truncation, in increasing order.

    a and b are both QExpansions (q-powers) or both ZetaQExpansions (1/24
    units); their `terms` dicts are read directly.  No exponent is negative,
    so coefficient(-1) is the zero that an exponent missing from one stands
    for: 0, or the zero ZetaLaurent.
    """
    bound = min(a.truncation, b.truncation)
    da, db, missing = a.terms, b.terms, a.coefficient(-1)
    for e in sorted({*da, *db}):
        if e >= bound:
            return
        yield e, da.get(e, missing), db.get(e, missing)


def first_difference(a, b) -> Witness | None:
    """First exponent below the joint truncation where two series differ."""
    if a == b:  # equal series, compared without listing their supports
        return None
    for e, ca, cb in _joint_coefficients(a, b):
        if ca != cb:
            return (e, str(ca), str(cb))
    return None

"""Truncated exact power series in q: the library's return type.

Every exponent is a q-power: exponent n stands for q^n, and a series known
through q^terms has truncation terms + 1.  A series carries an exclusive
truncation bound and keeps only nonzero coefficients below it.
Coefficients are exact (int or Fraction).  A series also reads as a column:
len(s) is its truncation and s[n] its coefficient of q^n, which is all that
`modforms.bracket_decomposition`, `report.congruent_mod` and
`report.first_difference` read of their inputs.

The commands compute on dense columns, lists whose entry n is the
coefficient of q^n, and never load this module; only the library returns
`brackets.normalized_qbracket` and `modforms.eisenstein` build a QExpansion,
from such a column.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Union

from .errors import TruncationError

Scalar = Union[int, Fraction]

__all__ = ["QExpansion"]


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
    def from_column(cls, column: list[Scalar]) -> "QExpansion":
        """The series with coefficient column[e] at q^e, known through q^(len - 1)."""
        return cls(dict(enumerate(column)), len(column))

    def coefficient(self, exponent: int) -> Scalar:
        if exponent < 0:
            raise ValueError(f"negative exponent {exponent} is out of contract")
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

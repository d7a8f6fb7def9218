"""Brackets of arbitrary partition functions and of generator polynomials.

`qbracket` averages any partition function and is the package's only walk
over listed partitions; it returns the dense column of the bracket, whose
entry n is the coefficient of q^n, as `bracket_of_polynomial` does.
`bracket_of_polynomial` brackets a polynomial in the distinguished
evaluations Q_i through it, with the polynomial's integer row-form evaluator, built once per call; that evaluator is the one place
that computes a single partition's power sums.  A `ShiftedSymmetricPoly`
holds only its monomials and their weight: it has no arithmetic, since the
command line reads each polynomial whole from `parse_q_polynomial`, the
parser of its expression syntax.  Only the invocations that call these load
this module.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import repeat
from math import factorial, lcm, prod
from typing import TYPE_CHECKING, Callable, Mapping, Union

from .arith import require_terms
from .errors import ExpressionError

if TYPE_CHECKING:
    from .partitions import Partition

Scalar = Union[int, Fraction]

__all__ = [
    "qbracket",
    "ShiftedSymmetricPoly",
    "bracket_of_polynomial",
    "parse_q_polynomial",
]


def qbracket(f: Callable[[Partition], Scalar], terms: int) -> list[Scalar]:
    """Partition average of f: the dense coefficients of q^0 .. q^terms, the
    sum of f over the partitions of each size times the Euler product."""
    from .partitions import enumerate_partitions, times_euler

    require_terms(terms)
    return times_euler([sum(map(f, enumerate_partitions(n))) for n in range(terms + 1)])


Monomial = tuple[tuple[int, int], ...]


class ShiftedSymmetricPoly:
    """Polynomial in the distinguished partition evaluations, indices >= 1.

    A monomial maps generator index i to a positive exponent and carries the
    grading sum(i * exponent); stored as a sorted tuple of (index, exponent).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Scalar] = {}
        for mono, coeff in (terms or {}).items():
            if coeff == 0:
                continue
            reduced = []
            for index, exp in mono:
                if exp == 0:
                    continue
                if index < 1 or exp < 0:
                    raise ValueError(f"bad monomial factor ({index}, {exp})")
                reduced.append((index, exp))
            key = tuple(sorted(reduced))
            if len({i for i, _ in key}) != len(key):
                raise ValueError(f"repeated generator index in monomial {mono}")
            if merged := clean.pop(key, 0) + coeff:  # a sum of 0 stays out
                clean[key] = merged
        self.terms = clean

    def gradings(self) -> tuple[int, ...]:
        return tuple(sorted({sum(i * e for i, e in mono) for mono in self.terms}))

    def weight(self) -> int:
        """Largest monomial grading (0 for the zero polynomial)."""
        gs = self.gradings()
        return gs[-1] if gs else 0

    def _evaluator(self):
        """(numerator, denominator) of the evaluation at a partition.

        numerator(lam) is an int.  Generator i is (S * scale_i + shift_i) /
        den_i, where den_i = 2^(i-1) (i-1)! times the denominator of beta_i
        and scale_i is that denominator.  S is read off the rows: with m =
        i - 1 it is the sum over rows j of (2 lambda_j - 2j + 1)^m - (1 - 2j)^m.
        The two sets of odd values differ by exactly the doubled arms and the
        negated doubled legs, so S is the signed m-th power sum of the doubled
        diagonal coordinates.  The base terms are kept as cumulative offsets
        per generator, extended to the longest partition seen.
        """
        from .partitions import beta

        indices = sorted({i for mono in self.terms for i, _ in mono})
        plan, dens = [], {}
        for i in indices:
            b = beta(i)
            norm = 2 ** (i - 1) * factorial(i - 1)
            # power m, scale, shift, and offset[l] = sum of the base terms of rows j <= l
            plan.append((i - 1, b.denominator, b.numerator * norm, [0]))
            dens[i] = norm * b.denominator
        mono_dens = {
            mono: Fraction(coeff).denominator * prod(dens[i] ** e for i, e in mono)
            for mono, coeff in self.terms.items()
        }
        denominator = lcm(*mono_dens.values())
        monomials = [
            (Fraction(coeff).numerator * (denominator // mono_dens[mono]),
             tuple((indices.index(i), e) for i, e in mono))
            for mono, coeff in self.terms.items()
        ]
        odd = range(1, 1, 2)  # 2j - 1 for each row j that the offsets cover

        def numerator(lam: Partition) -> int:
            nonlocal odd
            parts = lam.parts
            rows = len(parts)
            if rows > len(odd):
                for d in range(-2 * len(odd) - 1, -2 * rows, -2):  # 1 - 2j, new rows j
                    for m, _, _, offset in plan:
                        offset.append(offset[-1] + d**m)
                odd = range(1, 2 * rows, 2)
            rim = [x + x - d for x, d in zip(parts, odd)]
            values = [scale * (sum(map(pow, rim, repeat(m))) - offset[rows]) + shift
                      for m, scale, shift, offset in plan]
            total = 0
            for multiplier, mono in monomials:
                v = multiplier
                for j, e in mono:
                    v *= values[j] ** e
                total += v
            return total

        return numerator, denominator

    def __repr__(self):
        if not self.terms:
            return "ShiftedSymmetricPoly(0)"
        bits = []
        for mono, c in sorted(self.terms.items()):
            factors = [f"Q{i}" + (f"^{e}" if e > 1 else "") for i, e in mono]
            bits.append("*".join([str(c)] + factors) if factors else str(c))
        return f"ShiftedSymmetricPoly({' + '.join(bits)})"


def bracket_of_polynomial(poly: ShiftedSymmetricPoly, terms: int) -> list[Fraction]:
    """q-bracket of the pointwise evaluation of a generator polynomial, as a
    dense column: `qbracket` of its integer numerator, divided by its
    denominator once."""
    numerator, denominator = poly._evaluator()
    return [Fraction(c, denominator) for c in qbracket(numerator, terms)]


# --- Q-polynomial expression parser ---------------------------------------

# each token is an ASCII digit run or one other character, after whitespace
_TOKEN_RE = re.compile(r"\s*(?:([0-9]+)|(\S))")

# the largest grading sum(i * exponent) of a monomial in an expression: an
# evaluation raises each generator's denominator to its exponent and computes
# the Bernoulli number of its index before listing any partition, so
# Q2^99999999999 would not return, and Q2^2000's coefficients outgrow int()'s
# 4,300 digits
MAX_GRADING = 1000


def _is_uint(token: str) -> bool:
    return token.isascii() and token.isdigit()


def _int(token: tuple[int, str]) -> int:
    """The value of a digit token; an error at its start if int() refuses its length."""
    at, digits = token
    try:
        return int(digits)
    except ValueError:  # an ASCII digit run fails only on its length
        limit = sys.get_int_max_str_digits()
        raise ExpressionError(at, f"number longer than {limit} digits") from None


def _uint(token: tuple[int, str], what: str, zero: str) -> int:
    """The value of a digit token; `zero` is the error for the value 0."""
    at, digits = token
    if not _is_uint(digits):
        raise ExpressionError(at, f"expected {what}")
    value = _int(token)
    if value == 0:
        raise ExpressionError(at, zero)
    return value


def parse_q_polynomial(text: str) -> ShiftedSymmetricPoly:
    """Parse sums of rational multiples of generator monomials.

    Grammar: expression := ['+'|'-'] term (('+'|'-') term)*;
    term := [rational] ('*'? ('Q'|'q') index ('^' exponent)?)*;
    rational := integer ('/' positive-integer)?.  Whitespace insensitive;
    integers are ASCII digits, and an error carries its 0-based offset.  A
    monomial's grading may not exceed MAX_GRADING.
    """
    tokens = [(m.start(m.lastindex), m[m.lastindex]) for m in _TOKEN_RE.finditer(text)]
    tokens.append((len(text), ""))  # end of input
    at, token = tokens[0]
    if not token:
        raise ExpressionError(at, "empty expression")
    i = 1 if token in ("+", "-") else 0
    sign = -1 if token == "-" else 1
    acc: dict[tuple[tuple[int, int], ...], Fraction] = {}
    while True:
        coeff, powers, grading, seen = Fraction(1), {}, 0, _is_uint(tokens[i][1])
        if seen:
            coeff = Fraction(_int(tokens[i]))
            i += 1
            if tokens[i][1] == "/":
                coeff /= _uint(tokens[i + 1], "a denominator", "denominator must be positive")
                i += 2
        while True:
            at, token = tokens[i]
            if token == "*":
                if not seen:
                    raise ExpressionError(at, "expected a rational or a generator")
                i += 1
                at, token = tokens[i]
                if token not in ("Q", "q"):
                    raise ExpressionError(at, "expected a generator after '*'")
            elif token not in ("Q", "q"):
                break
            index = _uint(tokens[i + 1], "a generator index", "generator index must be >= 1")
            i += 2
            exponent = 1
            if tokens[i][1] == "^":
                exponent = _uint(tokens[i + 1], "an exponent", "exponent must be positive")
                i += 2
            powers[index] = powers.get(index, 0) + exponent
            grading += index * exponent
            if grading > MAX_GRADING:
                raise ExpressionError(at, f"monomial grading exceeds {MAX_GRADING}")
            seen = True
        if not seen:
            raise ExpressionError(at, "expected a rational or a generator")
        mono = tuple(sorted(powers.items()))
        acc[mono] = acc.get(mono, Fraction(0)) + sign * coeff
        if not token:
            return ShiftedSymmetricPoly(acc)
        if token not in ("+", "-"):
            raise ExpressionError(at, f"expected '+' or '-', found {text[at]!r}")
        sign = -1 if token == "-" else 1
        i += 1

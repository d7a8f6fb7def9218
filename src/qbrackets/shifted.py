"""Brackets of arbitrary partition functions and of generator polynomials.

`qbracket` averages any partition function and is the package's only walk
over listed partitions.  `bracket_of_polynomial` brackets a polynomial in
the distinguished evaluations Q_i through it, with the integer row-form
evaluator that `ShiftedSymmetricPoly.evaluate` also uses; that evaluator is
the one place that computes a single partition's power sums.
`parse_q_polynomial` reads the command line's expression syntax.  Only the
invocations that call these load this module.
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
from .series import QExpansion, euler_function, multiply, scale

if TYPE_CHECKING:
    from .partitions import Partition

Scalar = Union[int, Fraction]

__all__ = [
    "qbracket",
    "ShiftedSymmetricPoly",
    "bracket_of_polynomial",
    "parse_q_polynomial",
]


def qbracket(f: Callable[[Partition], Scalar], terms: int) -> QExpansion:
    """Partition average of f as a q-series with `terms` integral coefficients.

    Truncation is terms + 1, so exponents q^0 .. q^terms are exact.
    """
    from .partitions import enumerate_partitions

    require_terms(terms)
    t = terms + 1
    raw: dict[int, Scalar] = {}
    for n in range(terms + 1):
        s: Scalar = 0
        for lam in enumerate_partitions(n):
            s += f(lam)
        if s:
            raw[n] = s
    return multiply(QExpansion(raw, t), euler_function(t))


Monomial = tuple[tuple[int, int], ...]


class ShiftedSymmetricPoly:
    """Polynomial in the distinguished partition evaluations, indices >= 1.

    A monomial maps generator index i to a positive exponent and carries the
    grading sum(i * exponent); stored as a sorted tuple of (index, exponent).
    """

    __slots__ = ("terms", "_evaluators")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        self._evaluators: dict[int | None, tuple] = {}
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
            merged = clean.get(key, 0) + coeff
            if merged:
                clean[key] = merged
            else:
                clean.pop(key, None)
        self.terms = clean

    @classmethod
    def constant(cls, c: Scalar) -> "ShiftedSymmetricPoly":
        return cls({(): c})

    @classmethod
    def generator(cls, index: int) -> "ShiftedSymmetricPoly":
        if index < 1:
            raise ValueError(f"generator index must be >= 1, got {index}")
        return cls({((index, 1),): 1})

    def gradings(self) -> tuple[int, ...]:
        return tuple(sorted({sum(i * e for i, e in mono) for mono in self.terms}))

    def weight(self) -> int:
        """Largest monomial grading (0 for the zero polynomial)."""
        gs = self.gradings()
        return gs[-1] if gs else 0

    def is_homogeneous(self) -> bool:
        return len(self.gradings()) <= 1

    def evaluate(self, lam: Partition, p: int | None = None) -> Fraction:
        numerator, denominator = self._evaluator(p)
        return Fraction(numerator(lam), denominator)

    def _evaluator(self, p: int | None):
        """(numerator, denominator) of the evaluation at regularization p, cached per p.

        numerator(lam) is an int.  Generator i is (S * scale_i + shift_i) /
        den_i, where den_i = 2^(i-1) (i-1)! times the denominator of beta_i
        and scale_i is that denominator.  S is read off the rows: with m =
        i - 1 it is the sum over rows j of (2 lambda_j - 2j + 1)^m - (1 - 2j)^m,
        leaving out every odd value that p divides.  The two sets of odd
        values differ by exactly the doubled arms and the negated doubled
        legs, so S is the signed m-th power sum of the doubled diagonal
        coordinates under the same filter.  The base terms are kept as
        cumulative offsets per generator, extended to the longest partition
        seen.
        """
        evaluator = self._evaluators.get(p)
        if evaluator is not None:
            return evaluator
        from .partitions import beta

        indices = sorted({i for mono in self.terms for i, _ in mono})
        plan, dens = [], {}
        for i in indices:
            b = beta(i, p)
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
                        offset.append(offset[-1] + (d**m if p is None or d % p else 0))
                odd = range(1, 2 * rows, 2)
            rim = [x + x - d for x, d in zip(parts, odd)]
            if p is not None:
                rim = [d for d in rim if d % p]
            values = [scale * (sum(map(pow, rim, repeat(m))) - offset[rows]) + shift
                      for m, scale, shift, offset in plan]
            total = 0
            for multiplier, mono in monomials:
                v = multiplier
                for j, e in mono:
                    v *= values[j] ** e
                total += v
            return total

        evaluator = self._evaluators[p] = numerator, denominator
        return evaluator

    def __add__(self, other: "ShiftedSymmetricPoly") -> "ShiftedSymmetricPoly":
        if not isinstance(other, ShiftedSymmetricPoly):
            return NotImplemented
        merged = dict(self.terms)
        for mono, c in other.terms.items():
            merged[mono] = merged.get(mono, 0) + c
        return ShiftedSymmetricPoly(merged)

    def __neg__(self) -> "ShiftedSymmetricPoly":
        return ShiftedSymmetricPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "ShiftedSymmetricPoly") -> "ShiftedSymmetricPoly":
        if not isinstance(other, ShiftedSymmetricPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(
        self, other: Union["ShiftedSymmetricPoly", Scalar]
    ) -> "ShiftedSymmetricPoly":
        if not isinstance(other, ShiftedSymmetricPoly):
            return ShiftedSymmetricPoly(
                {m: c * other for m, c in self.terms.items()}
            )
        out: dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            e1 = dict(m1)
            for m2, c2 in other.terms.items():
                combined = dict(e1)
                for i, e in m2:
                    combined[i] = combined.get(i, 0) + e
                key = tuple(sorted(combined.items()))
                out[key] = out.get(key, 0) + c1 * c2
        return ShiftedSymmetricPoly(out)

    def __rmul__(self, other: Scalar) -> "ShiftedSymmetricPoly":
        return self * other

    def __pow__(self, n: int) -> "ShiftedSymmetricPoly":
        if n < 0:
            raise ValueError("negative powers are not defined here")
        result = ShiftedSymmetricPoly.constant(1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShiftedSymmetricPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "ShiftedSymmetricPoly(0)"
        bits = []
        for mono, c in sorted(self.terms.items()):
            factors = [f"Q{i}" + (f"^{e}" if e > 1 else "") for i, e in mono]
            bits.append("*".join([str(c)] + factors) if factors else str(c))
        return f"ShiftedSymmetricPoly({' + '.join(bits)})"


def bracket_of_polynomial(poly: ShiftedSymmetricPoly, terms: int) -> QExpansion:
    """q-bracket of the pointwise evaluation of a generator polynomial: `qbracket`
    of its integer numerator, divided by its denominator once."""
    numerator, denominator = poly._evaluator(None)
    return scale(qbracket(numerator, terms), Fraction(1, denominator))


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

"""q-brackets: partition averages as exact q-series.

The bracket of a partition function f is (sum over lambda of f(lambda)
q^|lambda|) times the Euler product; the eta prefactor's q^(1/24) cancels
against the averaging weight, so brackets always live on integral q-powers.
The distinguished weight-k bracket series come in two algorithms: a count of
partitions by Frobenius pairs, and a sparse theta-style double sum.  The double
sum is only trusted because the test suite gates it against the count (weights
<= 12 to 30 q-terms, 2, 4, 8 to 200; regularization at 5 and 7).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm, prod
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Union

from .arith import bernoulli, is_prime, regularized_bernoulli
from .series import QExpansion, euler_function, multiply

# Only the enumeration functions use partitions, so they import it when they run.
if TYPE_CHECKING:
    from .partitions import Partition

Scalar = Union[int, Fraction]

__all__ = [
    "FAST_GATE_TERMS",
    "qbracket",
    "ShiftedSymmetricPoly",
    "bracket_of_polynomial",
    "normalized_qbracket",
    "correction_term",
]

# Largest q-truncation at which the double-sum method is oracle-gated by the
# test suite; the CLI refuses longer fast series without an override.
FAST_GATE_TERMS = 30


def qbracket(f: Callable[[Partition], Scalar], terms: int) -> QExpansion:
    """Partition average of f as a q-series with `terms` integral coefficients.

    Truncation is terms + 1, so exponents q^0 .. q^terms are exact.
    """
    from .partitions import enumerate_partitions

    if terms < 0:
        raise ValueError(f"term count must be >= 0, got {terms}")
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

    __slots__ = ("terms", "_plans")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        self._plans: dict[int | None, tuple] = {}
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
        from .partitions import _monomial_sum, c_multiset, doubled_signed_power

        generators, monomials, denominator = self._integer_plan(p)
        doubled = c_multiset(lam)
        values = [doubled_signed_power(doubled, i - 1, p) * scale + shift
                  for i, scale, shift in generators]
        return Fraction(_monomial_sum(values, monomials), denominator)

    def _integer_plan(self, p: int | None):
        """Integer form of the evaluation at regularization p, cached per p.

        Generator i is (S * scale_i + shift_i) / den_i, where S is the doubled
        signed (i-1)-st power sum, den_i = 2^(i-1) (i-1)! times the
        denominator of beta_i, and scale_i is that denominator.  Returns the
        (i, scale_i, shift_i) triples, the monomials as (multiplier, ((triple
        position, exponent), ...)) over one common denominator, and that.
        """
        plan = self._plans.get(p)
        if plan is not None:
            return plan
        from .partitions import beta

        indices = sorted({i for mono in self.terms for i, _ in mono})
        generators, dens = [], {}
        for i in indices:
            b = beta(i, p)
            norm = 2 ** (i - 1) * factorial(i - 1)
            generators.append((i, b.denominator, b.numerator * norm))
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
        plan = self._plans[p] = generators, monomials, denominator
        return plan

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
    """q-bracket of the pointwise evaluation of a generator polynomial, summed
    in integers by `partitions.partition_sums`."""
    from .partitions import partition_sums

    raw = partition_sums(*poly._integer_plan(None), terms)
    return multiply(QExpansion(raw, terms + 1), euler_function(terms + 1))


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
    return _bracket_by_double_sum(k, terms, p)


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
        0 if p is not None and odd % p == 0 else odd**power
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


def _bracket_by_double_sum(k: int, terms: int, p: int | None) -> QExpansion:
    bern = bernoulli(k) if p is None else regularized_bernoulli(k, p)
    # row 1 is the longest, with terms entries
    acc = _collapsed_double_sum(1, terms, _odd_powers(terms, k - 1, p))
    acc[0] = -bern * (2 ** (k - 1) - 1) / (2 * k)  # no row reaches q^0
    return QExpansion({e: c for e, c in enumerate(acc) if c}, terms + 1)


def correction_term(k: int, p: int, terms: int) -> QExpansion:
    """The exact discrepancy series in the regularization identity.

    Double sum over n >= 1 coprime to p and M >= 0 of -(-1)^n (2M+1)^(k-1)
    q^(n(n + p(2M+1))/2); every exponent is an integer, and its Legendre
    symbol at p equals that of 2.
    """
    if k < 2 or k % 2:
        raise ValueError(f"weight must be even and >= 2, got {k}")
    if p == 2 or not is_prime(p):
        raise ValueError(f"modulus {p} is not an odd prime")
    if terms < 0:
        raise ValueError(f"term count must be >= 0, got {terms}")
    # the exponent steps by n p >= p per M, so M < terms / p
    acc = _collapsed_double_sum(p, terms, _odd_powers(terms // p + 1, k - 1))
    return QExpansion({e: c for e, c in enumerate(acc) if c}, terms + 1)

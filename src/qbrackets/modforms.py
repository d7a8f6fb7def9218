"""Level-1 modular machinery on integral q-powers.

Eisenstein series in three normalizations, the exact decomposition of a
bracket series into the weight-graded polynomial ring on (E2, E4, E6), the
mod-p filtration of such a decomposition, and the check of Theorem C built on
them.  A bracket decomposes in closed form, certified on every known
coefficient of its series.  The filtration's lift and descent run in the field
with p elements, multiplying residue lists by Kronecker packing.  Each call
builds the powers it needs once, on one ladder shared by its monomials.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import TYPE_CHECKING, Iterable, Mapping

from .arith import bernoulli, is_prime, require_terms
from .errors import IntegralityError, InternalError, NotQuasimodularError, TruncationError
from .series import QExpansion, Scalar, congruent_mod, multiply, scale

if TYPE_CHECKING:
    from .report import VerificationReport

Triple = tuple[int, int, int]  # powers of (E2, E4, E6)

__all__ = [
    "eisenstein",
    "dim_modular",
    "QuasimodularPoly",
    "quasimodular_monomials",
    "bracket_decomposition",
    "filtration",
    "check_thm_c",
]


def _sigma_table(power: int, terms: int, mod: int | None = None) -> list[int]:
    """sigma_power(n) for n = 0..terms by divisor sieve (index 0 unused); powers mod `mod`."""
    table = [0] * (terms + 1)
    for d in range(1, terms + 1):
        dp = pow(d, power, mod)
        for n in range(d, terms + 1, d):
            table[n] += dp
    return table


def eisenstein(k: int, terms: int, variant: str = "G", p: int | None = None) -> QExpansion:
    """Weight-k Eisenstein series with `terms` integral coefficients.

    "G": constant -B_k/2k, divisor-power coefficients.
    "E": constant 1 (G rescaled by -2k/B_k).
    "G_reg": G minus p^(k-1) G(p tau); drops p-divisible divisors from sigma.
    """
    return QExpansion.from_column(eisenstein_column(k, terms, variant, p))


def eisenstein_column(k: int, terms: int, variant: str, p: int | None) -> list:
    """Dense coefficients of q^0 .. q^terms of `eisenstein(k, terms, variant, p)`."""
    if k < 2 or k % 2:
        raise ValueError(f"Eisenstein weight must be even and >= 2, got {k}")
    require_terms(terms)
    if variant == "G_reg":
        if p is None or not is_prime(p):
            raise ValueError(f"regularized variant needs a prime, got {p}")
    elif p is not None:
        raise ValueError(f"variant {variant!r} takes no prime")
    elif variant not in ("G", "E"):
        raise ValueError(f"unknown variant {variant!r}")
    column = _sigma_table(k - 1, terms)
    constant = -bernoulli(k) / (2 * k)
    if variant == "E":  # G divided by its constant
        factor = 1 / constant
        if factor.denominator == 1:  # k = 2..10 and 14: the coefficients stay int
            factor = factor.numerator
        for e in range(1, terms + 1):  # in place: each old value is freed at once
            column[e] *= factor
        constant = 1
    column[0] = constant
    if variant == "G_reg":
        # G(p tau) has G's coefficient m at q^(m p): subtract p^(k-1) times it
        power = p ** (k - 1)
        column[::p] = [g - power * c for g, c in zip(column[::p], column)]
    return column


class _PowerLadder:
    """Powers of the normalized Eisenstein series E_w (keyed by w) and of delta
    (keyed by "delta"), all with `terms` coefficients: integral QExpansions,
    or with a prime `modulus`, dense lists of residues mod it.

    Built on demand, the n-th power as the (n-1)-th times the base, and kept
    for one call only, so every monomial of that call shares them.
    """

    __slots__ = ("terms", "modulus", "_powers")

    def __init__(self, terms: int, modulus: int | None = None):
        if modulus is not None and (terms + 1) * (modulus - 1) ** 2 >> 64:
            raise ValueError(f"{terms + 1} residues mod {modulus} overflow a 64-bit slot")
        self.terms = terms
        self.modulus = modulus
        self._powers = {}

    def power(self, base: int | str, n: int):
        ladder = self._powers.get(base)
        if ladder is None:
            ladder = self._powers[base] = [self.product(()), self._base(base)]
        while len(ladder) <= n:
            ladder.append(self._times(ladder[-1], ladder[1]))
        return ladder[n]

    def product(self, factors: Iterable[tuple[int | str, int]]):
        """The product of base^n over (base, n) factors; 1 when there are none."""
        out = None
        for base, n in factors:
            if n:
                x = self.power(base, n)
                out = x if out is None else self._times(out, x)
        if out is None:
            return QExpansion.one(self.terms + 1) if self.modulus is None else [1] + [0] * self.terms
        return out

    def _times(self, a, b):
        return multiply(a, b) if self.modulus is None else _packed_multiply(a, b, self.modulus)

    def _base(self, base: int | str):
        p = self.modulus
        if base == "delta":
            if p is None:
                return scale(self.power(4, 3) - self.power(6, 2), Fraction(1, 1728))
            inverse = pow(1728, -1, p)
            return [(x - y) * inverse % p for x, y in zip(self.power(4, 3), self.power(6, 2))]
        if p is None:
            return eisenstein(base, self.terms, "E")
        # -2w/B_w mod p depends only on w mod p - 1 (Kummer) and is 0 when
        # p - 1 divides w (von Staudt-Clausen): E_(p+1) = E_2, E_(p-1) = 1
        w = base % (p - 1)
        factor = _mod_p(-2 * w / bernoulli(w), p, f"the scale of E{base}") if w else 0
        return [1] + [factor * s % p for s in _sigma_table(base - 1, self.terms, p)[1:]]


def _packed_multiply(a: list[int], b: list[int], p: int) -> list[int]:
    """Truncated product mod p of two residue lists of one length, by Kronecker
    substitution: a 64-bit slot per coefficient and one big-integer multiply.
    Slots cannot carry while len(a) * (p-1)^2 < 2^64, which the ladder checks."""
    rows = len(a)
    layout = f"<{rows}Q"
    x = int.from_bytes(struct.pack(layout, *a), "little")
    y = int.from_bytes(struct.pack(layout, *b), "little")
    return [v % p for v in struct.unpack_from(layout, (x * y).to_bytes(16 * rows, "little"))]


def dim_modular(weight: int) -> int:
    """Dimension of the classical level-1 weight space."""
    if weight < 0 or weight % 2:
        return 0
    if weight % 12 == 2:
        return weight // 12
    return weight // 12 + 1


def _miller_row(weight: int, i: int, ladder: _PowerLadder):
    """delta^i E4^a E6^b of the given weight with b in {0, 1}: q^i + ..."""
    b = (weight - 12 * i) % 4 // 2
    return ladder.product(((4, (weight - 12 * i - 6 * b) // 4), (6, b), ("delta", i)))


class QuasimodularPoly:
    """Homogeneous polynomial in (E2, E4, E6): exponent triple -> coefficient.

    Every triple (a, b, c) satisfies 2a + 4b + 6c = weight.
    """

    __slots__ = ("terms", "weight")

    def __init__(self, terms: Mapping[Triple, Scalar], weight: int):
        if weight < 0 or weight % 2:
            raise ValueError(f"weight must be a non-negative even integer, got {weight}")
        clean: dict[Triple, Scalar] = {}
        for (a, b, c), coeff in terms.items():
            if coeff == 0:
                continue
            if min(a, b, c) < 0 or 2 * a + 4 * b + 6 * c != weight:
                raise ValueError(f"triple {(a, b, c)} is not homogeneous of weight {weight}")
            clean[a, b, c] = coeff
        self.terms = clean
        self.weight = weight

    def coefficient(self, triple: Triple) -> Scalar:
        return self.terms.get(triple, 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuasimodularPoly):
            return NotImplemented
        return self.weight == other.weight and self.terms == other.terms

    def __hash__(self):
        return hash((self.weight, frozenset(self.terms.items())))

    def __repr__(self):
        bits = [
            f"{coeff}*E2^{a}*E4^{b}*E6^{c}"
            for (a, b, c), coeff in sorted(self.terms.items())
        ]
        return f"QuasimodularPoly({' + '.join(bits) or '0'}; weight={self.weight})"


def quasimodular_monomials(weight: int) -> list[Triple]:
    """All (a, b, c) with 2a + 4b + 6c = weight, E2-degree descending."""
    out = []
    for c in range(weight // 6 + 1):
        for b in range((weight - 6 * c) // 4 + 1):
            rest = weight - 4 * b - 6 * c
            if rest % 2 == 0:
                out.append((rest // 2, b, c))
    out.sort(reverse=True)
    return out


def bracket_decomposition(s: QExpansion, weight: int) -> QuasimodularPoly:
    """The weight-k `normalized_qbracket` in closed form, certified on its series `s`:
    the polynomial's series must equal `s` on every known coefficient, at least
    one more than there are monomials of the weight."""
    num, den = _bracket_closed_form(weight)
    need = len(quasimodular_monomials(weight)) + 1
    if s.truncation < need:
        raise TruncationError(f"need {need} coefficients to decompose "
                              f"at weight {weight}, have {s.truncation}")
    ladder = _PowerLadder(s.truncation - 1)
    series = {(a, b, c): ladder.product(((2, a), (4, b), (6, c))).terms for a, b, c in num}
    for n in range(s.truncation):
        got = sum(x * series[m].get(n, 0) for m, x in num.items())
        if got != den * s.coefficient(n):
            raise NotQuasimodularError(n)
    return QuasimodularPoly({m: Fraction(x, den) for m, x in num.items()}, weight)


def _bracket_closed_form(weight: int) -> tuple[dict[Triple, int], int]:
    """Numerators by monomial, over one denominator, of the normalized weight-k
    bracket.  Zagier (Ramanujan J. 41, 2016): sum_k <Q_k>_q X^(k-1) = 1/Theta(X), so
    the bracket is 2^(k-2) (k-1)! e_k, where n e_n = sum_j c_(j/2-1) e_(n-j) / (j-1),
    e_0 = 1, c_0 = -E2/12 and the Weierstrass coefficients c_n of (E4, E6) start
    c_1 = E4/240, c_2 = -E6/6048 and go on as 3/((2n+3)(n-2)) sum c_m c_(n-1-m).
    """
    if weight < 1:
        raise ValueError(f"the normalized bracket needs weight >= 1, got {weight}")
    if weight % 2:  # odd brackets vanish
        return {}, 1
    def combination(parts):  # sum of r x y over (Fraction r, polynomial x, polynomial y)
        den = lcm(*(r.denominator * x[1] * y[1] for r, x, y in parts))
        out: dict[Triple, int] = {}
        for r, (xs, dx), (ys, dy) in parts:
            f = r.numerator * den // (r.denominator * dx * dy)
            for (a, b, c), u in xs.items():
                for (a2, b2, c2), v in ys.items():
                    out[a + a2, b + b2, c + c2] = out.get((a + a2, b + b2, c + c2), 0) + f * u * v
        g = gcd(den, *out.values())
        return {m: v // g for m, v in out.items() if v}, den // g
    c = {0: ({(1, 0, 0): -1}, 12), 1: ({(0, 1, 0): 1}, 240), 2: ({(0, 0, 1): -1}, 6048)}
    for n in range(3, weight // 2):
        c[n] = combination([(Fraction(3, (2 * n + 3) * (n - 2)), c[m], c[n - 1 - m])
                            for m in range(1, n - 1)])
    e = {0: ({(0, 0, 0): 1}, 1)}
    for n in range(2, weight + 1, 2):
        e[n] = combination([(Fraction(1, n * (j - 1)), c[j // 2 - 1], e[n - j])
                            for j in range(2, n + 1, 2)])
    return combination([(Fraction(2 ** (weight - 2) * factorial(weight - 1)), e[weight], e[0])])


def _mod_p(x: Scalar, p: int, what: str) -> int:
    f = Fraction(x)
    if f.denominator % p == 0:
        raise IntegralityError(0, f"{what} is not {p}-integral")
    return f.numerator * pow(f.denominator, -1, p) % p


def _lifted_target(d: QuasimodularPoly, p: int) -> tuple[list[int], int, _PowerLadder]:
    """Mod-p coefficients of the E2-free weight-k(p+1)/2 lift up to the
    Sturm-type bound, the lifted weight, and the mod-p ladder it was built on."""
    if p < 5 or not is_prime(p):
        raise ValueError(f"filtration needs a prime >= 5, got {p}")
    k = d.weight
    lifted_weight = k * (p + 1) // 2
    ladder = _PowerLadder(lifted_weight // 12 + 1, p)  # Sturm-type comparison bound
    residues = {t: _mod_p(c, p, f"coefficient at {t}") for t, c in d.terms.items()}
    target = [0] * (ladder.terms + 1)
    for (a, b, c), r in sorted(residues.items()):
        if r:
            mono = ladder.product(((4, b), (6, c), (p + 1, a), (p - 1, k // 2 - a)))
            target = [(t + r * m) % p for t, m in zip(target, mono)]
    return target, lifted_weight, ladder


def filtration(d: QuasimodularPoly, p: int) -> int:
    """Least weight of a level-1 form congruent mod p to the lifted reduction.

    The E2-free lift replaces E2 by the weight-(p+1) Eisenstein series and pads
    every monomial to weight k(p+1)/2 with powers of the weight-(p-1) series
    (both substitutions are mod-p identities).  Descent then walks candidate
    weights upward in steps of p-1 from the least, testing membership mod p up
    to the Sturm-type bound: row i of weight w, delta^i E4^a E6^b, is q^i + ...,
    so the target is in their span iff clearing its first dim entries with them
    leaves zero.  Returns 0 for a series that vanishes identically mod p.
    """
    target, lifted_weight, ladder = _lifted_target(d, p)
    if not any(target):
        return 0
    for w in range(lifted_weight % (p - 1), lifted_weight + 1, p - 1):
        rest = target
        for i in range(dim_modular(w)):
            c = rest[i]
            if c:
                rest = [(x - c * y) % p for x, y in zip(rest, _miller_row(w, i, ladder))]
        if not any(rest):
            return w
    raise InternalError(f"no weight up to {lifted_weight} matched; the lift must lie in that space")


def check_thm_c(p: int, k: int) -> VerificationReport:
    """The mod-p filtration of the weight-k bracket is k(p+1)/2 for k < p.

    Decomposes the bracket into quasimodular monomials (in closed form,
    certified on the bracket's series) and walks its lifted reduction mod p up
    the weight ladder, then confirms that the plain and regularized brackets
    agree mod p (so the filtration statement covers both).  The brackets'
    truncation is the Sturm-type bound of weight k(p+1)/2; the filtration runs
    first, so a prime it refuses is refused before the brackets are expanded
    that far.  A failing congruence is the witness; otherwise a filtration
    mismatch is reported with witness exponent 0 and the two weights as the
    values.
    """
    # imported here, so that eisenstein, decompose and filtration load neither
    from .brackets import normalized_qbracket
    from .report import VerificationReport, _require_even_weight, _require_prime

    _require_prime(p)
    _require_even_weight(k)
    params = {"p": p, "k": k}
    expected = k * (p + 1) // 2
    if p < 5 or k >= p or k % (p - 1) == 0:
        return VerificationReport("thm-c", params, 0)
    depth = len(quasimodular_monomials(k)) + 3
    decomposition = bracket_decomposition(normalized_qbracket(k, depth), k)
    got = filtration(decomposition, p)
    terms = max(10, expected // 12 + 2)
    plain = normalized_qbracket(k, terms)
    regularized = normalized_qbracket(k, terms, p)
    witness = congruent_mod(plain, regularized, p, 1)
    if witness is None and got != expected:
        witness = (0, str(got), str(expected))
    return VerificationReport("thm-c", params, terms + 1, witness)

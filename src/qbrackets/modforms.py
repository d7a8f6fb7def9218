"""Level-1 modular machinery on integral q-powers.

Eisenstein series as q-expansions of the columns that `divisors` builds
(this layer builds none of its own), the exact decomposition of a bracket
series into the weight-graded polynomial ring on (E2, E4, E6), the mod-p
filtration of such a decomposition, the check of Theorem C built on
them, and the documents of `decompose` and `filtration`.  A bracket
decomposes in closed form, certified on every known coefficient of its
column.  Everything runs on four bases, E2, E4, E6 and delta: products of
integer or residue columns are Kronecker-packed, on one ladder of powers
per call, shared by its monomials.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import TYPE_CHECKING, Iterable, Mapping

from .arith import is_prime
from .divisors import eisenstein_column
from .errors import IntegralityError, InternalError, NotQuasimodularError, TruncationError

if TYPE_CHECKING:
    from types import SimpleNamespace

    from .cli import SeriesDocument
    from .report import VerificationReport
    from .series import QExpansion, Scalar

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


def eisenstein(k: int, terms: int, variant: str = "G", p: int | None = None) -> QExpansion:
    """Weight-k Eisenstein series with `terms` integral coefficients, in the
    variant "G", "E" or "G_reg" of `divisors.eisenstein_column`."""
    from .series import QExpansion

    return QExpansion.from_column(eisenstein_column(k, terms, variant, p))


class _PowerLadder:
    """Powers of the normalized Eisenstein series E2, E4 and E6 (keyed by their
    weight) and of delta (keyed by "delta", residues only), as columns of
    `terms` + 1 integers, or of residues mod a prime `modulus`.

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
            ladder.append(_packed_multiply(ladder[-1], ladder[1], self.modulus))
        return ladder[n]

    def product(self, factors: Iterable[tuple[int | str, int]]):
        """The product of base^n over (base, n) factors; 1 when there are none."""
        out = None
        for base, n in factors:
            if n:
                x = self.power(base, n)
                out = x if out is None else _packed_multiply(out, x, self.modulus)
        return [1] + [0] * self.terms if out is None else out

    def combination(self, coefficients: Mapping[Triple, int]) -> list[int]:
        """The column of the sum of x E2^a E4^b E6^c over (a, b, c) -> x, exact
        or mod the modulus; each monomial's column is dropped once added."""
        out = [0] * (self.terms + 1)
        for m, x in coefficients.items():
            if x:
                out = [t + x * v for t, v in zip(out, self.product(zip((2, 4, 6), m)))]
        return out if self.modulus is None else [t % self.modulus for t in out]

    def _base(self, base: int | str):
        p = self.modulus
        if base == "delta":  # (E4^3 - E6^2) / 1728
            inverse = pow(1728, -1, p)
            return [(x - y) * inverse % p for x, y in zip(self.power(4, 3), self.power(6, 2))]
        column = eisenstein_column(base, self.terms, "E", None)  # -24, 240, -504 times sigma
        return column if p is None else [c % p for c in column]


def _packed_multiply(a: list[int], b: list[int], p: int | None) -> list[int]:
    """Truncated product of two columns of one length by Kronecker substitution.

    Residues mod p take 64-bit slots, safe while len(a) (p-1)^2 < 2^64 (the
    ladder checks).  Integers (p None) take signed byte slots wide enough for
    max|a| max|b| len(a); `bias`, each slot's top bit, maps two's complement
    to signed values."""
    rows = len(a)
    if p is not None:
        layout = f"<{rows}Q"
        x, y = (int.from_bytes(struct.pack(layout, *c), "little") for c in (a, b))
        return [v % p for v in struct.unpack_from(layout, (x * y).to_bytes(16 * rows, "little"))]
    top_a, top_b = max(map(abs, a)), max(map(abs, b))
    width = max(top_a * top_b * rows, top_a, top_b).bit_length() // 8 + 1
    size = width * rows
    bias = int.from_bytes(b"\x80".rjust(width, b"\0") * rows, "little")
    x, y = ((int.from_bytes(b"".join([v.to_bytes(width, "little", signed=True) for v in c]),
                            "little") ^ bias) - bias for c in (a, b))
    data = (((x * y + bias) & ~(-1 << 8 * size)) ^ bias).to_bytes(size, "little")
    return [int.from_bytes(data[i:i + width], "little", signed=True) for i in range(0, size, width)]


def dim_modular(weight: int) -> int:
    """Dimension of the classical level-1 weight space."""
    if weight < 0 or weight % 2:
        return 0
    return weight // 12 + (weight % 12 != 2)


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
        clean = {}
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
    return sorted((((weight - 4 * b - 6 * c) // 2, b, c) for c in range(weight // 6 + 1)
                   for b in range((weight - 6 * c) // 4 + 1) if weight % 2 == 0), reverse=True)


def bracket_decomposition(s, weight: int) -> QuasimodularPoly:
    """The weight-k `normalized_qbracket` in closed form, certified on its
    column `s` (a list, or a QExpansion, read as len(s) and s[n]): the
    polynomial's series must equal `s` on every known coefficient, at least
    one more than there are monomials of the weight."""
    num, den = _bracket_closed_form(weight)
    need = len(quasimodular_monomials(weight)) + 1
    rows = len(s)
    if rows < need:
        raise TruncationError(f"need {need} coefficients to decompose "
                              f"at weight {weight}, have {rows}")
    for n, x in enumerate(_PowerLadder(rows - 1).combination(num)):
        if x != den * s[n]:
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
        out = {}
        for r, (xs, dx), (ys, dy) in parts:
            f = r.numerator * den // (r.denominator * dx * dy)
            for (a, b, c), u in xs.items():
                for (a2, b2, c2), v in ys.items():
                    t = a + a2, b + b2, c + c2
                    out[t] = out.get(t, 0) + f * u * v
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


def filtration(d: QuasimodularPoly, p: int) -> int:
    """Least weight of a level-1 form congruent mod p to the lifted reduction.

    The E2-free lift of weight k(p+1)/2 replaces E2 by the weight-(p+1)
    Eisenstein series and pads every monomial with powers of the weight-(p-1)
    one.  Since E_(p+1) = E2 and E_(p-1) = 1 mod p for p >= 5, its q-expansion
    mod p is d's own on E2, E4 and E6, which is the target, up to the
    Sturm-type bound of weight k(p+1)/2.  Descent then walks candidate weights
    upward in steps of p-1 from the least, testing membership mod p: row i of
    weight w, delta^i E4^a E6^b, is q^i + ..., so the target is in their span
    iff clearing its first dim entries with them leaves zero.  Returns 0 for a
    series that vanishes identically mod p.
    """
    if p < 5 or not is_prime(p):
        raise ValueError(f"filtration needs a prime >= 5, got {p}")
    lifted_weight = d.weight * (p + 1) // 2
    ladder = _PowerLadder(lifted_weight // 12 + 1, p)  # Sturm-type comparison bound
    residues = {}
    for t, c in d.terms.items():
        f = Fraction(c)
        if f.denominator % p == 0:
            raise IntegralityError(0, f"coefficient at {t} is not {p}-integral")
        residues[t] = f.numerator * pow(f.denominator, -1, p) % p
    target = ladder.combination(residues)
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
    from .brackets import bracket_column
    from .report import (
        VerificationReport,
        _require_even_weight,
        _require_prime,
        congruent_mod,
        first_difference,
    )

    _require_prime(p)
    _require_even_weight(k)
    params = {"p": p, "k": k}
    expected = k * (p + 1) // 2
    if p < 5 or k >= p or k % (p - 1) == 0:
        return VerificationReport("thm-c", params, 0)
    depth = len(quasimodular_monomials(k)) + 3
    got = filtration(bracket_decomposition(bracket_column(k, depth, None), k), p)
    terms = max(10, expected // 12 + 2)
    witness = congruent_mod(bracket_column(k, terms, None), bracket_column(k, terms, p), p, 1)
    # else a filtration mismatch: the two weights as one-entry columns
    witness = witness or first_difference([got], [expected])
    return VerificationReport("thm-c", params, terms + 1, witness)


def _decomposition_document(args: SimpleNamespace) -> tuple[SeriesDocument, int]:
    """The report of `decompose` or `filtration`, both read off the weight-k
    bracket's (E2, E4, E6) decomposition, and its exit code.  A bracket that
    fails its certificate is a failed `decompose` and a bug in `filtration`."""
    from .brackets import bracket_column
    from .cli import Q_POWER, SeriesDocument, canonical_fraction

    meta = {"claim": args.command, "k": str(args.k)}
    filtrating = args.command == "filtration"
    if filtrating:
        if args.p < 5 or not is_prime(args.p):
            raise ValueError(f"filtration needs a prime >= 5, got {args.p}")
        meta["p"] = str(args.p)
    terms = len(quasimodular_monomials(args.k)) + 3
    if not filtrating and args.terms is not None:
        terms = args.terms
    code = 0
    try:
        decomposition = bracket_decomposition(bracket_column(args.k, terms, None), args.k)
    except NotQuasimodularError as exc:
        if filtrating:
            raise
        meta.update(verdict="fail", witness_exponent=str(exc.exponent))
        code = 1
    else:
        if filtrating:
            meta["filtration"] = str(filtration(decomposition, args.p))
        else:
            meta["verdict"] = "pass"
            for (a, b, c), coeff in sorted(decomposition.terms.items()):
                meta[f"E2^{a}*E4^{b}*E6^{c}"] = canonical_fraction(coeff)
    return SeriesDocument("report", args.k, Q_POWER, terms + 1, (), meta), code

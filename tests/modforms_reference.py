"""References for the modular layer that only the tests use.

`leading_g2_coefficient` checks the top E2 coefficient of a decomposition
against its closed form; `reduces_to_zero_mod_p` asks whether the lifted
mod-p reduction that `filtration` starts from vanishes.  `delta` and
`miller_basis` build the discriminant and the echelonized weight spaces
that `filtration` walks mod p.  `quasi_decompose` solves for the
(E2, E4, E6) decomposition of any series by integer elimination,
independently of the closed form that `bracket_decomposition` certifies, and
`poly_series` expands a decomposition back into its q-series.  All of them
multiply QExpansions with `series_reference.multiply`, a convolution that shares no
code with the Kronecker-packed columns of `modforms._PowerLadder`, so the
decomposition they check does not check its own product.
`eisenstein_by_series` builds the three Eisenstein normalizations by series
arithmetic from divisor sums found by trial division, as the reference for
the dense columns of `eisenstein_column`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from qbrackets.arith import bernoulli
from qbrackets.errors import InternalError, NotQuasimodularError, TruncationError
from qbrackets.modforms import (
    QuasimodularPoly,
    Triple,
    _lifted_target,
    _miller_row,
    dim_modular,
    eisenstein,
    quasimodular_monomials,
)
from qbrackets.series import QExpansion

from series_reference import add, multiply, one, scale


def eisenstein_by_series(k: int, terms: int, variant: str, p: int | None = None) -> QExpansion:
    """The weight-k Eisenstein series through q^terms as a series: G is
    -B_k/2k plus the divisor sums sigma_(k-1)(n) q^n, E is G scaled by
    -2k/B_k, and G_reg is G - p^(k-1) G(q^p)."""
    sigma = {n: sum(d ** (k - 1) for d in range(1, n + 1) if n % d == 0)
             for n in range(1, terms + 1)}
    g = QExpansion({0: -bernoulli(k) / (2 * k), **sigma}, terms + 1)
    if variant == "E":
        return scale(g, -2 * k / bernoulli(k))
    if variant == "G_reg":
        g_of_q_p = QExpansion({p * e: c for e, c in g.terms.items()}, terms + 1)  # q -> q^p
        return add(g, scale(g_of_q_p, -(p ** (k - 1))))
    return g


def leading_g2_coefficient(d: QuasimodularPoly) -> tuple[Fraction, Fraction]:
    """Top E2-degree coefficient of a weight-k decomposition, with the closed form.

    Returns (extracted, expected) where expected is
    (k-1)!! 8^(k/2-1) / (k/2) times (-1/24)^(k/2).
    """
    k = d.weight
    if k < 2 or k % 2:
        raise ValueError(f"weight must be even and >= 2, got {k}")
    half = k // 2
    got = Fraction(d.coefficient((half, 0, 0)))
    double_factorial = prod(range(k - 1, 0, -2))
    expected = Fraction(double_factorial * 8 ** (half - 1), half) * Fraction(-1, 24) ** half
    return got, expected


def reduces_to_zero_mod_p(d: QuasimodularPoly, p: int) -> bool:
    """True when the mod-p reduction vanishes up to the Sturm-type bound."""
    return not any(_lifted_target(d, p)[0])


class _SeriesLadder:
    """Powers of E_w (keyed by the weight w) and of delta (keyed by "delta")
    through q^terms, as QExpansions multiplied by `series_reference.multiply`; it
    stands in for `modforms._PowerLadder` where `_miller_row` picks a row's
    monomial."""

    def __init__(self, terms: int):
        self.terms = terms
        self.powers: dict = {}

    def power(self, base, n: int) -> QExpansion:
        ladder = self.powers.get(base)
        if ladder is None:
            if base == "delta":
                cube_minus_square = add(self.power(4, 3), scale(self.power(6, 2), -1))
                first = scale(cube_minus_square, Fraction(1, 1728))
            else:
                first = eisenstein(base, self.terms, "E")
            ladder = self.powers[base] = [one(self.terms + 1), first]
        while len(ladder) <= n:
            ladder.append(multiply(ladder[-1], ladder[1]))
        return ladder[n]

    def product(self, factors) -> QExpansion:
        """The product of base^n over (base, n) factors."""
        out = one(self.terms + 1)
        for base, n in factors:
            out = multiply(out, self.power(base, n))
        return out


def delta(terms: int) -> QExpansion:
    """The discriminant: (E4^3 - E6^2)/1728, leading coefficient 1 at q^1."""
    if terms < 1:
        raise ValueError(f"need at least one term, got {terms}")
    return _SeriesLadder(terms).power("delta", 1)


def miller_basis(weight: int, terms: int) -> list[QExpansion]:
    """Echelonized basis of the weight space: element i starts q^i + O(q^dim).

    Spanned by delta^i E4^a E6^b with b in {0, 1}; exact row reduction.  Needs
    terms >= dim so the echelon block is fully determined.
    """
    if weight < 0 or weight % 2:
        raise ValueError(f"weight must be a non-negative even integer, got {weight}")
    d = dim_modular(weight)
    if d == 0:
        return []
    if terms < d:
        raise TruncationError(f"need at least {d} terms for weight {weight}, got {terms}")
    ladder = _SeriesLadder(terms)
    rows = [_miller_row(weight, i, ladder) for i in range(d)]
    # rows[i] = q^i + ...: clear above-diagonal entries back to front
    for i in range(d - 1, -1, -1):
        row = rows[i]
        for j in range(i + 1, d):
            c = row.coefficient(j)
            if c:
                row = add(row, scale(rows[j], -c))
        rows[i] = row
    return rows


def poly_series(d: QuasimodularPoly, terms: int) -> QExpansion:
    """The q-series of a decomposition, with `terms` + 1 coefficients."""
    ladder = _SeriesLadder(terms)
    out = QExpansion({}, terms + 1)
    for (a, b, c), coeff in sorted(d.terms.items()):
        out = add(out, scale(ladder.product(((2, a), (4, b), (6, c))), coeff))
    return out


def _monomial_series(s: QExpansion, weight: int, margin: int) -> dict[Triple, QExpansion]:
    """Monomial -> series to the truncation of `s`, which must exceed their count by `margin`."""
    if margin < 1:
        raise ValueError(f"margin must be >= 1, got {margin}")
    monomials = quasimodular_monomials(weight)
    if s.truncation < len(monomials) + margin:
        raise TruncationError(f"need {len(monomials) + margin} coefficients to decompose "
                              f"at weight {weight}, have {s.truncation}")
    ladder = _SeriesLadder(s.truncation - 1)
    return {(a, b, c): ladder.product(((2, a), (4, b), (6, c))) for a, b, c in monomials}


def _certified(s: QExpansion, weight: int, series: dict, num: dict, den: int) -> QuasimodularPoly:
    """The sum of num[m]/den times monomial m, once its series equals `s` to truncation."""
    for n in range(s.truncation):
        got = sum(x * series[m].terms.get(n, 0) for m, x in num.items())
        if got != den * s.coefficient(n):
            raise NotQuasimodularError(n)
    return QuasimodularPoly({m: Fraction(x, den) for m, x in num.items()}, weight)


def quasi_decompose(s: QExpansion, weight: int, margin: int = 1) -> QuasimodularPoly:
    """Exact decomposition of a q-series over the weight-graded
    (E2, E4, E6) monomials, certified on every known coefficient.

    Fraction-free (Bareiss) elimination over the integers: the monomial
    columns are integral and the target column is cleared by the lcm of its
    denominators.  The square system on the first dim pivots fixes the
    candidate; the remaining known coefficients (at least `margin` of them)
    must agree exactly, else the series is not quasimodular of this weight.
    """
    series = _monomial_series(s, weight, margin)
    dim = len(series)
    rows = s.truncation  # known coefficients q^0 .. q^(rows-1)
    target = [s.coefficient(n) for n in range(rows)]
    den = lcm(*(c.denominator for c in target))
    mat = [
        [ser.terms.get(n, 0) for ser in series.values()] + [c.numerator * (den // c.denominator)]
        for n, c in enumerate(target)
    ]
    # Bareiss: after step r every entry below the pivots is an (r+1)-minor of
    # the row-permuted system, so each division by the previous pivot is exact.
    prev = 1
    for r in range(dim):
        pivot = next((i for i in range(r, rows) if mat[i][r] != 0), None)
        if pivot is None:
            raise InternalError(
                f"monomial matrix at weight {weight} is singular; this is a bug"
            )
        mat[r], mat[pivot] = mat[pivot], mat[r]
        piv, tail = mat[r][r], mat[r][r + 1 :]
        for row in mat[r + 1 :]:
            f = row[r]
            row[r + 1 :] = [(piv * x - f * y) // prev for x, y in zip(row[r + 1 :], tail)]
        prev = piv
    # back-substitution: x_j = y_j / det with integral y_j (Cramer's rule)
    y = [0] * dim
    for r in range(dim - 1, -1, -1):
        row = mat[r]
        y[r] = (prev * row[dim] - sum(row[j] * y[j] for j in range(r + 1, dim))) // row[r]
    return _certified(s, weight, series, dict(zip(series, y)), prev * den)

"""References for the modular layer that only the tests use.

`leading_g2_coefficient` checks the top E2 coefficient of a decomposition
against its closed form; `reduces_to_zero_mod_p` asks whether the lifted
mod-p reduction that `filtration` starts from vanishes.  `delta` and
`miller_basis` build the discriminant and the echelonized weight spaces on
the integral ladder that `filtration` walks mod p.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from qbrackets.errors import TruncationError
from qbrackets.modforms import (
    QuasimodularPoly,
    _lifted_target,
    _miller_row,
    _PowerLadder,
    dim_modular,
)
from qbrackets.series import QExpansion, scale


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


def delta(terms: int) -> QExpansion:
    """The discriminant: (E4^3 - E6^2)/1728, leading coefficient 1 at q^1."""
    if terms < 1:
        raise ValueError(f"need at least one term, got {terms}")
    return _PowerLadder(terms).power("delta", 1)


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
    ladder = _PowerLadder(terms)
    rows = [_miller_row(weight, i, ladder) for i in range(d)]
    # rows[i] = q^i + ...: clear above-diagonal entries back to front
    for i in range(d - 1, -1, -1):
        row = rows[i]
        for j in range(i + 1, d):
            c = row.coefficient(j)
            if c:
                row = row - scale(rows[j], c)
        rows[i] = row
    return rows

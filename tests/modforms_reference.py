"""Closed-form references for the modular layer that only the tests use.

`leading_g2_coefficient` checks the top E2 coefficient of a decomposition
against its closed form; `reduces_to_zero_mod_p` asks whether the lifted
mod-p reduction that `filtration` starts from vanishes.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from qbrackets.modforms import QuasimodularPoly, _lifted_target


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

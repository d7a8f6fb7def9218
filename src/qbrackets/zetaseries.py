"""Two-variable series: columns of Laurent polynomials in zeta, indexed by q-power.

A series is a plain list of ZetaLaurent whose entry n is the coefficient of
q^n, times a fixed power q^(s/24) that the caller keeps: theta and the eta
cube sit at q^(n + 1/8), eta at q^(n + 1/24) and the partition zeta sum at
q^(n - 1/24), so their products with each other land on integral q-powers
or at q^(n + 1/8).  Units of q^(1/24) appear only in the witnesses of the
two-variable checks (`jacobi`, `doublesum`): entry n of a series at
q^(s/24) is at 24n + s units.  Zeta exponents are plain (possibly
negative) integers.  The simple pole of the bracket kernel in zeta is never
stored: `jacobi` clears it by hand, as the constant 1 of eq65, and compares
its one-sided expansion (`one_sided_pole_expansion`) in prop21.
Coefficients are exact scalars; the kernels of `jacobi` reach this layer
doubled, so their products run on integers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import NotAntisymmetricError

if TYPE_CHECKING:  # the q-series layer is a type here, so the kernel streams never load it
    from .series import Scalar

__all__ = [
    "ZetaLaurent",
    "column_product",
    "divide_antisymmetric",
    "one_sided_pole_expansion",
]


class ZetaLaurent:
    """Finite Laurent polynomial in zeta: exponent -> coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Scalar] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    @classmethod
    def constant(cls, c: Scalar) -> "ZetaLaurent":
        return cls({0: c})

    @classmethod
    def antisymmetric(cls, m: int, c: Scalar = 1) -> "ZetaLaurent":
        """c * (zeta^m - zeta^(-m)) for m >= 1."""
        if m < 1:
            raise ValueError(f"antisymmetric exponent must be >= 1, got {m}")
        return cls({m: c, -m: -c})

    def is_zero(self) -> bool:
        return not self.terms

    def is_antisymmetric(self) -> bool:
        return all(self.terms.get(-m, 0) == -c for m, c in self.terms.items())

    def filter_exponents(self, p: int, keep: str) -> "ZetaLaurent":
        if keep == "divisible":
            return ZetaLaurent({m: c for m, c in self.terms.items() if m % p == 0})
        if keep == "coprime":
            return ZetaLaurent({m: c for m, c in self.terms.items() if m % p})
        raise ValueError(f"keep must be 'divisible' or 'coprime', got {keep!r}")

    def __add__(self, other: "ZetaLaurent") -> "ZetaLaurent":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return ZetaLaurent(out)

    def __mul__(self, other: ZetaLaurent | Scalar) -> ZetaLaurent:
        if not isinstance(other, ZetaLaurent):
            return ZetaLaurent({m: c * other for m, c in self.terms.items()})
        out: dict[int, Scalar] = {}
        _convolve(out, self.terms.items(), other.terms.items())
        return ZetaLaurent(out)

    def __rmul__(self, other: Scalar) -> "ZetaLaurent":
        return self * other

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZetaLaurent):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        bits = [f"{c}*z^{m}" for m, c in sorted(self.terms.items())]
        return f"ZetaLaurent({' + '.join(bits) or '0'})"


def _convolve(
    out: dict[int, Scalar], a: Iterable[tuple[int, Scalar]], b: Iterable[tuple[int, Scalar]]
) -> None:
    """Add the Laurent product of two (exponent, coefficient) collections into out."""
    for m1, c1 in a:
        for m2, c2 in b:
            m = m1 + m2
            out[m] = out.get(m, 0) + c1 * c2


def column_product(a: list[ZetaLaurent], b: list[ZetaLaurent]) -> list[ZetaLaurent]:
    """The product of two series, through the shorter one's length: entry n
    sums the Laurent products of entries i and n - i, zero entries skipped."""
    length = min(len(a), len(b))
    b_items = [(j, list(lau.terms.items())) for j, lau in enumerate(b[:length]) if lau.terms]
    out: list[dict[int, Scalar]] = [{} for _ in range(length)]
    for i, lau in enumerate(a[:length]):
        if lau.terms:
            for j, items in b_items:
                if i + j >= length:
                    break
                _convolve(out[i + j], lau.terms.items(), items)
    return [ZetaLaurent(acc) for acc in out]


def divide_antisymmetric(column: list[ZetaLaurent], shift: int = 0) -> list[ZetaLaurent]:
    """Exact division of a series by (zeta - zeta^(-1)), entry by entry.

    Uses zeta^m - zeta^(-m) = (zeta - zeta^(-1)) (zeta^(m-1) + zeta^(m-3) + ...
    + zeta^(-(m-1))), so every entry must be antisymmetric; entry n of a
    series at q^(shift/24) that is not is refused at 24n + shift units.
    """
    out = []
    for n, lau in enumerate(column):
        if not lau.is_antisymmetric():
            raise NotAntisymmetricError(24 * n + shift)
        q: dict[int, Scalar] = {}
        for m, c in lau.terms.items():
            if m <= 0:
                continue
            for j in range(m - 1, -m, -2):
                q[j] = q.get(j, 0) + c
        out.append(ZetaLaurent(q))
    return out


def one_sided_pole_expansion(m: int, cap: int) -> ZetaLaurent:
    """One-sided expansion of 1/(zeta^m - zeta^(-m)): minus the sum of
    zeta^(m(2i+1)) over i >= 0, kept up to zeta-degree cap."""
    if m < 1:
        raise ValueError(f"pole order must be >= 1, got {m}")
    return ZetaLaurent({j: -1 for j in range(m, cap + 1, 2 * m)})

"""Bivariate series: q-expansions whose coefficients are Laurent polynomials in zeta.

q-exponents live on a 1/24 grid: exponent u stands for q^(u/24), so the eta
prefactor q^(1/24) is 1 unit and q^n is 24n units.  The grid is this layer's
and the two-variable checks' (`jacobi`, `doublesum`) alone: one-variable
q-series (dense columns, indexed by q-power) enter it only through
`ZetaQExpansion.from_q`, and no q-series is read back off it.  A
ZetaQExpansion reads as a column of its own units: len(s) is its
truncation and s[e] its coefficient.  Zeta exponents are plain (possibly
negative) integers.  A ZetaQExpansion may carry a symbolic pole part, a
list of summands c/(zeta^m - zeta^(-m)) that are never expanded implicitly;
identity checks clear them by multiplying through by the antisymmetric
binomials or match them structurally.  Coefficients are exact scalars; the
kernels of `jacobi` reach this layer doubled, so their products run on
integers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import NotAntisymmetricError, PoleNotClearedError, TruncationError

if TYPE_CHECKING:  # the q-series layer is a type here, so the kernel streams never load it
    from .series import Scalar

__all__ = [
    "ZetaLaurent",
    "ZetaQExpansion",
    "zq_add",
    "zq_multiply",
    "zeta_filter",
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


# the coefficient of every exponent a series stores none for; like every
# ZetaLaurent, never changed once built
_ZERO = ZetaLaurent()


def _convolve(
    out: dict[int, Scalar], a: Iterable[tuple[int, Scalar]], b: Iterable[tuple[int, Scalar]]
) -> None:
    """Add the Laurent product of two (exponent, coefficient) collections into out."""
    for m1, c1 in a:
        for m2, c2 in b:
            m = m1 + m2
            out[m] = out.get(m, 0) + c1 * c2


Pole = "tuple[int, Scalar]"  # (m, c) standing for c / (zeta^m - zeta^(-m))


class ZetaQExpansion:
    """Truncated q-series with ZetaLaurent coefficients and a symbolic pole list."""

    __slots__ = ("regular", "truncation", "pole")

    def __init__(
        self,
        regular: Mapping[int, ZetaLaurent],
        truncation: int,
        pole: Iterable[Pole] = (),
    ):
        if truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {truncation}")
        clean: dict[int, ZetaLaurent] = {}
        for e, lau in regular.items():
            if lau.is_zero():
                continue
            if e < 0:
                raise ValueError(f"negative q-exponent {e} is out of contract")
            if e < truncation:
                clean[e] = lau
        poles = []
        for m, c in pole:
            if m < 1:
                raise ValueError(f"pole order must be >= 1, got {m}")
            if c != 0:
                poles.append((m, c))
        poles.sort()
        if len({m for m, _ in poles}) != len(poles):
            raise ValueError("pole list has repeated orders")
        self.regular = clean
        self.truncation = truncation
        self.pole = tuple(poles)

    @classmethod
    def from_q(cls, column: list[Scalar], shift: int = 0) -> "ZetaQExpansion":
        """q^(shift/24) times the column's series, zeta-free: entry n lands at
        24n + shift units, and a column of T entries makes the product known
        below 24T + shift units."""
        return cls(
            {24 * n + shift: ZetaLaurent.constant(c) for n, c in enumerate(column)},
            24 * len(column) + shift,
        )

    def coefficient(self, e: int) -> ZetaLaurent:
        if e < 0:
            raise ValueError(f"negative q-exponent {e} is out of contract")
        if e >= self.truncation:
            raise TruncationError(f"q-exponent {e} is at or beyond truncation {self.truncation}")
        return self.regular.get(e, _ZERO)

    __getitem__ = coefficient
    # not iterable: iter() would fall back on [] and end in a TruncationError
    __iter__ = None

    def __len__(self) -> int:
        return self.truncation

    def support(self) -> list[int]:
        return sorted(self.regular)

    def without_pole(self) -> "ZetaQExpansion":
        return ZetaQExpansion(self.regular, self.truncation)

    def __mul__(self, other: Scalar) -> "ZetaQExpansion":
        # scalars also rescale the pole part
        return ZetaQExpansion(
            {e: lau * other for e, lau in self.regular.items()},
            self.truncation,
            [(m, c * other) for m, c in self.pole],
        )

    def __rmul__(self, other: Scalar) -> "ZetaQExpansion":
        return self * other

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZetaQExpansion):
            return NotImplemented
        return (
            self.truncation == other.truncation
            and self.regular == other.regular
            and self.pole == other.pole
        )

    def __repr__(self):
        head = ", ".join(f"q^({e}/24): {self.regular[e]!r}" for e in self.support()[:3])
        if len(self.regular) > 3:
            head += ", ..."
        return f"ZetaQExpansion({{{head}}}; T={self.truncation}; pole={list(self.pole)})"


def zq_add(a: ZetaQExpansion, b: ZetaQExpansion) -> ZetaQExpansion:
    """Sum; pole summands of equal order merge (and cancel when opposite)."""
    t = min(a.truncation, b.truncation)
    reg = dict(a.regular)
    for e, lau in b.regular.items():
        reg[e] = reg.get(e, ZetaLaurent()) + lau
    poles: dict[int, Scalar] = dict(a.pole)
    for m, c in b.pole:
        poles[m] = poles.get(m, 0) + c
    return ZetaQExpansion(reg, t, poles.items())


def zq_multiply(a: ZetaQExpansion, b: ZetaQExpansion) -> ZetaQExpansion:
    """Exact bivariate convolution of two honest (pole-free) series."""
    if a.pole or b.pole:
        raise PoleNotClearedError("multiplication requires empty pole lists")
    t = min(a.truncation, b.truncation)
    if len(b.regular) < len(a.regular):
        a, b = b, a
    b_items = [(e, list(lau.terms.items())) for e, lau in sorted(b.regular.items())]
    out: dict[int, dict[int, Scalar]] = {}
    for ea, la in sorted(a.regular.items()):
        cap = t - ea
        for eb, lb in b_items:
            if eb >= cap:
                break
            _convolve(out.setdefault(ea + eb, {}), la.terms.items(), lb)
    return ZetaQExpansion({e: ZetaLaurent(acc) for e, acc in out.items()}, t)


def zeta_filter(a: ZetaQExpansion, p: int, keep: str) -> ZetaQExpansion:
    """Retain zeta-exponents divisible by p, or coprime to p."""
    if a.pole:
        raise PoleNotClearedError("filtering requires an empty pole list")
    return ZetaQExpansion(
        {e: lau.filter_exponents(p, keep) for e, lau in a.regular.items()},
        a.truncation,
    )


def divide_antisymmetric(a: ZetaQExpansion) -> ZetaQExpansion:
    """Exact division by (zeta - zeta^(-1)).

    Uses zeta^m - zeta^(-m) = (zeta - zeta^(-1)) (zeta^(m-1) + zeta^(m-3) + ...
    + zeta^(-(m-1))), so every q-coefficient must be antisymmetric.
    """
    if a.pole:
        raise PoleNotClearedError("division requires an empty pole list")
    out: dict[int, ZetaLaurent] = {}
    for e, lau in a.regular.items():
        if not lau.is_antisymmetric():
            raise NotAntisymmetricError(e)
        q: dict[int, Scalar] = {}
        for m, c in lau.terms.items():
            if m <= 0:
                continue
            for j in range(m - 1, -m, -2):
                q[j] = q.get(j, 0) + c
        out[e] = ZetaLaurent(q)
    return ZetaQExpansion(out, a.truncation)


def one_sided_pole_expansion(m: int, cap: int) -> ZetaLaurent:
    """One-sided expansion of 1/(zeta^m - zeta^(-m)): minus the sum of
    zeta^(m(2i+1)) over i >= 0, kept up to zeta-degree cap."""
    if m < 1:
        raise ValueError(f"pole order must be >= 1, got {m}")
    return ZetaLaurent({j: -1 for j in range(m, cap + 1, 2 * m)})

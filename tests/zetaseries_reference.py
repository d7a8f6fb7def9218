"""References for the two-variable layer that only the tests use.

The package keeps a two-variable series as a column of `ZetaLaurent`,
entry n at q^n, and leaves its fixed power q^(s/24) to the caller.  Here a
series is a ZetaQExpansion on the 1/24 grid instead: exponent u stands for
q^(u/24), so q^n is 24n units, and the shift is part of each exponent.  Its
sum, product, zeta filter and division by (zeta - zeta^(-1)) are the
independent reference that `zetaseries.column_product` and
`zetaseries.divide_antisymmetric` are tested against; each convolves
coefficient dictionaries itself.  `zeta_substitute` applies zeta -> zeta^a
and q -> q^b to a whole series.  None of these carries the kernel's pole.
"""

from __future__ import annotations

from qbrackets.errors import NotAntisymmetricError, TruncationError
from qbrackets.zetaseries import ZetaLaurent


def _laurent_product(a: ZetaLaurent, b: ZetaLaurent) -> dict:
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
    return out


def _laurent_sum(a: ZetaLaurent, b: ZetaLaurent) -> ZetaLaurent:
    out = dict(a.terms)
    for m, c in b.terms.items():
        out[m] = out.get(m, 0) + c
    return ZetaLaurent(out)


class ZetaQExpansion:
    """Truncated q-series on the 1/24 grid with ZetaLaurent coefficients.

    Reads as a column of its own units: len(s) is its truncation and s[e]
    its coefficient.
    """

    __slots__ = ("regular", "truncation")

    def __init__(self, regular, truncation: int):
        if truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {truncation}")
        clean = {}
        for e, lau in regular.items():
            if lau.is_zero():
                continue
            if e < 0:
                raise ValueError(f"negative q-exponent {e} is out of contract")
            if e < truncation:
                clean[e] = lau
        self.regular = clean
        self.truncation = truncation

    @classmethod
    def from_column(cls, column, shift: int = 0) -> "ZetaQExpansion":
        """q^(shift/24) times a column of ZetaLaurent: entry n lands at
        24n + shift units, and a column of T entries is known below
        24T + shift units."""
        return cls({24 * n + shift: lau for n, lau in enumerate(column)},
                   24 * len(column) + shift)

    @classmethod
    def from_q(cls, column, shift: int = 0) -> "ZetaQExpansion":
        """q^(shift/24) times a one-variable column, zeta-free."""
        return cls.from_column([ZetaLaurent.constant(c) for c in column], shift)

    def coefficient(self, e: int) -> ZetaLaurent:
        if e < 0:
            raise ValueError(f"negative q-exponent {e} is out of contract")
        if e >= self.truncation:
            raise TruncationError(f"q-exponent {e} is at or beyond truncation {self.truncation}")
        return self.regular.get(e, ZetaLaurent())

    __getitem__ = coefficient
    # not iterable: iter() would fall back on [] and end in a TruncationError
    __iter__ = None

    def __len__(self) -> int:
        return self.truncation

    def support(self) -> list[int]:
        return sorted(self.regular)

    def __mul__(self, other) -> "ZetaQExpansion":
        return ZetaQExpansion({e: lau * other for e, lau in self.regular.items()},
                              self.truncation)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZetaQExpansion):
            return NotImplemented
        return self.truncation == other.truncation and self.regular == other.regular

    def __repr__(self):
        head = ", ".join(f"q^({e}/24): {self.regular[e]!r}" for e in self.support()[:3])
        if len(self.regular) > 3:
            head += ", ..."
        return f"ZetaQExpansion({{{head}}}; T={self.truncation})"


def zq_add(a: ZetaQExpansion, b: ZetaQExpansion) -> ZetaQExpansion:
    reg = dict(a.regular)
    for e, lau in b.regular.items():
        reg[e] = _laurent_sum(reg.get(e, ZetaLaurent()), lau)
    return ZetaQExpansion(reg, min(a.truncation, b.truncation))


def zq_multiply(a: ZetaQExpansion, b: ZetaQExpansion) -> ZetaQExpansion:
    """The bivariate convolution, pair by pair of stored coefficients."""
    t = min(a.truncation, b.truncation)
    out = {}
    for ea, la in a.regular.items():
        for eb, lb in b.regular.items():
            if ea + eb < t:
                product = ZetaLaurent(_laurent_product(la, lb))
                out[ea + eb] = _laurent_sum(out.get(ea + eb, ZetaLaurent()), product)
    return ZetaQExpansion(out, t)


def zeta_filter(a: ZetaQExpansion, p: int, keep: str) -> ZetaQExpansion:
    """Retain zeta-exponents divisible by p, or coprime to p."""
    return ZetaQExpansion(
        {e: lau.filter_exponents(p, keep) for e, lau in a.regular.items()}, a.truncation)


def divide_antisymmetric(a: ZetaQExpansion) -> ZetaQExpansion:
    """Exact division by (zeta - zeta^(-1)), by peeling the top exponent:
    c zeta^m over (zeta - zeta^(-1)) leaves c zeta^(m-1) and c zeta^(m-2)
    to divide."""
    out = {}
    for e, lau in a.regular.items():
        if not lau.is_antisymmetric():
            raise NotAntisymmetricError(e)
        rest, quotient = dict(lau.terms), {}
        while rest:
            m = max(rest)
            c = rest.pop(m)
            if c:
                quotient[m - 1] = c
                rest[m - 2] = rest.get(m - 2, 0) + c
            rest = {j: v for j, v in rest.items() if v}
        out[e] = ZetaLaurent(quotient)
    return ZetaQExpansion(out, a.truncation)


def zeta_substitute(a: ZetaQExpansion, zeta_power: int, q_power: int) -> ZetaQExpansion:
    """zeta -> zeta^zeta_power and q -> q^q_power."""
    if zeta_power < 1 or q_power < 1:
        raise ValueError("substitution powers must be >= 1")
    regular = {
        e * q_power: ZetaLaurent({m * zeta_power: c for m, c in lau.terms.items()})
        for e, lau in a.regular.items()
    }
    return ZetaQExpansion(regular, a.truncation * q_power)

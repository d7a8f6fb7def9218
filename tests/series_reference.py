"""The sparse q-series arithmetic that only the tests use, as references.

`multiply` puts each operand over one common denominator, convolves the
integer numerators of the two coefficient dicts, and builds a Fraction only
where the product of the two denominators is not 1; `euler_function`
expands the Euler product by the pentagonal number theorem into a sparse
series.  Together they are the dict product that the package's Euler pass
`partitions.times_euler` and its Kronecker-packed integer products are
tested against.  `first_difference` walks the joint support of two series
below their joint truncation, where the package's `report.first_difference`
walks every exponent of two columns.  `add`, `scale` and `one` build the
series that the tests compare.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator

from qbrackets.series import QExpansion, Scalar


def one(truncation: int) -> QExpansion:
    return QExpansion({0: 1}, truncation)


def _kept(terms: dict[int, Scalar], truncation: int) -> QExpansion:
    """A series that keeps `terms`, nonzero and in [0, truncation), without a copy."""
    series = object.__new__(QExpansion)
    series.terms = terms
    series.truncation = truncation
    return series


def add(a: QExpansion, b: QExpansion) -> QExpansion:
    t = min(a.truncation, b.truncation)
    terms = {e: c for e, c in a.terms.items() if e < t}
    for e, c in b.terms.items():
        if e < t and (c := terms.pop(e, 0) + c):  # a sum of 0 stays out
            terms[e] = c
    return _kept(terms, t)


def scale(a: QExpansion, c: Scalar) -> QExpansion:
    return _kept({e: v * c for e, v in a.terms.items()} if c else {}, a.truncation)


def _numerators(a: QExpansion) -> tuple[list[tuple[int, int]], int]:
    """Sorted (exponent, integer numerator) pairs over the lcm of the denominators."""
    den = lcm(*(c.denominator for c in a.terms.values()))
    items = sorted(a.terms.items())
    return [(e, c.numerator * (den // c.denominator)) for e, c in items], den


def multiply(a: QExpansion, b: QExpansion) -> QExpansion:
    t = min(a.truncation, b.truncation)
    if len(b.terms) < len(a.terms):
        a, b = b, a
    a_items, da = _numerators(a)
    b_items, db = _numerators(b)
    out: dict[int, int] = {}
    for ea, ca in a_items:
        cap = t - ea
        if cap <= 0:
            break
        for eb, cb in b_items:
            if eb >= cap:
                break
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    den = da * db
    if den == 1:
        return QExpansion(out, t)
    return QExpansion({e: Fraction(v, den) for e, v in out.items() if v}, t)


def euler_function(truncation: int) -> QExpansion:
    """Product over n of (1 - q^n), expanded by the pentagonal number theorem.

    Exponents land at j(3j-1)/2 for j = 0, 1, -1, 2, -2, ... with sign (-1)^j.
    """
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    terms: dict[int, Scalar] = {0: 1}
    j = 1
    while True:
        hit = False
        for e in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if e < truncation:
                terms[e] = -1 if j % 2 else 1
                hit = True
        if not hit:
            break
        j += 1
    return QExpansion(terms, truncation)


def _joint_coefficients(a: QExpansion, b: QExpansion) -> Iterator[tuple[int, Scalar, Scalar]]:
    """(exponent, a's coefficient, b's coefficient) for every exponent of the
    joint support below the joint truncation, in increasing order."""
    bound = min(a.truncation, b.truncation)
    da, db = a.terms, b.terms
    for e in sorted({*da, *db}):
        if e >= bound:
            return
        yield e, da.get(e, 0), db.get(e, 0)


def first_difference(a: QExpansion, b: QExpansion) -> tuple[int, str, str] | None:
    """First exponent below the joint truncation where two series differ."""
    if a == b:  # equal series, compared without listing their supports
        return None
    for e, ca, cb in _joint_coefficients(a, b):
        if ca != cb:
            return (e, str(ca), str(cb))
    return None

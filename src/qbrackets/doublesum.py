"""The bracket kernel as a theta-style double sum, and the two checks that read it.

`_kernel_double_sum` streams twice the two-variable generating kernel of
`jacobi` from the rows of `brackets.theta_rows`, never whole, as the half at
positive zeta exponents of one q-power's coefficient at a time, in integers.
verify_taylor_chain collapses the halves into a column of q-powers, which
its witnesses report, and verify_diffexp merges three streams of halves;
its witnesses are 1/24 units, as those of eq65 and prop21.  Neither loads
`jacobi`, and `zetaseries` is loaded only to state a failing diffexp
witness as a Laurent polynomial.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from fractions import Fraction
from itertools import groupby
from typing import Iterator

from .arith import bernoulli, regularized_bernoulli, require_terms
from .brackets import bracket_column, theta_rows
from .errors import NotAntisymmetricError
from .report import VerificationReport, _validate_jacobi_prime, first_difference

HALF = Fraction(1, 2)

_WINDOW = 1024  # q-powers the double-sum stream accumulates at a time


def _kernel_double_sum(s: int, terms: int, p: int | None) -> Iterator[tuple[int, dict]]:
    """Twice the theta-style double sum of `theta_rows(s, terms)` with
    x_m = (zeta^j - zeta^(-j)) / 2, j = s(2m+1), dropping j divisible by p.

    A stream of (q-power, half) in increasing q-power order, built a window
    of q-powers at a time and never stored whole.  Each integer Laurent
    coefficient is antisymmetric and is kept as its half {j: c} at exponents
    j > 0, with no zero c; an exponent j <= 0 would mirror onto itself, and is
    refused.  At s = 1 it is the doubled kernel of `jacobi._doubled_kernel`,
    without the pole.
    """
    # on the call, not on the first next(): a row of step 0 or less never ends
    if s < 1:
        raise ValueError(f"row scale must be >= 1, got {s}")
    require_terms(terms)
    # one cursor per row: its next q-power and zeta exponent
    rows = [[first, s, sign, step] for sign, first, step in theta_rows(s, terms)]

    def windows():
        for low in range(0, terms + 1, _WINDOW):
            high = min(low + _WINDOW, terms + 1)
            halves = defaultdict(dict)  # q-power -> {j > 0: coefficient}
            for row in rows:
                e, j, sign, step = row
                while e < high:
                    if p is None or j % p:
                        acc = halves[e]
                        acc[j] = acc.get(j, 0) + sign
                    e += step
                    j += 2 * s
                row[0], row[1] = e, j
            for e in sorted(halves):
                half = halves[e]
                if min(half) <= 0:
                    raise NotAntisymmetricError(24 * e)
                yield e, {j: c for j, c in half.items() if c}

    return windows()


def _substituted_poles(poles, zeta_power: int) -> tuple:
    """A pole list under zeta -> zeta^zeta_power: c / (zeta^m - zeta^(-m))
    becomes c / (zeta^(m zeta_power) - zeta^(-m zeta_power))."""
    return tuple((m * zeta_power, c) for m, c in poles)


def verify_diffexp(p: int, terms: int) -> VerificationReport:
    """The p-divisible part of the plain kernel splits into a rescaled copy
    of the kernel plus an explicit theta-like double sum.

    Regular parts, compared doubled: filtering the plain kernel to zeta
    exponents divisible by p must equal the substitution zeta -> zeta^p,
    q -> q^(p^2) applied to the kernel (computed at ceil(terms / p^2)
    q-powers) plus the rows of the double sum with row index n coprime to p
    and zeta exponent a multiple of p, -1/2 sum over such n and M >= 0 of
    (-1)^n (zeta^(p(2M+1)) - zeta^(-p(2M+1))) q^(n (n + p(2M+1)) / 2),
    the three streams merged by q-power.  First, the pole bookkeeping: the
    substitution maps the doubled pole (1, 1) to (p, 1), which is exactly
    the divisible part of the one-sided pole expansion (see
    `jacobi.verify_prop21`).
    """
    _validate_jacobi_prime(p, required=True)
    require_terms(terms)
    params = {"p": p, "terms": terms}
    bound = 24 * (terms + 1) - 1
    pole = _substituted_poles(((1, 1),), p)
    if pole != ((p, 1),):
        witness = (-1, repr(tuple((m, HALF * c) for m, c in pole)), repr(((p, HALF),)))
        return VerificationReport("diffexp", params, bound, witness)
    plain = _kernel_double_sum(1, terms, None)
    inner = _kernel_double_sum(1, -(-terms // (p * p)), None)
    # a stream never repeats a q-power, so its tag settles every tie in the
    # merge; halves compare as their coefficients do, and add as they do
    sides = heapq.merge(
        ((e, 0, {j: c for j, c in half.items() if not j % p}) for e, half in plain),
        ((e * p * p, 1, {j * p: c for j, c in half.items()}) for e, half in inner),
        ((e, 2, half) for e, half in _kernel_double_sum(p, terms, None)),
    )
    for e, group in groupby(sides, lambda side: side[0]):
        if e > terms:
            break
        lhs, rhs = {}, {}
        for _, tag, half in group:
            side = rhs if tag else lhs
            for j, c in half.items():
                if c := side.pop(j, 0) + c:  # a sum of 0 stays out
                    side[j] = c
        if lhs != rhs:  # the coefficients, mirrored from the halves
            from .zetaseries import ZetaLaurent

            lhs, rhs = (ZetaLaurent({**h, **{-j: -c for j, c in h.items()}}) for h in (lhs, rhs))
            witness = (24 * e, repr(HALF * lhs), repr(HALF * rhs))
            return VerificationReport("diffexp", params, bound, witness)
    return VerificationReport("diffexp", params, bound)


def verify_taylor_chain(k: int, terms: int, p: int = 5) -> VerificationReport:
    """Collapsing the kernel at weight k recovers the bracket series.

    For the plain kernel and the regularized one at p: the double-sum
    kernel, zeta^m collapsed to m^(k-1) and shifted by the constant
    -B_k (2^(k-1) - 1) / (2k) (Bernoulli value regularized for the second
    case), must equal the fast bracket series of weight k.  Odd k makes
    both sides zero.  Witness exponents are integral q-powers.  A failing
    report names the failing kernel in its parameters (failing_kernel,
    "plain" or "regularized").
    """
    if k < 1:
        raise ValueError(f"weight must be >= 1, got {k}")
    require_terms(terms)
    _validate_jacobi_prime(p, required=True)
    params = {"k": k, "terms": terms, "p": p}
    for prime in (None, p):
        bracket = bracket_column(k, terms, prime)
        # for even k, j and -j add the same c j^(k-1): a half sums to the halved collapse
        lhs = [0] * (terms + 1)
        if k % 2 == 0:  # 2^(k-2) (k-1)! beta_k in closed form; no row reaches q^0
            b = bernoulli(k) if prime is None else regularized_bernoulli(k, prime)
            lhs[0] = -b * (2 ** (k - 1) - 1) / (2 * k)
            for e, half in _kernel_double_sum(1, terms, prime):
                lhs[e] += sum(c * j ** (k - 1) for j, c in half.items())
        witness = first_difference(lhs, bracket)
        if witness is not None:
            params["failing_kernel"] = "plain" if prime is None else "regularized"
            return VerificationReport("taylor-chain", params, terms + 1, witness)
        del bracket, lhs  # two columns at a time, not four
    return VerificationReport("taylor-chain", params, terms + 1)

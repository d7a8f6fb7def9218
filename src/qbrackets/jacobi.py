"""Two-variable expansions behind the bracket series and their identity checks.

The central object is the generating kernel whose Taylor coefficients in the
zeta direction reproduce the normalized brackets of every weight at once.
The simple pole in the zeta variable rides along as symbolic metadata
([(1, 1/2)] plain, [(1, 1/2), (p, -1/2)] regularized) and is never expanded.
The kernel's coefficients are halves of integers, so it is kept doubled, in
integers, from construction to comparison, and halved only in the
coefficients of a failing witness.

It is built two ways.  `_doubled_kernel` enumerates it as a ZetaQExpansion
on the 1/24 grid of `zetaseries` (q^n is 24n units), which one-variable
q-series enter only as the eta prefactor and the eta cube
(`ZetaQExpansion.from_q`); so the witnesses of eq65, prop21 and diffexp are
1/24 units.  It loads `partitions` and `series` only when it runs, so the
checks that never enumerate never load them.  `_kernel_double_sum` streams
the kernel from the rows of `brackets.theta_rows`, never whole, as the half
at positive zeta exponents of one q-power's coefficient at a time:
verify_taylor_chain collapses the halves into a column of q-powers, which its
witnesses report, and verify_diffexp merges three streams of halves.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from fractions import Fraction
from itertools import groupby
from typing import TYPE_CHECKING, Iterator

from .arith import bernoulli, is_prime, regularized_bernoulli, require_terms
from .brackets import bracket_column, theta_rows
from .errors import NotAntisymmetricError, TruncationError
from .report import VerificationReport
from .zetaseries import (
    ZetaLaurent,
    ZetaQExpansion,
    divide_antisymmetric,
    one_sided_pole_expansion,
    zeta_filter,
    zeta_substitute,
    zq_add,
    zq_multiply,
)

if TYPE_CHECKING:
    from .series import Witness

# The counted kernel is refused beyond this many q-powers, the range its
# checks were sized for; the double-sum expansion has no such limit.
ENUMERATION_BUDGET = 40

HALF = Fraction(1, 2)


def theta1_doubled(truncation: int) -> ZetaQExpansion:
    """Odd theta kernel at doubled elliptic argument.

    Sum over odd j >= 1 of alternating-sign antisymmetric pairs
    (zeta^j - zeta^(-j)) at q-exponent 3 j^2 units; the lowest term is
    (zeta - zeta^(-1)) q^(1/8).
    """
    if truncation < 3:
        raise ValueError(f"truncation must be >= 3 units, got {truncation}")
    regular = {}
    j, sign = 1, 1
    while 3 * j * j < truncation:
        regular[3 * j * j] = ZetaLaurent.antisymmetric(j, sign)
        j += 2
        sign = -sign
    return ZetaQExpansion(regular, truncation)


def partition_zeta_sum(terms: int, p: int | None = None) -> ZetaQExpansion:
    """Sum over partitions of the signed zeta-monomials of the doubled
    diagonal hook coordinates.

    Size-n partitions contribute at q-exponent 24n - 1 units, with odd zeta
    exponents bounded by 2n - 1 in absolute value.  With p given, exponents
    divisible by p are dropped (the regularized kernel).
    """
    from .partitions import diagonal_counts

    _validate_jacobi_prime(p)
    require_terms(terms)
    regular = {
        24 * n - 1: ZetaLaurent(dict(counts.signed(p)))
        for n, counts in enumerate(diagonal_counts(terms)) if n
    }
    return ZetaQExpansion(regular, 24 * (terms + 1) - 1)


def _validate_jacobi_prime(p: int | None, required: bool = False) -> None:
    if p is None and required:
        raise ValueError("a prime is required")
    if p is not None and (p == 2 or not is_prime(p)):
        raise ValueError(f"regularization modulus {p} is not an odd prime")


def _doubled_kernel(terms: int, p: int | None) -> ZetaQExpansion:
    """Twice the bracket generating kernel, as the eta-weighted partition zeta
    sum (budget-limited), with the doubled pole list ((1, 1),) or
    ((1, 1), (p, -1)).  It lands on integral q-powers, below 24(terms + 1) - 1
    units, and is checked zeta-antisymmetric at every exponent."""
    from .series import euler_function

    _validate_jacobi_prime(p)
    require_terms(terms)
    if terms > ENUMERATION_BUDGET:
        raise ValueError(f"enumeration beyond {ENUMERATION_BUDGET} q-powers is off-budget")
    # eta = q^(1/24) times the Euler product through q^terms
    eta = ZetaQExpansion.from_q(euler_function(terms + 1), 1)
    kernel = zq_multiply(eta, partition_zeta_sum(terms, p))
    for e, laurent in kernel.regular.items():
        if not laurent.is_antisymmetric():
            raise NotAntisymmetricError(e)
    pole = ((1, 1),) if p is None else ((1, 1), (p, -1))
    return ZetaQExpansion(kernel.regular, kernel.truncation, pole)


_WINDOW = 1024  # q-powers the double-sum stream accumulates at a time


def _kernel_double_sum(s: int, terms: int, p: int | None) -> Iterator[tuple[int, dict]]:
    """Twice the theta-style double sum of `theta_rows(s, terms)` with
    x_m = (zeta^j - zeta^(-j)) / 2, j = s(2m+1), dropping j divisible by p.

    A stream of (q-power, half) in increasing q-power order, built a window
    of q-powers at a time and never stored whole.  Each integer Laurent
    coefficient is antisymmetric and is kept as its half {j: c} at exponents
    j > 0, with no zero c; an exponent j <= 0 would mirror onto itself, and is
    refused.  At s = 1 it is the doubled kernel of `_doubled_kernel`, without
    the pole.
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


def _witness_of_halves(twice_a, twice_b) -> Witness | None:
    """First difference of two doubled series or kernels, stated in their halves."""
    from .series import first_difference

    if first_difference(twice_a, twice_b) is None:
        return None
    return first_difference(HALF * twice_a, HALF * twice_b)


def verify_eq65(truncation: int) -> VerificationReport:
    """The kernel times the doubled theta series is half of eta cubed.

    Both factors are divided by (zeta - zeta^(-1)) first, which clears the
    kernel's pole against the theta zero: [1 + (zeta - zeta^(-1)) times the
    doubled regular kernel] times [theta / (zeta - zeta^(-1))] must equal
    q^(3 units) times the cube of the Euler product, a zeta-free series, all
    in integers.
    """
    from .series import euler_function, first_difference, multiply

    if truncation < 27:
        raise TruncationError(
            f"need at least 27 units to test a coefficient, got {truncation}"
        )
    terms = truncation // 24
    twice = _doubled_kernel(terms, None)
    binomial = ZetaQExpansion({0: ZetaLaurent.antisymmetric(1)}, twice.truncation)
    cleared = zq_add(
        ZetaQExpansion({0: ZetaLaurent.constant(1)}, twice.truncation),
        zq_multiply(binomial, twice.without_pole()),
    )
    lhs = zq_multiply(cleared, divide_antisymmetric(theta1_doubled(truncation)))
    # q^(1/8) times the cube, known below 24 cube_terms + 3 >= truncation units
    cube_terms = -(-(truncation - 3) // 24)
    euler = euler_function(cube_terms)
    rhs = ZetaQExpansion.from_q(multiply(multiply(euler, euler), euler), 3)
    params = {"truncation_units": truncation, "terms": terms}
    bound = min(lhs.truncation, rhs.truncation)
    return VerificationReport("eq65", params, bound, first_difference(lhs, rhs))


def verify_prop21(p: int, terms: int) -> VerificationReport:
    """The regularized kernel is the coprime zeta-filter of the plain one.

    Checks, on the doubled enumerated kernels: (i) keeping zeta exponents
    coprime to p reproduces the regularized kernel exactly; (ii) the divisible
    part is the exact complement; (iii) the one-sided expansion of the pole
    1/(2(zeta - zeta^(-1))) filters to the one-sided expansion of
    1/(2(zeta^p - zeta^(-p))), consistent with the attached pole lists.
    The pure-zeta check (iii) reports witness exponent -1 on failure.
    """
    _validate_jacobi_prime(p, required=True)
    params = {"p": p, "terms": terms}
    plain = _doubled_kernel(terms, None).without_pole()
    regularized = _doubled_kernel(terms, p).without_pole()
    bound = min(plain.truncation, regularized.truncation)
    witness = _witness_of_halves(zeta_filter(plain, p, "coprime"), regularized)
    if witness is None:
        complement = zq_add(plain, -1 * regularized)
        witness = _witness_of_halves(zeta_filter(plain, p, "divisible"), complement)
    if witness is None:
        cap = max(2 * terms + 1, 3 * p)
        filtered = (HALF * one_sided_pole_expansion(1, cap)).filter_exponents(
            p, "divisible"
        )
        expected = HALF * one_sided_pole_expansion(p, cap)
        if filtered != expected:
            witness = (-1, repr(filtered), repr(expected))
    return VerificationReport("prop21", params, bound, witness)


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
    substitution maps the pole (1, 1/2) to (p, 1/2), which is exactly the
    divisible part of the one-sided pole expansion (see verify_prop21).
    """
    _validate_jacobi_prime(p, required=True)
    require_terms(terms)
    params = {"p": p, "terms": terms}
    bound = 24 * (terms + 1) - 1
    shifted = zeta_substitute(ZetaQExpansion({}, 1, ((1, 1),)), p, p * p)
    if shifted.pole != ((p, 1),):
        witness = (-1, repr((HALF * shifted).pole), repr(((p, HALF),)))
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
        for e, c in enumerate(lhs):
            if c != bracket[e]:
                params["failing_kernel"] = "plain" if prime is None else "regularized"
                witness = (e, str(c), str(bracket[e]))
                return VerificationReport("taylor-chain", params, terms + 1, witness)
        del bracket, lhs  # two columns at a time, not four
    return VerificationReport("taylor-chain", params, terms + 1)

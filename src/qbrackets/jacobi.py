"""Two-variable expansions behind the bracket series and their identity checks.

The central object is the generating kernel whose Taylor coefficients in the
zeta direction reproduce the normalized brackets of every weight at once.
The simple pole in the zeta variable rides along as symbolic metadata
([(1, 1/2)] plain, [(1, 1/2), (p, -1/2)] regularized) and is never expanded.
The kernel's coefficients are halves of integers, so it is kept doubled, in
integers, from construction to comparison, and halved only in the
coefficients of a failing witness.

`_doubled_kernel` enumerates it as a ZetaQExpansion on the 1/24 grid of
`zetaseries` (q^n is 24n units), which one-variable q-series enter only as
the eta prefactor and the eta cube, dense columns of the Euler pass
`partitions.times_euler` (`ZetaQExpansion.from_q`); so the witnesses of
eq65 and prop21 are 1/24 units.  It loads `partitions` only when it runs.
The same kernel as a theta-style double sum, and the checks that read it
(taylor-chain and diffexp), are `doublesum`'s: neither module imports the
other.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import require_terms
from .errors import NotAntisymmetricError, TruncationError
from .report import VerificationReport, Witness, _validate_jacobi_prime, first_difference
from .zetaseries import (
    ZetaLaurent,
    ZetaQExpansion,
    divide_antisymmetric,
    one_sided_pole_expansion,
    zeta_filter,
    zq_add,
    zq_multiply,
)

# The counted kernel is refused beyond this many q-powers, the range its
# checks were sized for; the double-sum stream of `doublesum` has no such limit.
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


def _doubled_kernel(terms: int, p: int | None) -> ZetaQExpansion:
    """Twice the bracket generating kernel, as the eta-weighted partition zeta
    sum (budget-limited), with the doubled pole list ((1, 1),) or
    ((1, 1), (p, -1)).  It lands on integral q-powers, below 24(terms + 1) - 1
    units, and is checked zeta-antisymmetric at every exponent."""
    from .partitions import times_euler

    _validate_jacobi_prime(p)
    require_terms(terms)
    if terms > ENUMERATION_BUDGET:
        raise ValueError(f"enumeration beyond {ENUMERATION_BUDGET} q-powers is off-budget")
    # eta = q^(1/24) times the Euler product through q^terms
    eta = ZetaQExpansion.from_q(times_euler([1] + [0] * terms), 1)
    kernel = zq_multiply(eta, partition_zeta_sum(terms, p))
    for e, laurent in kernel.regular.items():
        if not laurent.is_antisymmetric():
            raise NotAntisymmetricError(e)
    pole = ((1, 1),) if p is None else ((1, 1), (p, -1))
    return ZetaQExpansion(kernel.regular, kernel.truncation, pole)


def _witness_of_halves(twice_a, twice_b) -> Witness | None:
    """First difference of two doubled series or kernels, stated in their halves."""
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
    from .partitions import times_euler

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
    cube = [1] + [0] * (cube_terms - 1)
    for _ in range(3):
        cube = times_euler(cube)
    rhs = ZetaQExpansion.from_q(cube, 3)
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

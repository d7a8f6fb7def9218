"""Two-variable expansions behind the bracket series and their identity checks.

The central object is the generating kernel whose Taylor coefficients in the
zeta direction reproduce the normalized brackets of every weight at once.
Its simple pole in zeta, 1/(2(zeta - zeta^(-1))) plain and that minus
1/(2(zeta^p - zeta^(-p))) regularized, is never stored or expanded: eq65
clears it by hand, as the constant 1, and prop21 compares its one-sided
expansion.  The kernel's coefficients are halves of integers, so it is kept
doubled, in integers, from construction to comparison, and halved only in
the coefficients of a failing witness.

Every series here is a column of `zetaseries`, entry n at q^n times a fixed
q^(s/24): `_doubled_kernel` multiplies the eta column, dense from the Euler
pass `partitions.times_euler`, at q^(n + 1/24), by the partition zeta sum at
q^(n - 1/24), and lands on integral q-powers.  The witnesses of eq65 and
prop21 are 1/24 units, 24n + s.  It loads `partitions` only when it runs.
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
    column_product,
    divide_antisymmetric,
    one_sided_pole_expansion,
)

# The counted kernel is refused beyond this many q-powers, the range its
# checks were sized for; the double-sum stream of `doublesum` has no such limit.
ENUMERATION_BUDGET = 40

HALF = Fraction(1, 2)


def theta1_doubled(terms: int) -> list[ZetaLaurent]:
    """Odd theta kernel at doubled elliptic argument, over q^(1/8).

    Entry n <= terms is the coefficient of q^(n + 1/8): the alternating-sign
    antisymmetric pair (zeta^j - zeta^(-j)) where j is odd and
    j^2 = 8n + 1, and zero elsewhere; entry 0 is zeta - zeta^(-1).
    """
    require_terms(terms)
    column = [ZetaLaurent()] * (terms + 1)  # one zero, shared: a ZetaLaurent never changes
    j, sign = 1, 1
    while (n := j * j // 8) <= terms:
        column[n] = ZetaLaurent.antisymmetric(j, sign)
        j += 2
        sign = -sign
    return column


def partition_zeta_sum(terms: int, p: int | None = None) -> list[ZetaLaurent]:
    """Sum over partitions of the signed zeta-monomials of the doubled
    diagonal hook coordinates, over q^(-1/24).

    Entry n <= terms, the coefficient of q^(n - 1/24), is the sum over
    partitions of n, with odd zeta exponents bounded by 2n - 1 in absolute
    value.  With p given, exponents divisible by p are dropped (the
    regularized kernel).
    """
    from .partitions import diagonal_counts

    _validate_jacobi_prime(p)
    require_terms(terms)
    return [ZetaLaurent(dict(counts.signed(p))) for counts in diagonal_counts(terms)]


def _doubled_kernel(terms: int, p: int | None) -> list[ZetaLaurent]:
    """Twice the bracket generating kernel without its pole, as the
    eta-weighted partition zeta sum (budget-limited): entry n <= terms is
    the coefficient of q^n, checked zeta-antisymmetric."""
    from .partitions import times_euler

    _validate_jacobi_prime(p)
    require_terms(terms)
    if terms > ENUMERATION_BUDGET:
        raise ValueError(f"enumeration beyond {ENUMERATION_BUDGET} q-powers is off-budget")
    # eta over q^(1/24): the Euler product through q^terms
    eta = [ZetaLaurent.constant(c) for c in times_euler([1] + [0] * terms)]
    kernel = column_product(eta, partition_zeta_sum(terms, p))
    for n, laurent in enumerate(kernel):
        if not laurent.is_antisymmetric():
            raise NotAntisymmetricError(24 * n)
    return kernel


def _witness_of_halves(twice_a, twice_b) -> Witness | None:
    """First difference of two doubled kernels, at its 1/24 unit, stated in
    their halves."""
    for n, (a, b) in enumerate(zip(twice_a, twice_b)):
        if a != b:
            return (24 * n, str(HALF * a), str(HALF * b))
    return None


def verify_eq65(truncation: int) -> VerificationReport:
    """The kernel times the doubled theta series is half of eta cubed.

    Both factors are divided by (zeta - zeta^(-1)) first, which clears the
    kernel's pole against the theta zero: [1 + (zeta - zeta^(-1)) times the
    doubled kernel] times [theta / (zeta - zeta^(-1))] must equal the cube
    of eta, a zeta-free series, all in integers.  Both sides sit at
    q^(n + 1/8) and are compared entry by entry over that common q^(1/8),
    below `truncation` units.
    """
    from .partitions import times_euler

    if truncation < 27:
        raise TruncationError(
            f"need at least 27 units to test a coefficient, got {truncation}"
        )
    terms = truncation // 24
    binomial = ZetaLaurent.antisymmetric(1)
    cleared = [binomial * k for k in _doubled_kernel(terms, None)]
    cleared[0] += ZetaLaurent.constant(1)  # the pole times the binomial
    # the entries at q^(n + 1/8) below the truncation, 24 n + 3 units
    length = -(-(truncation - 3) // 24)
    lhs = column_product(cleared, divide_antisymmetric(theta1_doubled(length - 1), 3))
    cube = [1] + [0] * (length - 1)
    for _ in range(3):
        cube = times_euler(cube)
    witness = first_difference(lhs, [ZetaLaurent.constant(c) for c in cube])
    if witness is not None:
        witness = (24 * witness[0] + 3, *witness[1:])
    params = {"truncation_units": truncation, "terms": terms}
    return VerificationReport("eq65", params, truncation, witness)


def verify_prop21(p: int, terms: int) -> VerificationReport:
    """The regularized kernel is the coprime zeta-filter of the plain one.

    Checks, on the doubled enumerated kernels, q-power by q-power: (i)
    keeping zeta exponents coprime to p reproduces the regularized kernel
    exactly; (ii) the divisible part is the exact complement; (iii) the
    one-sided expansion of the pole 1/(2(zeta - zeta^(-1))) filters to the
    one-sided expansion of 1/(2(zeta^p - zeta^(-p))), the pole the
    regularized kernel subtracts.  The pure-zeta check (iii) reports
    witness exponent -1 on failure.
    """
    _validate_jacobi_prime(p, required=True)
    params = {"p": p, "terms": terms}
    plain = _doubled_kernel(terms, None)
    regularized = _doubled_kernel(terms, p)
    witness = _witness_of_halves([k.filter_exponents(p, "coprime") for k in plain], regularized)
    if witness is None:
        complement = [a + -1 * b for a, b in zip(plain, regularized)]
        divisible = [k.filter_exponents(p, "divisible") for k in plain]
        witness = _witness_of_halves(divisible, complement)
    if witness is None:
        cap = max(2 * terms + 1, 3 * p)
        filtered = (HALF * one_sided_pole_expansion(1, cap)).filter_exponents(
            p, "divisible"
        )
        expected = HALF * one_sided_pole_expansion(p, cap)
        if filtered != expected:
            witness = (-1, repr(filtered), repr(expected))
    return VerificationReport("prop21", params, 24 * (terms + 1) - 1, witness)

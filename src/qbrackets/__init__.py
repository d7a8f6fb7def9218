"""Exact q-series arithmetic for partition brackets and their verification.

The package computes normalized partition-average series ("q-brackets") of
the distinguished shifted symmetric functions, their p-adic regularizations,
the explicit correction series relating the two, and the quasimodular and
two-variable expansions behind them.  Everything is exact rational
arithmetic; the verification layer turns each claimed identity or congruence
into a reproducible pass/fail report.
"""

from .arith import bernoulli, legendre, padic_valuation, regularized_bernoulli, totient
from .brackets import (
    FAST_GATE_TERMS,
    ShiftedSymmetricPoly,
    bracket_of_polynomial,
    correction_term,
    normalized_qbracket,
    qbracket,
)
from .cli import SeriesDocument, parse_q_polynomial
from .errors import (
    ExpressionError,
    IntegralityError,
    InternalError,
    NotAntisymmetricError,
    NotInvertibleError,
    NotQuasimodularError,
    PoleNotClearedError,
    QbracketsError,
    TruncationError,
)
from .jacobi import (
    bracket_generating_regular,
    partition_zeta_sum,
    theta1_doubled,
    verify_diffexp,
    verify_eq65,
    verify_prop21,
    verify_taylor_chain,
)
from .modforms import (
    QuasimodularPoly,
    delta,
    eisenstein,
    filtration,
    leading_g2_coefficient,
    miller_basis,
    quasi_decompose,
    quasimodular_monomials,
    reduces_to_zero_mod_p,
)
from .partitions import Partition, beta, enumerate_partitions, normalized_power_sum
from .series import QExpansion, congruent_mod, euler_function
from .theorems import (
    VerificationReport,
    check_eq_remark,
    check_oracle,
    check_support_e,
    check_thm_a,
    check_thm_b,
    check_thm_c,
    check_thm_e,
)
from .zetaseries import ZetaLaurent, ZetaQExpansion

__version__ = "0.1.0"

__all__ = [
    "FAST_GATE_TERMS",
    "ExpressionError",
    "IntegralityError",
    "InternalError",
    "NotAntisymmetricError",
    "NotInvertibleError",
    "NotQuasimodularError",
    "Partition",
    "PoleNotClearedError",
    "QExpansion",
    "QbracketsError",
    "QuasimodularPoly",
    "SeriesDocument",
    "ShiftedSymmetricPoly",
    "TruncationError",
    "VerificationReport",
    "ZetaLaurent",
    "ZetaQExpansion",
    "bernoulli",
    "beta",
    "bracket_generating_regular",
    "bracket_of_polynomial",
    "check_eq_remark",
    "check_oracle",
    "check_support_e",
    "check_thm_a",
    "check_thm_b",
    "check_thm_c",
    "check_thm_e",
    "congruent_mod",
    "correction_term",
    "delta",
    "eisenstein",
    "enumerate_partitions",
    "euler_function",
    "filtration",
    "leading_g2_coefficient",
    "legendre",
    "miller_basis",
    "normalized_power_sum",
    "normalized_qbracket",
    "padic_valuation",
    "parse_q_polynomial",
    "partition_zeta_sum",
    "qbracket",
    "quasi_decompose",
    "quasimodular_monomials",
    "reduces_to_zero_mod_p",
    "regularized_bernoulli",
    "theta1_doubled",
    "totient",
    "verify_diffexp",
    "verify_eq65",
    "verify_prop21",
    "verify_taylor_chain",
]

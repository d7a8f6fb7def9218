"""Exact q-series arithmetic for partition brackets and their verification.

The package computes normalized partition-average series ("q-brackets") of
the distinguished shifted symmetric functions, their p-adic regularizations,
the explicit correction series relating the two, and the quasimodular and
two-variable expansions behind them.  Everything is exact rational
arithmetic; the verification layer turns each claimed identity or congruence
into a reproducible pass/fail report.

The names below are exported lazily: each one imports its home module on
first access, so importing the package (or the command line) loads only the
layers that are used.
"""

from importlib import import_module

# exported names by home module; the modules themselves are attributes too
_EXPORTS = {
    "arith": ("bernoulli", "legendre", "padic_valuation", "regularized_bernoulli", "totient"),
    "brackets": ("FAST_GATE_TERMS", "correction_term", "normalized_qbracket"),
    "cli": ("SeriesDocument",),
    "errors": ("ExpressionError", "IntegralityError", "InternalError", "NotAntisymmetricError",
               "NotInvertibleError", "NotQuasimodularError", "PoleNotClearedError",
               "QbracketsError", "TruncationError"),
    "jacobi": ("partition_zeta_sum", "theta1_doubled", "verify_diffexp", "verify_eq65",
               "verify_prop21", "verify_taylor_chain"),
    "modforms": ("QuasimodularPoly", "bracket_decomposition", "check_thm_c", "eisenstein",
                 "filtration", "quasimodular_monomials"),
    "partitions": ("Partition", "beta", "enumerate_partitions"),
    "report": ("VerificationReport",),
    "series": ("QExpansion", "congruent_mod", "euler_function"),
    "shifted": ("ShiftedSymmetricPoly", "bracket_of_polynomial", "parse_q_polynomial",
                "qbracket"),
    "theorems": ("check_eq_remark", "check_oracle", "check_support_e", "check_thm_a",
                 "check_thm_b", "check_thm_e"),
    "zetaseries": ("ZetaLaurent", "ZetaQExpansion"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # read from the home module on every access, never cached here, so a
    # name rebound in its home module (a test double, a tracing wrapper) is
    # what the package attribute returns too
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

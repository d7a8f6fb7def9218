"""The claim report: the one result type of every verification check.

A VerificationReport carries a claim identifier, the integer parameters it
ran with, the truncation window, and on failure a witness coefficient pair;
its three-way verdict follows from the truncation and the witness.  Reports
carry no timing.  The claim names are the keys of `cli.CLAIM_TABLE`.  The
checkers live with the layers they check (`theorems`, `jacobi`, `doublesum`,
`modforms`) and share the argument checks below and `congruent_mod`, the
congruence of Theorems A, B and C; the term count's check is
`arith.require_terms`.  `verify` runs its claim and writes the report's
document from here, so that no other command compiles either step.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING

from .arith import is_prime
from .cli import CLAIM_TABLE, SeriesDocument, _Record
from .errors import IntegralityError

if TYPE_CHECKING:
    from types import SimpleNamespace

    from .series import Witness


class VerificationReport(_Record):
    """Outcome of one mechanized claim check.

    witness is (exponent, lhs value, rhs value) for the first discrepancy.
    The verdict is "not-applicable" at truncation 0, where the claim's
    hypotheses failed; otherwise "fail" with a witness and "pass" without.
    """

    __slots__ = ("claim", "parameters", "truncation", "verdict", "witness")

    def __init__(self, claim: str, parameters: dict[str, int | str], truncation: int,
                 witness: Witness | None = None):
        if claim not in CLAIM_TABLE:
            raise ValueError(f"unknown claim identifier {claim!r}")
        verdict = "not-applicable" if truncation == 0 else "pass" if witness is None else "fail"
        self._fields(claim, parameters, truncation, verdict, witness)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def _require_even_weight(k: int) -> None:
    if k < 2 or k % 2:
        raise ValueError(f"weight must be even and >= 2, got {k}")


def congruent_mod(a, b, p: int, r: int) -> Witness | None:
    """Coefficientwise congruence mod p^r of two columns (lists such as
    `brackets.bracket_column`, or QExpansions, read through len and [n]) below
    the shorter one's length.

    Requires every compared coefficient to be p-integral; returns the witness
    (exponent, lhs value, rhs value) of the least exponent where the
    congruence fails, or None.
    """
    _require_prime(p)
    if r < 1:
        raise ValueError(f"power r must be >= 1, got {r}")
    modulus = p**r
    for e in range(min(len(a), len(b))):
        pair = a[e], b[e]
        for c in pair:
            if c.denominator % p == 0:
                raise IntegralityError(e, f"coefficient {c} at exponent {e} is not {p}-integral")
        # both p-integral: p^r divides the difference iff it divides its numerator
        if (pair[0] - pair[1]).numerator % modulus:
            return (e, *map(str, pair))
    return None


def _validate_jacobi_prime(p: int | None, required: bool = False) -> None:
    if p is None and required:
        raise ValueError("a prime is required")
    if p is not None and (p == 2 or not is_prime(p)):
        raise ValueError(f"regularization modulus {p} is not an odd prime")


def _run_claim(args: SimpleNamespace) -> VerificationReport:
    claim = CLAIM_TABLE[args.claim]
    missing = [f for f in claim.required if getattr(args, f) is None]
    if missing:
        flags = ", ".join("--" + f.replace("_", "-") for f in missing)
        raise ValueError(f"claim {args.claim} requires {flags}")
    layer, _, name = claim.checker.partition(".")
    values = (getattr(args, f) for f in claim.arguments)
    return getattr(import_module(f".{layer}", __package__), name)(
        *[v for v in values if v is not None])


def _report_document(report: VerificationReport) -> SeriesDocument:
    meta = {"claim": report.claim, "verdict": report.verdict}
    meta.update((name, str(value)) for name, value in report.parameters.items())
    if report.witness is not None:
        meta.update(zip(("witness_exponent", "witness_lhs", "witness_rhs"),
                        map(str, report.witness)))
    return SeriesDocument("report", report.parameters.get("k"), CLAIM_TABLE[report.claim].unit,
                          report.truncation, (), meta)

"""The claim report: the one result type of every verification check.

A VerificationReport carries a claim identifier, the integer parameters it
ran with, the truncation window, and on failure a witness coefficient pair;
its three-way verdict follows from the truncation and the witness.  Reports
carry no timing.  The claim names are the keys of `cli.CLAIM_TABLE`.  The
checkers live with the layers they check (`theorems`, `jacobi`, `modforms`)
and share the argument checks below; the term count's is `arith.require_terms`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .arith import is_prime
from .cli import CLAIM_TABLE, _Record

if TYPE_CHECKING:
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
        if truncation == 0:
            verdict = "not-applicable"
        else:
            verdict = "pass" if witness is None else "fail"
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

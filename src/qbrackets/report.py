"""The claim report: the one result type of every verification check.

A VerificationReport carries a claim identifier, the integer parameters it
ran with, the truncation window, a three-way verdict, and on failure a
witness coefficient pair.  `VerificationReport.timed` decides the verdict of
every checker from the truncation and the witness.  The checkers live with
the layers they check (`theorems`, `jacobi`, `modforms`) and share the
argument checks below.
"""

from __future__ import annotations

import time

from .arith import is_prime
from .series import Witness

CLAIMS = (
    "thm-a",
    "thm-b",
    "thm-c",
    "thm-e",
    "support-e",
    "eq-remark",
    "eq65",
    "prop21",
    "diffexp",
    "oracle",
    "taylor-chain",
)

VERDICTS = ("pass", "fail", "not-applicable")


class VerificationReport:
    """Outcome of one mechanized claim check.

    witness is (exponent, lhs value, rhs value) for the first discrepancy;
    elapsed is wall-clock milliseconds, excluded from equality and from
    serialization.  Reports are immutable: assigning a field raises
    AttributeError.
    """

    __slots__ = ("claim", "parameters", "truncation", "verdict", "witness", "elapsed")

    def __init__(self, claim: str, parameters: dict[str, int | str], truncation: int,
                 verdict: str, witness: Witness | None = None, elapsed: int = 0):
        if claim not in CLAIMS:
            raise ValueError(f"unknown claim identifier {claim!r}")
        if verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}")
        if verdict == "fail" and witness is None:
            raise ValueError("a failing report must carry a witness")
        if verdict == "pass" and truncation < 1:
            raise ValueError("a passing report must record a positive truncation")
        values = (claim, parameters, truncation, verdict, witness, elapsed)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def timed(cls, started: float, claim: str, parameters: dict[str, int | str],
              truncation: int, witness: Witness | None = None) -> VerificationReport:
        """The report of a check that began at perf_counter() reading `started`.

        Truncation 0 means the claim's hypotheses failed (not-applicable);
        otherwise a witness means fail and its absence pass.
        """
        elapsed = round((time.perf_counter() - started) * 1000.0)
        if truncation == 0:
            verdict = "not-applicable"
        else:
            verdict = "pass" if witness is None else "fail"
        return cls(claim, parameters, truncation, verdict, witness, elapsed)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: reports are immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not VerificationReport:
            return NotImplemented
        # every field but elapsed
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__[:-1])

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"VerificationReport({fields})"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def _require_even_weight(k: int) -> None:
    if k < 2 or k % 2:
        raise ValueError(f"weight must be even and >= 2, got {k}")

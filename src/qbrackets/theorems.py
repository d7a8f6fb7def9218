"""Structured verification of the bracket congruence claims and of the
double sum against the count.

Every check returns a VerificationReport: a claim identifier, the integer
parameters it ran with, the truncation window, and on failure a witness
coefficient pair (see `report`).  Hypothesis violations yield truncation 0,
whose verdict is "not-applicable" rather than a vacuous pass.  Theorem C's
check needs the modular layer and lives there, as `modforms.check_thm_c`;
the three Theorem E checks stream windows of the double sum and live with
the correction series, in `correction`.

Witness exponents and the truncation field are q-powers throughout this
module.  The checks of Theorems A and B compare dense columns of
`brackets.bracket_column`, and the oracle those of its two methods.
"""

from __future__ import annotations

from .arith import require_terms
from .brackets import bracket_column
from .report import (
    VerificationReport,
    _require_even_weight,
    _require_prime,
    congruent_mod,
    first_difference,
)

ORACLE_PRIMES = (None, 5, 7)


def check_thm_a(p: int, r: int, k1: int, k2: int, terms: int) -> VerificationReport:
    """Regularized brackets of weights congruent mod phi(p^r) agree mod p^r.

    Hypotheses: p >= 5, both weights differ from 0 mod (p-1), and
    k1 == k2 mod phi(p^r); otherwise the claim does not apply.
    """
    _require_prime(p)
    _require_even_weight(k1)
    _require_even_weight(k2)
    if r < 1:
        raise ValueError(f"power r must be >= 1, got {r}")
    require_terms(terms)
    params = {"p": p, "r": r, "k1": k1, "k2": k2, "terms": terms}
    applicable = (
        p >= 5
        and k1 % (p - 1) != 0
        and k2 % (p - 1) != 0
        and (k1 - k2) % ((p - 1) * p ** (r - 1)) == 0  # phi(p^r)
    )
    if not applicable:
        return VerificationReport("thm-a", params, 0)
    a = bracket_column(k1, terms, p)
    b = bracket_column(k2, terms, p)
    witness = congruent_mod(a, b, p, r)
    return VerificationReport("thm-a", params, terms + 1, witness)


def check_thm_b(p: int, k: int, i_max: int, terms: int) -> VerificationReport:
    """Finite stages of the p-adic limit: the plain bracket of weight
    k + phi(p^i) matches the regularized weight-k bracket mod p^i.

    i_max = 0 is a vacuous claim and reports not-applicable.  A failing
    report names the first failing stage in its parameters (failing_stage).
    """
    _require_prime(p)
    _require_even_weight(k)
    if i_max < 0:
        raise ValueError(f"stage count must be >= 0, got {i_max}")
    require_terms(terms)
    params = {"p": p, "k": k, "i_max": i_max, "terms": terms}
    if p < 5 or k % (p - 1) == 0 or i_max == 0:
        return VerificationReport("thm-b", params, 0)
    target = bracket_column(k, terms, p)
    for i in range(1, i_max + 1):
        stage = bracket_column(k + (p - 1) * p ** (i - 1), terms, None)  # k + phi(p^i)
        witness = congruent_mod(stage, target, p, i)
        if witness is not None:
            params["failing_stage"] = i
            return VerificationReport("thm-b", params, terms + 1, witness)
    return VerificationReport("thm-b", params, terms + 1)


def check_oracle(max_weight: int = 12, terms: int = 30) -> VerificationReport:
    """The double-sum bracket evaluation matches the Frobenius-pair count
    for every even weight up to max_weight, plain and regularized at 5 and 7.

    A failing report names the first failing bracket in its parameters:
    failing_k, and failing_p unless it is the plain one.
    """
    _require_even_weight(max_weight)
    require_terms(terms)
    params = {"max_weight": max_weight, "terms": terms}
    for k in range(2, max_weight + 1, 2):
        for p in ORACLE_PRIMES:
            fast = bracket_column(k, terms, p)
            slow = bracket_column(k, terms, p, "enumerate")
            witness = first_difference(fast, slow)
            if witness is not None:
                params["failing_k"] = k
                if p is not None:
                    params["failing_p"] = p
                return VerificationReport("oracle", params, terms + 1, witness)
    return VerificationReport("oracle", params, terms + 1)

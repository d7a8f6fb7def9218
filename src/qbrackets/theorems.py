"""Structured verification of the bracket congruence and identity claims.

Every check returns a VerificationReport: a claim identifier, the integer
parameters it ran with, the truncation window, and on failure a witness
coefficient pair (see `report`).  Hypothesis violations yield truncation 0,
whose verdict is "not-applicable" rather than a vacuous pass.  Theorem C's
check needs the modular layer and lives there, as `modforms.check_thm_c`.

Witness exponents and the truncation field are q-powers throughout this
module, as they are for every QExpansion.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import compress, count

from .arith import legendre, padic_valuation, require_terms, totient
from .brackets import bracket_column, correction_column, normalized_qbracket
from .report import VerificationReport, _require_even_weight, _require_prime

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
        and (k1 - k2) % totient(p**r) == 0
    )
    if not applicable:
        return VerificationReport("thm-a", params, 0)
    from .series import congruent_mod

    a = normalized_qbracket(k1, terms, p)
    b = normalized_qbracket(k2, terms, p)
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
    from .series import congruent_mod

    target = normalized_qbracket(k, terms, p)
    for i in range(1, i_max + 1):
        stage = normalized_qbracket(k + totient(p**i), terms, None)
        witness = congruent_mod(stage, target, p, i)
        if witness is not None:
            params["failing_stage"] = i
            return VerificationReport("thm-b", params, terms + 1, witness)
    return VerificationReport("thm-b", params, terms + 1)


def _theorem_e_params(p: int, k: int, terms: int) -> dict[str, int]:
    """The checked parameters of `thm-e`, `support-e` and `eq-remark`."""
    _require_prime(p)
    _require_even_weight(k)
    require_terms(terms)
    return {"p": p, "k": k, "terms": terms}


def check_thm_e(p: int, k: int, terms: int) -> VerificationReport:
    """Exact identity expressing the regularized bracket through the plain
    one: regularized = plain - p^(k-1) * plain(q^(p^2)) - p^(k-1) * correction."""
    params = _theorem_e_params(p, k, terms)
    if p < 5:
        return VerificationReport("thm-e", params, 0)
    regularized = bracket_column(k, terms, p)
    plain = bracket_column(k, terms, None)
    square = p * p
    # plain(q^(p^2)) has its coefficient m at q^(m p^2)
    rescaled = bracket_column(k, terms // square, None)
    weight_scale = p ** (k - 1)
    for n, c in enumerate(correction_column(k, p, terms)):
        if n % square == 0:
            c += rescaled[n // square]
        lhs, rhs = regularized[n], plain[n] - weight_scale * c
        if lhs != rhs:
            witness = (n, str(lhs), str(rhs))
            return VerificationReport("thm-e", params, terms + 1, witness)
    return VerificationReport("thm-e", params, terms + 1)


def check_support_e(p: int, k: int, terms: int) -> VerificationReport:
    """Every exponent in the correction series has the same quadratic
    character mod p as 2 does."""
    params = _theorem_e_params(p, k, terms)
    if p < 5:
        return VerificationReport("support-e", params, 0)
    # the symbol depends only on n mod p
    symbol = cache(lambda residue: legendre(residue, p))
    target = symbol(2)
    # the exponents whose coefficient in the correction series is nonzero
    for n in compress(count(), correction_column(k, p, terms)):
        if symbol(n % p) != target:
            witness = (n, str(symbol(n % p)), str(target))
            return VerificationReport("support-e", params, terms + 1, witness)
    return VerificationReport("support-e", params, terms + 1)


def check_eq_remark(p: int, k: int, terms: int) -> VerificationReport:
    """The plain and regularized brackets agree mod p^(k-1) beyond the
    constant term.

    Only positive exponents participate: there both coefficients are
    integers and the divisibility holds for every even k, whereas the
    constant-term difference is p^(k-1) times a Bernoulli quotient whose
    denominator can carry one factor of p when (p-1) divides k.  The least
    p-adic valuation observed among the nonzero coefficient differences is
    recorded in the parameters (key "min_valuation"); the check asserts
    only the inequality, not its sharpness.
    """
    params = _theorem_e_params(p, k, terms)
    if p < 5:
        return VerificationReport("eq-remark", params, 0)
    plain = bracket_column(k, terms, None)
    regularized = bracket_column(k, terms, p)
    modulus = p ** (k - 1)
    # the least valuation of the differences is the valuation of their gcd
    common = 0
    for e in range(1, terms + 1):
        difference = plain[e] - regularized[e]
        if difference % modulus:
            witness = (e, str(plain[e]), str(regularized[e]))
            return VerificationReport("eq-remark", params, terms + 1, witness)
        common = math.gcd(common, difference)
    if common:
        params = dict(params, min_valuation=padic_valuation(common, p))
    return VerificationReport("eq-remark", params, terms + 1)


def check_oracle(max_weight: int = 12, terms: int = 30) -> VerificationReport:
    """The double-sum bracket evaluation matches the Frobenius-pair count
    for every even weight up to max_weight, plain and regularized at 5 and 7.

    A failing report names the first failing bracket in its parameters:
    failing_k, and failing_p unless it is the plain one.
    """
    _require_even_weight(max_weight)
    require_terms(terms)
    params = {"max_weight": max_weight, "terms": terms}
    from .series import first_difference

    for k in range(2, max_weight + 1, 2):
        for p in ORACLE_PRIMES:
            fast = normalized_qbracket(k, terms, p, method="fast")
            slow = normalized_qbracket(k, terms, p, method="enumerate")
            witness = first_difference(fast, slow)
            if witness is not None:
                params["failing_k"] = k
                if p is not None:
                    params["failing_p"] = p
                return VerificationReport("oracle", params, terms + 1, witness)
    return VerificationReport("oracle", params, terms + 1)

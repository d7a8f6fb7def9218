"""The correction series of the regularization identity, and the three
Theorem E checks that read it.

`correction_column` expands the rows of `brackets.theta_rows` at s = p into
a dense column.  The checks `thm-e`, `support-e` and `eq-remark` hold no
whole column: they walk the plain and regularized brackets and the
correction series a window of q-powers at a time, from the one collapse
generator of `brackets`, and compare each window with C-level `map`, `any`
and `math.gcd` calls; a window that fails is walked again, in Python, only
to state its witness.  The plain and regularized brackets share one list of
odd powers.  Witness exponents and the truncation field are q-powers.  The
checks import `report` when they run, so `compute correction` never loads it.
"""

from __future__ import annotations

import operator
from functools import cache, reduce
from itertools import compress, count, repeat
from math import gcd
from typing import TYPE_CHECKING

from .arith import is_prime, legendre, padic_valuation, require_terms
from .brackets import _bracket_windows, _collapsed_windows, _odd_powers, bracket_column

if TYPE_CHECKING:
    from .report import VerificationReport


def correction_column(k: int, p: int, terms: int) -> list[int]:
    """Coefficients of q^0 .. q^terms of the exact discrepancy series in the
    regularization identity, as a dense list.

    Double sum over n >= 1 coprime to p and M >= 0 of -(-1)^n (2M+1)^(k-1)
    q^(n(n + p(2M+1))/2); every exponent is an integer, and its Legendre
    symbol at p equals that of 2.
    """
    if k < 2 or k % 2:
        raise ValueError(f"weight must be even and >= 2, got {k}")
    if p == 2 or not is_prime(p):
        raise ValueError(f"modulus {p} is not an odd prime")
    require_terms(terms)
    # the exponent steps by n p >= p per M, so M < terms / p
    return next(_collapsed_windows(p, terms, _odd_powers(terms // p + 1, k - 1), terms + 1, 0))


def _width(terms: int) -> int:
    """q-powers per window of the checks: at most eight windows, of at least
    1,024 q-powers.  Every window visits each of the about sqrt(2 terms)
    rows, so a width that did not grow with the rows would make that visit
    the checks' main cost."""
    return max(1024, -(-(terms + 1) // 8))


def _theorem_e_params(p: int, k: int, terms: int) -> dict[str, int]:
    """The checked parameters of `thm-e`, `support-e` and `eq-remark`."""
    from .report import _require_even_weight, _require_prime

    _require_prime(p)
    _require_even_weight(k)
    require_terms(terms)
    return {"p": p, "k": k, "terms": terms}


def check_thm_e(p: int, k: int, terms: int) -> VerificationReport:
    """Exact identity expressing the regularized bracket through the plain
    one: regularized = plain - p^(k-1) * plain(q^(p^2)) - p^(k-1) * correction."""
    from .report import VerificationReport

    params = _theorem_e_params(p, k, terms)
    if p < 5:
        return VerificationReport("thm-e", params, 0)
    width = _width(terms)
    square = p * p
    # plain(q^(p^2)) has its coefficient m at q^(m p^2)
    rescaled = bracket_column(k, terms // square, None)
    weight_scale = p ** (k - 1)
    powers = _odd_powers(terms, k - 1)
    # the regularized copy and the correction's (2M+1)^(k-1), M <= terms / p,
    # are taken here, before the plain bracket's last window cuts the list
    windows = zip(
        count(0, width),
        _bracket_windows(k, terms, p, powers, width),
        _bracket_windows(k, terms, None, powers, width),
        _collapsed_windows(p, terms, powers[: terms // p + 1], width, 0),
    )
    for low, regularized, plain, correction in windows:
        start = -low % square  # the window's first multiple of p^2
        correction[start::square] = map(
            operator.add, correction[start::square], rescaled[(low + start) // square :])
        right = map(operator.sub, plain, map(operator.mul, repeat(weight_scale), correction))
        if any(map(operator.ne, regularized, right)):
            for n, lhs, a, c in zip(count(low), regularized, plain, correction):
                if lhs != (rhs := a - weight_scale * c):
                    return VerificationReport("thm-e", params, terms + 1, (n, str(lhs), str(rhs)))
    return VerificationReport("thm-e", params, terms + 1)


def check_support_e(p: int, k: int, terms: int) -> VerificationReport:
    """Every exponent in the correction series has the same quadratic
    character mod p as 2 does."""
    from .report import VerificationReport

    params = _theorem_e_params(p, k, terms)
    if p < 5:
        return VerificationReport("support-e", params, 0)
    # the symbol depends only on n mod p
    symbol = cache(lambda residue: legendre(residue, p))
    target = symbol(2)
    width = _width(terms)
    windows = _collapsed_windows(p, terms, _odd_powers(terms // p + 1, k - 1), width, 0)
    for low, window in zip(count(0, width), windows):
        # the residues mod p of the exponents whose coefficient is nonzero
        residues = set(map(p.__rmod__, compress(count(low), window)))
        if any(map(target.__ne__, map(symbol, residues))):
            for n in compress(count(low), window):
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
    from .report import VerificationReport

    params = _theorem_e_params(p, k, terms)
    if p < 5:
        return VerificationReport("eq-remark", params, 0)
    width = _width(terms)
    modulus = p ** (k - 1)
    powers = _odd_powers(terms, k - 1)
    windows = zip(
        count(0, width),
        _bracket_windows(k, terms, None, powers, width),
        _bracket_windows(k, terms, p, powers, width),
    )
    # the least valuation of the differences is the valuation of their gcd,
    # and p^(k-1) divides every difference seen so far iff it divides the gcd
    common = 0
    for low, plain, regularized in windows:
        if not low:
            plain[0] = regularized[0] = 0  # the constant term does not participate
        common = reduce(gcd, map(operator.sub, plain, regularized), common)
        if common % modulus:
            for e, a, b in zip(count(low), plain, regularized):
                if (a - b) % modulus:
                    return VerificationReport("eq-remark", params, terms + 1, (e, str(a), str(b)))
    if common:
        params = dict(params, min_valuation=padic_valuation(common, p))
    return VerificationReport("eq-remark", params, terms + 1)

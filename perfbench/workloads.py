"""Workload menus: the seed picks one group of CLI invocations per slot.

Every slot lists variants of about equal cost (same term counts, primes or
weights chosen so the work does not depend on the pick), so any seed does
comparable work.  Weight pairs (K, 24 - K) and (K, 10 - K) keep the summed
coefficient sizes of a slot constant.
"""

from __future__ import annotations

import random

# Interpreter start, package import and parser build, with almost no work.
NULL_ARGV = ("compute", "bracket", "--k", "2", "--terms", "0")


def _argv(text: str) -> tuple[str, ...]:
    return tuple(text.split())


def _slot(*variants: list[str]) -> list[tuple[tuple[str, ...], ...]]:
    return [tuple(_argv(line) for line in group) for group in variants]


PRIMES = (5, 7, 11, 13)

# Bracket-poly expressions in the CLI grammar, with the same polynomial as
# (coefficient, {generator index: exponent}) terms for the independent check.
EXPRESSIONS = {
    "Q2*Q3": ((1, {2: 1, 3: 1}),),
    "Q2+Q4": ((1, {2: 1}), (1, {4: 1})),
    "Q3^2-1/24*Q2": ((1, {3: 2}), ("-1/24", {2: 1})),
}

# tables: the README compute commands and double-sum claims at 10^4-10^5
# terms; time goes to serialization (cli) and integer double sums (brackets).
TABLES = [
    _slot(*[
        [f"compute bracket --k {k} --terms 15000 --trust-fast",
         f"compute bracket --k {24 - k} --terms 15000 --p {p} --trust-fast"]
        for k in (10, 12, 14) for p in PRIMES
    ]),
    _slot(*[
        [f"compute bracket --k 12 --terms 15000 --p {p} --trust-fast --format csv"]
        for p in PRIMES
    ]),
    _slot(*[
        [f"compute eisenstein --k {k} --terms 10000 --variant E",
         f"compute eisenstein --k {10 - k} --terms 10000 --variant Greg --p {p}"]
        for k in (4, 6) for p in (5, 7)
    ]),
    _slot(*[[f"compute correction --k 12 --p {p} --terms 15000"] for p in PRIMES]),
    _slot(*[[f"verify support-e --p {p} --k 2 --terms 100000"] for p in (11, 13)]),
    _slot(*[[f"verify thm-e --p {p} --k 2 --terms 15000"] for p in (5, 7)]),
    _slot(*[[f"verify eq-remark --p {p} --k 4 --terms 15000"] for p in (5, 7)]),
    _slot(*[[f"verify taylor-chain --k 8 --terms 2000 --p {p}"] for p in (5, 7)]),
    _slot(*[[f"verify diffexp --p {p} --terms 1000"] for p in (5, 7)]),
]

# enumeration: every invocation enumerates partitions and emits a tiny
# document; the Frobenius oracle and a bounded partition cache show here.
# The small decompose keeps modforms on the per-layer map.
ENUMERATION = [
    _slot(*[
        [f"compute bracket --k {k} --terms 31 --method enum" + (f" --p {p}" if p else "")]
        for k, p in ((4, None), (6, 5), (8, 7), (6, None))
    ]),
    _slot(["verify oracle --terms 30"]),
    _slot(["verify eq65 --units 768"]),
    _slot(*[[f"verify prop21 --p {p} --terms 30"] for p in (5, 11)]),
    _slot(*[[f"compute bracket-poly --expr {e} --terms 22"] for e in EXPRESSIONS]),
    _slot(["decompose --k 4"]),
]

# modular: dense rational series products inside modforms (Miller basis per
# weight, Gauss-Jordan); no enumeration and almost no serialization.  The
# small eq65 keeps partitions, jacobi and zetaseries on the per-layer map.
MODULAR = [
    _slot(["decompose --k 34"]),
    _slot(*[[f"verify thm-c --p {p} --k {k}"] for p, k in ((37, 12), (29, 14))]),
    _slot(*[[f"verify thm-c --p {p} --k {k}"] for p, k in ((19, 16), (23, 14))]),
    _slot(*[[f"filtration --k {k} --p {p}"] for k, p in ((14, 23), (12, 29), (10, 37))]),
    _slot(["verify eq65 --units 240"]),
]

WORKLOADS = {"tables": TABLES, "enumeration": ENUMERATION, "modular": MODULAR}


def invocations(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The seed's pick of one variant per slot, in a seed-shuffled order."""
    rng = random.Random(f"{workload}:{seed}")
    groups = [rng.choice(slot) for slot in WORKLOADS[workload]]
    rng.shuffle(groups)
    return [argv for group in groups for argv in group]


def every_argv() -> list[tuple[str, ...]]:
    """Every invocation any seed can produce, plus the null invocation."""
    seen = {NULL_ARGV: None}
    for slots in WORKLOADS.values():
        for slot in slots:
            for group in slot:
                for argv in group:
                    seen.setdefault(argv, None)
    return list(seen)

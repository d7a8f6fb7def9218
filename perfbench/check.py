"""Correctness of CLI outputs, checked with code that shares nothing with qbrackets.

A document passes when it has the expected exit code, parses and
re-serializes byte-identically in the canonical form, and its content
agrees with an independent recomputation:

* coefficient tables: the first ORACLE_TERMS coefficients against brute
  partition enumeration (brackets, bracket polynomials and, through the
  exact regularization identity, correction series) or divisor sums
  (Eisenstein series);
* claim reports: verdict "pass" for the claim that was asked for;
* decompositions: verdict "pass" and the closed-form top E2 coefficient;
* filtrations: the value k(p+1)/2 that Theorem C predicts for k < p.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from functools import cache
from math import factorial, gcd
from pathlib import Path

from workloads import EXPRESSIONS

ORACLE_TERMS = 30

# sha256 of every document any seed can produce, recorded by record_golden.py.
GOLDEN_PATH = Path(__file__).with_name("golden.json")

DOCUMENT_KEYS = {"coefficients", "exponent_unit", "kind", "metadata", "truncation", "weight"}
_FRACTION = re.compile(r"-?(?:0|[1-9][0-9]*)(?:/[1-9][0-9]*)?\Z")


def options(argv: tuple[str, ...]) -> dict[str, str]:
    """Flags of one invocation: "--k 4" -> {"k": "4"}, "--trust-fast" -> {"trust-fast": ""}."""
    out: dict[str, str] = {}
    i = 0
    while i < len(argv):
        word = argv[i]
        if word.startswith("--"):
            if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
                out[word[2:]] = argv[i + 1]
                i += 2
                continue
            out[word[2:]] = ""
        i += 1
    return out


# --- brute-force oracle -----------------------------------------------------


def _partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@cache
def _hooks(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Doubled arm and leg lengths (2a+1, 2b+1) along the diagonal, per partition of n."""
    out = []
    for parts in _partitions(n, n):
        conjugate = [sum(1 for x in parts if x > j) for j in range(parts[0] if parts else 0)]
        r = sum(1 for i, x in enumerate(parts) if x > i)
        arms = tuple(2 * (parts[i] - i - 1) + 1 for i in range(r))
        legs = tuple(2 * (conjugate[i] - i - 1) + 1 for i in range(r))
        out.append((arms, legs))
    return tuple(out)


@cache
def _beta(k: int) -> Fraction:
    """Coefficient of z^k in (z/2)/sinh(z/2), by inverting the sinh series."""
    a = [Fraction(0)] * (k + 1)
    for j in range(0, k + 1, 2):
        a[j] = Fraction(1, 4 ** (j // 2) * factorial(j + 1))
    inv = [Fraction(1)] + [Fraction(0)] * k
    for m in range(1, k + 1):
        inv[m] = -sum(a[i] * inv[m - i] for i in range(1, m + 1))
    return inv[k]


def _signed_moment(arms, legs, power: int, p: int | None) -> Fraction:
    """Sum of sign(c) c^power over the hook coordinates c = +-(doubled)/2."""
    s = 0
    for d in arms:
        if p is None or d % p:
            s += d**power
    for d in legs:
        if p is None or d % p:
            s -= (-d) ** power
    return Fraction(s, 2**power)


def _q_value(arms, legs, k: int, p: int | None) -> Fraction:
    """The weight-k shifted symmetric function Q_k at one partition."""
    beta = _beta(k) if p is None else _beta(k) * (1 - Fraction(p) ** (k - 1))
    return _signed_moment(arms, legs, k - 1, p) / factorial(k - 1) + beta


def _euler_times(raw: list[Fraction]) -> list[Fraction]:
    """raw times the product of (1 - q^m), both truncated to len(raw) terms."""
    n = len(raw)
    euler = [1] + [0] * (n - 1)
    for m in range(1, n):
        for i in range(n - 1, m - 1, -1):
            euler[i] -= euler[i - m]
    return [sum(raw[j] * euler[i - j] for j in range(i + 1)) for i in range(n)]


@cache
def bracket_oracle(k: int, p: int | None, count: int) -> tuple[Fraction, ...]:
    """First `count` coefficients of 2^(k-2) (k-1)! <Q_k>_q, by enumeration."""
    norm = Fraction(2) ** (k - 2) * factorial(k - 1)
    raw = [norm * sum(_q_value(a, b, k, p) for a, b in _hooks(n)) for n in range(count)]
    return tuple(_euler_times(raw))


def poly_oracle(expression: str, count: int) -> tuple[Fraction, ...]:
    terms = [(Fraction(c), powers) for c, powers in EXPRESSIONS[expression]]
    raw = []
    for n in range(count):
        total = Fraction(0)
        for arms, legs in _hooks(n):
            values = {}
            for coeff, powers in terms:
                v = coeff
                for i, e in powers.items():
                    if i not in values:
                        values[i] = _q_value(arms, legs, i, None)
                    v *= values[i] ** e
                total += v
        raw.append(total)
    return tuple(_euler_times(raw))


def correction_oracle(k: int, p: int, count: int) -> tuple[Fraction, ...]:
    """(plain - regularized) / p^(k-1) - plain(q^(p^2)): the regularization identity."""
    plain = bracket_oracle(k, None, count)
    regular = bracket_oracle(k, p, count)
    scale = Fraction(p) ** (k - 1)
    return tuple(
        (plain[n] - regular[n]) / scale - (plain[n // (p * p)] if n % (p * p) == 0 else 0)
        for n in range(count)
    )


# E_k = 1 + E_FACTOR[k] sum sigma_{k-1}(n) q^n;  G_k has constant G_CONSTANT[k].
E_FACTOR = {4: 240, 6: -504}
G_CONSTANT = {4: Fraction(1, 240), 6: Fraction(-1, 504)}


def _sigma(n: int, power: int) -> int:
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def eisenstein_oracle(k: int, variant: str, p: int | None, count: int) -> tuple[Fraction, ...]:
    if variant == "E":
        return tuple([Fraction(1)] + [Fraction(E_FACTOR[k] * _sigma(n, k - 1)) for n in range(1, count)])
    if variant != "Greg":
        raise KeyError(variant)
    g = [G_CONSTANT[k]] + [Fraction(_sigma(n, k - 1)) for n in range(1, count)]
    return tuple(g[n] - (p ** (k - 1) * g[n // p] if n % p == 0 else 0) for n in range(count))


def _expected_coefficients(argv: tuple[str, ...], count: int) -> tuple[Fraction, ...]:
    opt = options(argv)
    p = int(opt["p"]) if "p" in opt else None
    target = argv[1]
    if target == "bracket":
        return bracket_oracle(int(opt["k"]), p, count)
    if target == "eisenstein":
        return eisenstein_oracle(int(opt["k"]), opt["variant"], p, count)
    if target == "correction":
        return correction_oracle(int(opt["k"]), p, count)
    return poly_oracle(opt["expr"], count)


def _top_e2_coefficient(k: int) -> Fraction:
    """(k-1)!! 8^(k/2-1) / (k/2) times (-1/24)^(k/2)."""
    double_factorial = 1
    for m in range(k - 1, 0, -2):
        double_factorial *= m
    half = k // 2
    return Fraction(double_factorial * 8 ** (half - 1), half) * Fraction(-1, 24) ** half


# --- document checks --------------------------------------------------------


def _canonical(value: str) -> bool:
    """True for a or a/b in lowest terms, b > 1, no leading zeros and no -0."""
    if not _FRACTION.match(value) or value == "-0":
        return False
    num, _, den = value.partition("/")
    return not den or (den != "1" and gcd(int(num), int(den)) == 1)


def _table_from_csv(text: str) -> list[str] | str:
    lines = text.split("\n")
    if lines[0] != "exponent,numerator,denominator" or lines[-1] != "":
        return "bad CSV header or missing final newline"
    values = []
    for n, line in enumerate(lines[1:-1]):
        fields = line.split(",")
        if len(fields) != 3 or fields[0] != str(n):
            return f"bad CSV row {n}: {line[:60]!r}"
        num, den = int(fields[1]), int(fields[2])
        if den < 1 or gcd(num, den) != 1 or f"{num},{den}" != f"{fields[1]},{fields[2]}":
            return f"CSV row {n} is not in lowest terms"
        values.append(str(Fraction(num, den)))
    return values


def _table_from_json(doc: dict) -> list[str] | str:
    values = []
    for n, row in enumerate(doc["coefficients"]):
        if row[0] != n or not _canonical(row[1]):
            return f"bad coefficient row {n}: {row!r:.60}"
        values.append(row[1])
    if doc["truncation"] != len(values):
        return "truncation does not match the coefficient count"
    return values


def _parse_json(text: str) -> dict | str:
    doc = json.loads(text)
    if not isinstance(doc, dict) or set(doc) != DOCUMENT_KEYS:
        return "document keys differ from the canonical set"
    if json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" != text:
        return "document does not re-serialize byte-identically"
    return doc


def _check_table(argv, values: list[str]) -> str | None:
    opt = options(argv)
    if len(values) != int(opt["terms"]) + 1:
        return f"expected {int(opt['terms']) + 1} coefficients, got {len(values)}"
    count = min(ORACLE_TERMS, len(values))
    expected = _expected_coefficients(argv, count)
    for n in range(count):
        if Fraction(values[n]) != expected[n]:
            return f"coefficient {n} is {values[n]}, enumeration gives {expected[n]}"
    return None


def _check_report(argv, meta: dict) -> str | None:
    opt = options(argv)
    command = argv[0]
    if command == "verify":
        if meta.get("claim") != argv[1] or meta.get("verdict") != "pass":
            return f"claim {meta.get('claim')} has verdict {meta.get('verdict')}"
        return None
    if command == "decompose":
        k = int(opt["k"])
        if meta.get("verdict") != "pass":
            return "decomposition did not pass"
        top = meta.get(f"E2^{k // 2}*E4^0*E6^0")
        if top is None or Fraction(top) != _top_e2_coefficient(k):
            return f"top E2 coefficient {top} differs from the closed form"
        return None
    k, p = int(opt["k"]), int(opt["p"])
    if p >= 5 and k < p and k % (p - 1) and meta.get("filtration") != str(k * (p + 1) // 2):
        return f"filtration {meta.get('filtration')} differs from k(p+1)/2"
    return None


def check_output(argv: tuple[str, ...], exit_code: int, data: bytes) -> str | None:
    """None when the invocation's output is correct, else the first problem found."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        return _check_text(argv, data.decode("ascii"))
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"malformed document: {exc!r:.100}"


def _check_text(argv: tuple[str, ...], text: str) -> str | None:
    if options(argv).get("format") == "csv":
        values = _table_from_csv(text)
        return values if isinstance(values, str) else _check_table(argv, values)
    doc = _parse_json(text)
    if isinstance(doc, str):
        return doc
    if argv[0] == "compute":
        if doc["kind"] != "q-expansion" or doc["metadata"].get("series") != argv[1]:
            return "wrong document kind or series"
        values = _table_from_json(doc)
        return values if isinstance(values, str) else _check_table(argv, values)
    if doc["kind"] != "report":
        return "expected a report document"
    return _check_report(argv, doc["metadata"])


def argv_key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


class Verifier:
    """Judges outputs and keeps the problems found.

    An output must match its recorded digest and pass check_output; the
    independent check runs once per distinct output.
    """

    def __init__(self, golden: dict[str, str]):
        self.golden = golden
        self.problems: list[str] = []
        self._checked: dict[tuple[str, int, str], str | None] = {}

    @classmethod
    def recorded(cls) -> "Verifier":
        return cls(json.loads(GOLDEN_PATH.read_text()))

    def __call__(self, argv: tuple[str, ...], exit_code: int, data: bytes) -> bool:
        key = argv_key(argv)
        digest = hashlib.sha256(data).hexdigest()
        memo = (key, exit_code, digest)
        if memo not in self._checked:
            problem = check_output(argv, exit_code, data)
            if problem is None and self.golden.get(key) != digest:
                problem = "sha256 differs from the recorded digest"
            self._checked[memo] = problem
        problem = self._checked[memo]
        if problem is not None:
            self.problems.append(f"{key}: {problem}")
        return problem is None

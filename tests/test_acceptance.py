"""Acceptance gate: the twelve criteria the artifact must meet.

Each test prints exactly one status line of the form
"[acceptance NN] PASS|FAIL label" on the real stdout, then asserts.
"""

import functools
import json
import sys
import time
from fractions import Fraction

import pytest

from qbrackets import doublesum, jacobi
from qbrackets.brackets import correction_column, normalized_qbracket
from qbrackets.cli import run
from qbrackets.doublesum import verify_diffexp, verify_taylor_chain
from qbrackets.jacobi import verify_eq65, verify_prop21
from qbrackets.modforms import (
    QuasimodularPoly,
    check_thm_c,
    eisenstein,
    filtration,
    quasimodular_monomials,
)
from qbrackets.report import congruent_mod
from qbrackets.series import QExpansion, euler_function, multiply
from qbrackets.theorems import (
    check_eq_remark,
    check_oracle,
    check_support_e,
    check_thm_a,
    check_thm_b,
    check_thm_e,
)
from qbrackets.shifted import bracket_of_polynomial, parse_q_polynomial
from qbrackets.zetaseries import ZetaLaurent, ZetaQExpansion, zq_add

from documents_reference import parse_document
from modforms_reference import leading_g2_coefficient, quasi_decompose

# Published ten-term tables: weights 2 and 22, plain and regularized at 5.
TABLES = {
    (2, None): ["-1/24", "1", "3", "4", "7", "6", "12", "8", "15", "13"],
    (2, 5): ["1/6", "1", "3", "-1", "7", "6", "12", "13", "0", "13"],
    (22, None): [
        "-162912981133/552",
        "1",
        "10460353203",
        "476837158203124",
        "558545864083284007",
        "109418989121052006006",
        "7400249944258160101212",
        "247064528596613234501288",
        "4987885095119476318359375",
        "69091933354462879257896413",
    ],
    (22, 5): [
        "19420740739464719098414873/138",
        "1",
        "10460353203",
        "-1",
        "558545864083284007",
        "109418989121052006006",
        "7400249944258160101212",
        "247064529073450392704413",
        "0",
        "69091933354462879257896413",
    ],
}


_CAPTURE = None


@pytest.fixture(autouse=True)
def _terminal_capture(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _announce(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance {number:02d}] {status} {detail}\n"
    if _CAPTURE is None:
        sys.stdout.write(line)
        sys.stdout.flush()
        return
    with _CAPTURE.disabled():
        sys.stdout.write(line)
        sys.stdout.flush()


def criterion(number: int, label: str):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                _announce(number, False, f"{label}: {exc}")
                raise
            _announce(number, True, label)

        return inner

    return wrap


def _document(tmp_path, argv):
    target = tmp_path / "out.json"
    code = run(argv + ["--out", str(target)])
    assert code == 0, f"exit {code} for {argv}"
    return parse_document(target.read_text())


@criterion(1, "published ten-term tables reproduced through the command line")
def test_criterion_01_published_tables(tmp_path):
    started = time.perf_counter()
    for (k, p), expected in sorted(TABLES.items(), key=str):
        argv = ["compute", "bracket", "--k", str(k), "--terms", "9"]
        if p is not None:
            argv += ["--p", str(p)]
        doc = _document(tmp_path, argv)
        got = [str(c) for c in doc.coefficients]
        assert got == expected, f"table mismatch at weight {k}, p={p}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10, f"took {elapsed:.1f}s"


@criterion(2, "fast and enumeration methods agree for k <= 12, 30 terms, p in {none,5,7}")
def test_criterion_02_oracle_gate():
    started = time.perf_counter()
    report = check_oracle(max_weight=12, terms=30)
    assert report.verdict == "pass", report.witness
    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"took {elapsed:.1f}s"


@criterion(3, "weight congruences mod p^r across four parameter quadruples at 60 terms")
def test_criterion_03_thm_a():
    for p, r, k1, k2 in ((5, 2, 2, 22), (7, 1, 2, 8), (7, 2, 4, 88), (11, 1, 2, 12)):
        report = check_thm_a(p, r, k1, k2, 60)
        assert report.verdict == "pass", (p, r, k1, k2, report.witness)
    # the first quadruple is the printed mod-25 statement, p-adically exact
    assert check_thm_a(5, 2, 2, 22, 60).truncation == 61


@criterion(4, "staged p-adic approximation of the regularized bracket at 50 terms")
def test_criterion_04_thm_b():
    for p, k, i_max in ((5, 2, 3), (7, 4, 2)):
        report = check_thm_b(p, k, i_max, 50)
        assert report.verdict == "pass", (p, k, i_max, report.witness)


@criterion(5, "regularized brackets congruent to plain ones mod p^(k-1) at 100 terms")
def test_criterion_05_eq_remark():
    for p, k in ((5, 4), (5, 6), (7, 4), (7, 6)):
        report = check_eq_remark(p, k, 100)
        assert report.verdict == "pass", (p, k, report.witness)
        assert report.parameters["min_valuation"] >= k - 1


@criterion(6, "exact correction identity at 150 terms with printed witnesses")
def test_criterion_06_thm_e():
    for p, k in ((5, 2), (5, 4), (7, 2), (7, 6)):
        report = check_thm_e(p, k, 150)
        assert report.verdict == "pass", (p, k, report.witness)
    plain = normalized_qbracket(2, 8)
    regularized = normalized_qbracket(2, 8, 5)
    for n, before, after in ((3, 4, -1), (7, 8, 13), (8, 15, 0)):
        assert plain.coefficient(n) == before
        assert regularized.coefficient(n) == after


@criterion(7, "correction support lies on one quadratic-residue class up to q^2000")
def test_criterion_07_support():
    from qbrackets.arith import legendre

    for p, k in ((5, 2), (7, 4), (11, 2), (13, 6)):
        report = check_support_e(p, k, 2000)
        assert report.verdict == "pass", (p, k, report.witness)
        target = legendre(2, p)
        for e, c in enumerate(correction_column(k, p, 2000)):
            assert c == 0 or legendre(e, p) == target


@criterion(8, "bracket filtrations equal k(p+1)/2, with known control forms")
def test_criterion_08_filtration():
    started = time.perf_counter()
    for k, p in ((2, 5), (2, 7), (4, 7), (6, 11), (10, 13)):
        report = check_thm_c(p, k)
        assert report.verdict == "pass", (k, p, report.witness)
    e4 = QuasimodularPoly({(0, 1, 0): 1}, 4)
    assert filtration(e4, 5) == 0
    discriminant = QuasimodularPoly(
        {(0, 3, 0): Fraction(1, 1728), (0, 0, 2): Fraction(-1, 1728)}, 12
    )
    assert filtration(discriminant, 5) == 12
    assert filtration(discriminant, 7) == 12
    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"took {elapsed:.1f}s"


@criterion(9, "quasimodular decompositions certified with margin >= dim, leading term exact")
def test_criterion_09_quasimodularity():
    for k in range(2, 15, 2):
        dim = len(quasimodular_monomials(k))
        d = quasi_decompose(normalized_qbracket(k, 2 * dim), k, margin=dim)
        got, expected = leading_g2_coefficient(d)
        assert got == expected, f"leading coefficient at weight {k}"
    poly = parse_q_polynomial("Q3^2")
    assert poly.weight() == 6
    series = bracket_of_polynomial(poly, 6)
    quasi_decompose(series, 6, margin=3)


@criterion(10, "two-variable kernel identities pass; perturbed kernels fail")
def test_criterion_10_jacobi(monkeypatch):
    assert verify_eq65(720).verdict == "pass"
    for p in (3, 5, 7):
        assert verify_prop21(p, 30).verdict == "pass", p
    for p in (5, 7):
        assert verify_diffexp(p, 60).verdict == "pass", p
    for k in (2, 4, 6, 8, 22):
        assert verify_taylor_chain(k, 30).verdict == "pass", k

    real_kernel = jacobi._doubled_kernel
    real_integer_kernel = doublesum._kernel_double_sum

    def one_sided_blip(side):
        # perturbing both kernels at once would cancel in the filter identity;
        # the kernels are kept doubled, so each takes twice the blip
        def fake(terms, p):
            out = real_kernel(terms, p)
            if (p is None) == (side == "plain"):
                blip = ZetaQExpansion(
                    {24: ZetaLaurent.antisymmetric(1, 2)}, out.truncation
                )
                out = zq_add(out, blip)
            return out

        return fake

    def with_blip(stream, at, blip):
        # the stream runs in q-power order, and so does the blipped one; it
        # yields each antisymmetric coefficient as its half at zeta^j, j > 0
        halves = dict(stream)
        half = dict(halves.get(at, {}))
        for j, c in blip.items():
            half[j] = half.get(j, 0) + c
        halves[at] = {j: c for j, c in half.items() if c}
        return iter(sorted(halves.items()))

    def blipped_rows(s, terms, p):
        # diffexp's coprime rows are the doubled double sum at s = p
        out = real_integer_kernel(s, terms, p)
        if s > 1:
            out = with_blip(out, 2, {s: 2})
        return out

    def blipped_plain_rows(s, terms, p):
        # the integer kernel is twice the kernel, so it takes twice the blip
        out = real_integer_kernel(s, terms, p)
        if s == 1 and p is None:
            out = with_blip(out, 1, {1: 2})
        return out

    monkeypatch.setattr(jacobi, "_doubled_kernel", one_sided_blip("plain"))
    report = verify_eq65(240)
    assert (report.verdict, report.witness[0]) == ("fail", 27)
    monkeypatch.setattr(jacobi, "_doubled_kernel", real_kernel)
    # taylor-chain collapses the integer kernel, not the enumerated one
    monkeypatch.setattr(doublesum, "_kernel_double_sum", blipped_plain_rows)
    report = verify_taylor_chain(2, 15)
    assert (report.verdict, report.witness[0]) == ("fail", 1)
    monkeypatch.setattr(doublesum, "_kernel_double_sum", real_integer_kernel)
    monkeypatch.setattr(jacobi, "_doubled_kernel", one_sided_blip("regularized"))
    report = verify_prop21(5, 12)
    assert (report.verdict, report.witness[0]) == ("fail", 24)
    monkeypatch.setattr(jacobi, "_doubled_kernel", real_kernel)
    monkeypatch.setattr(doublesum, "_kernel_double_sum", blipped_rows)
    report = verify_diffexp(5, 20)
    assert (report.verdict, report.witness[0]) == ("fail", 48)


@criterion(11, "Eisenstein congruences to the Sturm bound; Euler product cross-check")
def test_criterion_11_prerequisites():
    terms = 20  # past every Sturm bound needed here
    one = QExpansion.one(terms + 1)
    for p in (5, 7, 11, 13):
        unit = congruent_mod(eisenstein(p - 1, terms, "E"), one, p, 1)
        assert unit is None, f"E_(p-1) not 1 mod {p}"
        pair = congruent_mod(eisenstein(2, terms, "E"), eisenstein(p + 1, terms, "E"), p, 1)
        assert pair is None, f"E_2 not E_(p+1) mod {p}"
    product = QExpansion.one(50)
    for n in range(1, 50 + 1):
        product = multiply(product, QExpansion({0: 1, n: -1}, 50))
    assert product == euler_function(50)


@criterion(12, "repeated invocations emit byte-identical report documents")
def test_criterion_12_determinism(tmp_path):
    invocations = [
        ["verify", "thm-a", "--p", "5", "--r", "1", "--k1", "4", "--k2", "8"],
        ["verify", "thm-c", "--p", "5", "--k", "2"],
        ["verify", "eq-remark", "--p", "5", "--k", "4", "--terms", "40"],
        ["verify", "prop21", "--p", "3", "--terms", "8"],
        ["verify", "eq65", "--units", "48"],
        ["verify", "taylor-chain", "--k", "2", "--terms", "8"],
        ["decompose", "--k", "4"],
        ["filtration", "--k", "2", "--p", "5"],
    ]
    for i, argv in enumerate(invocations):
        first = tmp_path / f"a{i}.json"
        second = tmp_path / f"b{i}.json"
        run(argv + ["--out", str(first)])
        run(argv + ["--out", str(second)])
        assert first.read_bytes() == second.read_bytes(), argv
        payload = json.loads(first.read_text())
        assert "elapsed" not in payload["metadata"]

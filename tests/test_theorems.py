"""Report plumbing and the orchestrated congruence checks.

The mathematical claims are true, so genuinely failing instances cannot be
produced through the public API; the negative controls instead monkeypatch
the bracket constructor to perturb one coefficient and assert the detectors
notice."""

import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from qbrackets import arith, brackets, theorems
from qbrackets.arith import padic_valuation
from qbrackets.modforms import check_thm_c
from qbrackets.report import VerificationReport
from qbrackets.series import QExpansion, add, first_difference
from qbrackets.theorems import (
    check_eq_remark,
    check_oracle,
    check_support_e,
    check_thm_a,
    check_thm_b,
    check_thm_e,
)


def _perturb_column(monkeypatch, only_p=(), only_k=(), layer=theorems):
    """Shift coefficient 1 of the selected bracket columns, as `layer` sees them, by +1."""
    real = theorems.bracket_column

    def fake(k, terms, p):
        out = real(k, terms, p)
        if (not only_p or p in only_p) and (not only_k or k in only_k):
            out[1] += 1
        return out

    monkeypatch.setattr(layer, "bracket_column", fake)


def _traced_peak(check, *args) -> float:
    """MiB of traced memory a second run of `check(*args)` peaks at: the
    first fills the Bernoulli and import caches, so only the check is seen."""
    assert check(*args).verdict == "pass"
    tracemalloc.start()
    try:
        assert check(*args).verdict == "pass"
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestReportType:
    def test_the_verdict_follows_from_truncation_and_witness(self):
        witness = (3, "1", "2")
        table = [
            (0, None, "not-applicable"),
            (0, witness, "not-applicable"),
            (1, None, "pass"),
            (10, None, "pass"),
            (1, witness, "fail"),
            (10, witness, "fail"),
        ]
        for truncation, given, verdict in table:
            report = VerificationReport("thm-a", {"p": 5}, truncation, given)
            assert report.verdict == verdict
            assert report.witness == given and report.truncation == truncation

    def test_unknown_claim_rejected(self):
        for claim in ("thm-z", "decompose", "filtration", ""):
            with pytest.raises(ValueError, match="unknown claim identifier"):
                VerificationReport(claim, {}, 10)

    def test_fields_cannot_be_assigned_or_deleted(self):
        report = VerificationReport("thm-a", {"p": 5}, 10, (3, "1", "2"))
        for name in ("claim", "parameters", "truncation", "verdict", "witness"):
            with pytest.raises(AttributeError):
                setattr(report, name, getattr(report, name))
            with pytest.raises(AttributeError):
                delattr(report, name)
        with pytest.raises(AttributeError):
            report.extra = 1
        assert report == VerificationReport("thm-a", {"p": 5}, 10, (3, "1", "2"))

    def test_equal_exactly_when_all_five_fields_are_equal(self):
        fields = ("thm-a", {"p": 5}, 10, (3, "1", "2"))
        report = VerificationReport(*fields)
        assert report == VerificationReport(*fields)
        # each differs from fields in its own position only; a missing
        # witness changes the verdict as well
        changed = ("thm-b", {"p": 7}, 11, (4, "1", "2"))
        for i, value in enumerate(changed):
            other = list(fields)
            other[i] = value
            assert VerificationReport(*other) != report
        passing = VerificationReport("thm-a", {"p": 5}, 10)
        assert passing != report and passing.verdict != report.verdict
        # truncation 0 makes the verdict not-applicable, whatever the witness
        assert VerificationReport("thm-a", {"p": 5}, 0, (3, "1", "2")) != report
        assert report != fields

    def test_passed_property(self):
        assert VerificationReport("oracle", {}, 1).passed
        assert not VerificationReport("oracle", {}, 1, (0, "1", "2")).passed
        assert not VerificationReport("oracle", {}, 0).passed


class TestFirstDifference:
    def test_reports_least_exponent_in_q_powers(self):
        a = QExpansion({0: 1, 2: 3}, 10)
        b = QExpansion({0: 1, 2: 4, 3: 9}, 10)
        assert first_difference(a, b) == (2, "3", "4")

    def test_none_when_equal_below_joint_truncation(self):
        a = QExpansion({0: 1, 480: 7}, 481)
        b = QExpansion({0: 1}, 240)
        assert first_difference(a, b) is None


class TestThmA:
    def test_weight_pair_congruent_mod_25(self):
        report = check_thm_a(5, 2, 2, 22, 60)
        assert report.verdict == "pass"
        assert report.truncation == 61
        assert report.parameters == {"p": 5, "r": 2, "k1": 2, "k2": 22, "terms": 60}

    def test_weight_multiple_of_p_minus_1_not_applicable(self):
        assert check_thm_a(5, 1, 4, 8, 20).verdict == "not-applicable"

    def test_weight_gap_not_matching_totient_not_applicable(self):
        # 22 - 2 = 20 is not a multiple of phi(125) = 100
        assert check_thm_a(5, 3, 2, 22, 20).verdict == "not-applicable"

    def test_small_prime_not_applicable(self):
        assert check_thm_a(3, 1, 4, 6, 20).verdict == "not-applicable"

    def test_usage_errors(self):
        with pytest.raises(ValueError):
            check_thm_a(6, 1, 2, 6, 10)
        with pytest.raises(ValueError):
            check_thm_a(5, 0, 2, 6, 10)
        with pytest.raises(ValueError):
            check_thm_a(5, 1, 3, 7, 10)

    def test_mutation_control(self, monkeypatch):
        _perturb_column(monkeypatch, only_k=(2,))
        report = check_thm_a(5, 2, 2, 22, 30)
        assert report.verdict == "fail"
        assert report.witness is not None
        assert report.witness[0] == 1

    def test_truncation_stability(self):
        for terms in (30, 60):
            assert check_thm_a(7, 1, 2, 8, terms).verdict == "pass"


class TestThmB:
    def test_stages_at_5(self):
        report = check_thm_b(5, 2, 2, 40)
        assert report.verdict == "pass"
        assert report.parameters["i_max"] == 2

    def test_stages_at_7(self):
        assert check_thm_b(7, 4, 2, 30).verdict == "pass"

    def test_zero_stages_vacuous(self):
        assert check_thm_b(5, 2, 0, 40).verdict == "not-applicable"

    def test_bad_weight_not_applicable(self):
        assert check_thm_b(5, 4, 2, 40).verdict == "not-applicable"

    def test_mutation_control(self, monkeypatch):
        _perturb_column(monkeypatch, only_p=(5,))
        report = check_thm_b(5, 2, 2, 30)
        assert report.verdict == "fail"
        assert report.witness is not None
        assert report.parameters["failing_stage"] == 1

    def test_failure_names_the_failing_stage(self, monkeypatch):
        # stage 2 compares the plain weight 2 + phi(25) = 22 bracket mod 25;
        # stage 1 (weight 6) is left intact and must still pass
        _perturb_column(monkeypatch, only_p=(None,), only_k=(22,))
        report = check_thm_b(5, 2, 2, 30)
        assert report.verdict == "fail"
        stage = theorems.bracket_column(22, 30, None)[1]
        assert report.witness == (1, str(stage), "1")
        assert report.parameters == {
            "p": 5, "k": 2, "i_max": 2, "terms": 30, "failing_stage": 2,
        }

    def test_passing_report_names_no_stage(self):
        assert "failing_stage" not in check_thm_b(5, 2, 2, 20).parameters


class TestThmC:
    def test_smallest_case(self):
        assert check_thm_c(5, 2).verdict == "pass"

    def test_weight_4_at_7(self):
        assert check_thm_c(7, 4).verdict == "pass"

    def test_weight_equal_p_minus_1_not_applicable(self):
        assert check_thm_c(5, 4).verdict == "not-applicable"

    def test_weight_at_least_p_not_applicable(self):
        assert check_thm_c(7, 8).verdict == "not-applicable"

    def test_small_prime_not_applicable(self):
        assert check_thm_c(3, 2).verdict == "not-applicable"

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29])
    def test_every_even_weight_below_p(self, p):
        verdicts = {k: check_thm_c(p, k).verdict for k in range(2, p, 2)}
        want = {k: "not-applicable" if k == p - 1 else "pass" for k in verdicts}
        assert verdicts == want

    def test_mutation_control(self, monkeypatch):
        _perturb_column(monkeypatch, only_p=(7,), layer=brackets)
        report = check_thm_c(7, 2)
        assert report.verdict == "fail"
        assert report.witness is not None

    def test_refuses_a_prime_whose_products_overflow_a_slot(self, monkeypatch):
        # the brackets at this prime's Sturm-type bound would need about 1.8 * 10^8
        # terms; the filtration's guard must refuse the prime before they are built
        real = brackets.bracket_column

        def limited(k, terms, p):
            if terms > 10**4:
                raise AssertionError(f"bracket of {terms} terms requested")
            return real(k, terms, p)

        monkeypatch.setattr(brackets, "bracket_column", limited)
        with pytest.raises(ValueError, match="64-bit"):
            check_thm_c(2**31 - 1, 2)


class TestThmE:
    def test_identity_instances(self):
        assert check_thm_e(5, 2, 60).verdict == "pass"
        assert check_thm_e(7, 6, 40).verdict == "pass"

    def test_small_prime_not_applicable(self):
        # the identity itself extends to p = 3 (see the brackets tests); the
        # claim as stated starts at 5
        assert check_thm_e(3, 4, 20).verdict == "not-applicable"

    def test_mutation_control(self, monkeypatch):
        real = theorems.correction_column

        def fake(k, p, terms):
            out = real(k, p, terms)
            out[3] += 1
            return out

        monkeypatch.setattr(theorems, "correction_column", fake)
        report = check_thm_e(5, 2, 30)
        assert report.verdict == "fail"
        assert report.witness[0] == 3

    def test_truncation_stability(self):
        for terms in (40, 80):
            assert check_thm_e(5, 4, terms).verdict == "pass"

    def test_compares_without_intermediate_series(self):
        # the three bracket columns and the correction column peak at 1.53 MiB
        # traced (CPython 3.11); kernels that kept their whole power tables
        # would peak at 2.04 MiB, holding the brackets as series at 3.24 MiB, and
        # building plain(q^25), correction and the right-hand side as series
        # on top at 4.73 MiB.  The bound leaves 0.27 MiB for the interpreter's
        # variation.
        assert _traced_peak(check_thm_e, 5, 2, 15000) < 1.8


class TestSupportE:
    def test_instances(self):
        assert check_support_e(5, 2, 2000).verdict == "pass"
        assert check_support_e(7, 4, 500).verdict == "pass"

    def test_mutation_control(self, monkeypatch):
        # exponent 1 has Legendre symbol +1, never equal to (2/5) = -1
        monkeypatch.setattr(theorems, "correction_column", lambda k, p, terms: [0, 1])
        report = check_support_e(5, 2, 1)
        assert report.verdict == "fail"
        assert report.witness == (1, "1", "-1")


    def test_legendre_symbol_is_evaluated_per_residue(self, monkeypatch):
        # the symbol depends only on n mod p, so primality tests stay bounded
        calls = []
        real = arith.is_prime

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(arith, "is_prime", counting)
        counts = []
        for terms in (2000, 20000):
            calls.clear()
            assert check_support_e(13, 2, terms).verdict == "pass"
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 13

    def test_scans_the_correction_column_in_place(self):
        # scanning the 100,001-entry column peaks at 1.57 MiB traced (CPython
        # 3.11); a kernel that kept its whole power table would peak at
        # 1.87 MiB, and turning the column into a series and a sorted support
        # first at 3.96 MiB.  The bound leaves 0.25 MiB for the interpreter's
        # variation.
        assert _traced_peak(check_support_e, 13, 2, 100000) < 1.82


def eq_remark_by_valuations(plain, regularized, p, k):
    """The eq-remark comparison one p-adic valuation per coefficient: the
    witness of the first positive exponent whose difference has valuation
    below k - 1, else None, and the least valuation of the nonzero
    differences, or None when there are none."""
    minimum = math.inf
    for e in range(1, len(plain)):
        ca, cb = plain[e], regularized[e]
        if ca == cb:
            continue
        v = padic_valuation(ca - cb, p)
        if v < k - 1:
            return (e, str(ca), str(cb)), None
        minimum = min(minimum, v)
    return None, None if minimum is math.inf else int(minimum)


@st.composite
def _bracket_column_pairs(draw):
    """(p, k, plain, regularized): two integer columns whose differences are
    p^v times a unit or zero, with v >= k - 1 except, in half the cases, at
    a few drawn exponents."""
    p, k = draw(st.sampled_from([5, 7])), draw(st.sampled_from([2, 4, 6]))
    terms = draw(st.integers(0, 40))
    low = set(draw(st.lists(st.integers(1, max(terms, 1)), max_size=3)))
    plain, regularized = [0], [0]
    for e in range(1, terms + 1):
        c = draw(st.integers(-10**30, 10**30))
        v = draw(st.integers(0, k - 2) if e in low else st.integers(k - 1, k + 3))
        unit = draw(st.sampled_from([0, 1, -1, 2, 3, -4, 6, 8]))
        plain.append(c)
        regularized.append(c - unit * p**v)
    return p, k, plain, regularized


@settings(max_examples=200, deadline=None)
@given(_bracket_column_pairs())
def test_eq_remark_matches_the_per_coefficient_valuations(case):
    p, k, plain, regularized = case
    columns = {None: plain, p: regularized}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(theorems, "bracket_column", lambda k_, terms, q: list(columns[q]))
        report = check_eq_remark(p, k, len(plain) - 1)
    witness, minimum = eq_remark_by_valuations(plain, regularized, p, k)
    assert report.witness == witness
    assert report.parameters.get("min_valuation") == minimum


class TestEqRemark:
    def test_minimum_valuation_is_exact_at_5_4(self):
        report = check_eq_remark(5, 4, 100)
        assert report.verdict == "pass"
        assert report.parameters["min_valuation"] == 3

    def test_compares_the_two_brackets_in_place(self):
        # the two 15,001-term bracket columns peak at 1.51 MiB traced (CPython
        # 3.11); kernels that kept their whole power tables would peak at
        # 2.00 MiB, holding the columns as series at 3.14 MiB, and listing,
        # joining and sorting their supports on top at 3.96 MiB.  The bound
        # leaves 0.25 MiB for the interpreter's variation.
        assert _traced_peak(check_eq_remark, 7, 4, 15000) < 1.76

    def test_other_instances_meet_the_bound(self):
        for p, k in ((5, 6), (7, 4), (7, 6)):
            report = check_eq_remark(p, k, 60)
            assert report.verdict == "pass"
            assert report.parameters["min_valuation"] >= k - 1

    def test_small_prime_not_applicable(self):
        assert check_eq_remark(3, 4, 20).verdict == "not-applicable"

    def test_mutation_control(self, monkeypatch):
        _perturb_column(monkeypatch, only_p=(5,))
        report = check_eq_remark(5, 4, 30)
        assert report.verdict == "fail"
        assert report.witness is not None

    def test_truncation_stability(self):
        for terms in (50, 100):
            assert check_eq_remark(5, 4, terms).verdict == "pass"


class TestOracle:
    def test_small_grid(self):
        report = check_oracle(6, 12)
        assert report.verdict == "pass"

    def test_mutation_control(self, monkeypatch):
        # a symmetric perturbation would cancel, so break only the fast path
        real = theorems.normalized_qbracket

        def asymmetric(k, terms, p=None, method="fast"):
            out = real(k, terms, p, method)
            if method == "fast" and k == 4:
                out = add(out, QExpansion({1: 1}, out.truncation))
            return out

        monkeypatch.setattr(theorems, "normalized_qbracket", asymmetric)
        report = check_oracle(4, 8)
        assert report.verdict == "fail"
        assert report.witness is not None
        assert report.parameters["failing_k"] == 4
        assert "failing_p" not in report.parameters

    def test_failure_names_the_enumerated_bracket(self, monkeypatch):
        real = theorems.normalized_qbracket

        def perturbed(k, terms, p=None, method="fast"):
            out = real(k, terms, p, method)
            if method == "enumerate" and (k, p) == (4, 7):
                out = add(out, QExpansion({3: 1}, out.truncation))
            return out

        monkeypatch.setattr(theorems, "normalized_qbracket", perturbed)
        report = check_oracle(6, 8)
        assert report.verdict == "fail"
        fast = real(4, 8, 7).coefficient(3)
        assert report.witness == (3, str(fast), str(fast + 1))
        assert report.parameters == {
            "max_weight": 6, "terms": 8, "failing_k": 4, "failing_p": 7,
        }

    def test_passing_report_names_no_bracket(self):
        assert check_oracle(4, 6).parameters == {"max_weight": 4, "terms": 6}

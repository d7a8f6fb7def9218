"""The two-variable kernel: construction oracles and identity detectors."""

from fractions import Fraction
from math import gcd

import pytest

from qbrackets import doublesum, jacobi
from qbrackets.brackets import normalized_qbracket
from qbrackets.correction import correction_column
from qbrackets.cli import run
from qbrackets.errors import TruncationError
from qbrackets.doublesum import verify_diffexp, verify_taylor_chain
from qbrackets.jacobi import partition_zeta_sum, theta1_doubled, verify_eq65, verify_prop21
from qbrackets.partitions import enumerate_partitions
from qbrackets.report import first_difference
from qbrackets.series import QExpansion
from qbrackets.zetaseries import ZetaLaurent

from partitions_reference import c_multiset
from series_reference import scale

HALF = Fraction(1, 2)


def _with_blip(stream, at, blip):
    """A double-sum stream with the half `blip` added at q-power `at`, in
    q-power order."""
    halves = dict(stream)
    half = dict(halves.get(at, {}))
    for j, c in blip.items():
        half[j] = half.get(j, 0) + c
    halves[at] = {j: c for j, c in half.items() if c}
    return iter(sorted(halves.items()))


def _mirrored(half):
    """The antisymmetric Laurent polynomial whose exponents j > 0 are `half`."""
    return ZetaLaurent({**half, **{-j: -c for j, c in half.items()}})


def _perturb_kernel(monkeypatch, predicate):
    """Add an antisymmetric blip at q^1 (24 units) to kernels selected by predicate.

    Kernels are kept doubled, so each takes twice the blip: enumerated ones
    at entry 1 of the column `_doubled_kernel` returns, double-sum ones in
    the stream of `_kernel_double_sum` (plain rows), which is what
    `verify_taylor_chain` collapses.
    """
    real = jacobi._doubled_kernel
    real_rows = doublesum._kernel_double_sum

    def fake(terms, p):
        out = real(terms, p)
        if predicate(terms, p, "enumerate"):
            out[1] += ZetaLaurent.antisymmetric(1, 2)
        return out

    def fake_rows(s, terms, p):
        out = real_rows(s, terms, p)
        if s == 1 and predicate(terms, p, "double_sum"):
            out = _with_blip(out, 1, {1: 2})
        return out

    monkeypatch.setattr(jacobi, "_doubled_kernel", fake)
    monkeypatch.setattr(doublesum, "_kernel_double_sum", fake_rows)


def _blip_divisible_rows(monkeypatch):
    """Add an antisymmetric blip in zeta^p at q^2 (48 units) to the coprime
    rows of `verify_diffexp` (the double sum at s = p; twice the blip, as the
    rows are doubled)."""
    real = doublesum._kernel_double_sum

    def fake(s, terms, p):
        out = real(s, terms, p)
        if s > 1:
            out = _with_blip(out, 2, {s: 2})
        return out

    monkeypatch.setattr(doublesum, "_kernel_double_sum", fake)


def _collected(s, terms, p=None):
    """The double-sum stream gathered into one column of q^0 .. q^terms."""
    column = [ZetaLaurent()] * (terms + 1)
    for e, half in doublesum._kernel_double_sum(s, terms, p):
        column[e] = _mirrored(half)
    return column


def _halved(column):
    return [HALF * laurent for laurent in column]


def _collapsed(s, terms, k, p=None):
    """The double-sum stream with zeta^m collapsed to m^(k-1), as a q-series."""
    collapsed = {}
    for e, half in doublesum._kernel_double_sum(s, terms, p):
        laurent = _mirrored(half).terms
        collapsed[e] = sum(c * m ** (k - 1) for m, c in laurent.items())
    return QExpansion(collapsed, terms + 1)


def _naive_double_sum(s, terms, p):
    """Twice the double sum by the (n, m) double loop: q-power -> Laurent."""
    twice = {}
    for n in range(1, terms + 1):
        if gcd(n, s) > 1:
            continue
        sign = 1 if n % 2 else -1
        for m in range(terms + 1):
            e = n * (n + s) // 2 + m * n * s
            if e > terms:
                break
            j = s * (2 * m + 1)
            if p is None or j % p:
                acc = twice.setdefault(e, {})
                acc[j] = acc.get(j, 0) + sign
                acc[-j] = acc.get(-j, 0) - sign
    return {e: ZetaLaurent(acc) for e, acc in twice.items()}


def _half_double_sum(length, rows, p=None):
    """Reference kernel double sum accumulated with Fraction halves, as a
    column of q^0 .. q^(length - 1).

    rows yields (n, first q-power, q step, first zeta exponent, zeta step).
    """
    entries = [{} for _ in range(length)]
    for n, e, step, j, j_step in rows:
        coeff = HALF if n % 2 else -HALF
        while e < length:
            if p is None or j % p:
                acc = entries[e]
                acc[j] = acc.get(j, 0) + coeff
                acc[-j] = acc.get(-j, 0) - coeff
            e += step
            j += j_step
    return [ZetaLaurent(acc) for acc in entries]


def _support(column):
    """The q-powers of a column's nonzero entries."""
    return [n for n, laurent in enumerate(column) if not laurent.is_zero()]


class TestTheta:
    # entry n is the coefficient of q^(n + 1/8), at 24n + 3 units

    def test_lowest_term(self):
        t = theta1_doubled(0)
        assert t == [ZetaLaurent.antisymmetric(1)]
        assert _support(theta1_doubled(2)) == [0, 1]  # 3 and 27 units

    def test_exponents_are_three_times_odd_squares(self):
        t = theta1_doubled(83)
        assert len(t) == 84
        units = [24 * n + 3 for n in _support(t)]
        assert units == [3 * j * j for j in (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25)]

    def test_alternating_antisymmetric_coefficients(self):
        t = theta1_doubled(16)
        assert all(lau.is_antisymmetric() for lau in t)
        assert t[1] == ZetaLaurent.antisymmetric(3, -1)
        assert t[3] == ZetaLaurent.antisymmetric(5)
        assert t[6] == ZetaLaurent.antisymmetric(7, -1)

    def test_tiny_truncation_rejected(self):
        with pytest.raises(ValueError):
            theta1_doubled(-1)


class TestPartitionZetaSum:
    # entry n is the coefficient of q^(n - 1/24), at 24n - 1 units

    def test_worked_small_sizes(self):
        s = partition_zeta_sum(2)
        assert _support(s) == [1, 2] and len(s) == 3
        assert s[1] == ZetaLaurent.antisymmetric(1)
        # partitions (2) and (1,1) contribute hooks 3/2,-1/2 and 1/2,-3/2
        assert s[2] == ZetaLaurent({3: 1, 1: 1, -1: -1, -3: -1})

    def test_exponent_grid_and_zeta_bounds(self):
        s = partition_zeta_sum(20)
        assert len(s) == 21 and s[0].is_zero()
        for n in _support(s):
            lau = s[n]
            assert all(m % 2 for m in lau.terms)
            assert max(abs(m) for m in lau.terms) <= 2 * n - 1

    def test_antisymmetric_by_conjugation(self):
        assert all(lau.is_antisymmetric() for lau in partition_zeta_sum(16))

    def test_regularized_support_avoids_p(self):
        for p in (3, 5, 7):
            for lau in partition_zeta_sum(14, p):
                assert all(m % p for m in lau.terms)

    @pytest.mark.parametrize("p", [None, 3, 5, 7])
    def test_sizes_match_partition_enumeration(self, p):
        s = partition_zeta_sum(22, p)
        for n in (1, 9, 17, 22):
            reference = {}
            for lam in enumerate_partitions(n):
                for d in c_multiset(lam):
                    if p is None or d % p:
                        reference[d] = reference.get(d, 0) + (1 if d > 0 else -1)
            assert s[n] == ZetaLaurent(reference), n

    def test_regularized_is_coprime_filter_of_plain(self):
        plain = partition_zeta_sum(14)
        for p in (3, 5, 7):
            coprime = [lau.filter_exponents(p, "coprime") for lau in plain]
            assert coprime == partition_zeta_sum(14, p)


class TestKernel:
    @pytest.mark.parametrize("s", [1, 5, 7])
    @pytest.mark.parametrize("p", [None, 5, 7])
    def test_stream_matches_the_double_loop_across_windows(self, s, p):
        for terms in (0, 1, 2, 1023, 1024, 1025, 2049):
            stream = list(doublesum._kernel_double_sum(s, terms, p))
            powers = [e for e, _ in stream]
            assert all(a < b for a, b in zip(powers, powers[1:])), terms
            assert all(1 <= e <= terms for e in powers), terms
            # each half keeps only nonzero coefficients at exponents j > 0
            assert all(j > 0 and c for _, half in stream for j, c in half.items()), terms
            mirrored = {e: _mirrored(half) for e, half in stream}
            assert mirrored == _naive_double_sum(s, terms, p), terms

    def test_methods_agree(self):
        for p in (None, 3, 5, 7):
            for terms in (0, 1, 2, 5, 9, 14, 21, 30):
                a = jacobi._doubled_kernel(terms, p)
                assert a == _collected(1, terms, p), (p, terms)

    @pytest.mark.parametrize("p", [None, 5, 7])
    def test_methods_agree_at_the_enumeration_budget(self, p):
        terms = jacobi.ENUMERATION_BUDGET
        a = jacobi._doubled_kernel(terms, p)
        assert a == _collected(1, terms, p)

    @pytest.mark.parametrize("p", [None, 3, 5, 7])
    def test_integer_kernel_is_twice_the_kernel(self, p):
        twice = jacobi._doubled_kernel(30, p)
        streamed = _collected(1, 60, p)
        for kernel in (twice, streamed):
            assert all(type(c) is int for lau in kernel for c in lau.terms.values())
        rows = [(n, n * (n + 1) // 2, n, 1, 2) for n in range(1, 32)]
        assert _halved(twice) == _half_double_sum(len(twice), rows, p)

    @pytest.mark.parametrize("p", [None, 5, 7])
    def test_integer_double_sum_matches_half_accumulation(self, p):
        for terms in (0, 1, 2, 3, 6, 10, 25, 61, 200):
            rows = [(n, n * (n + 1) // 2, n, 1, 2) for n in range(1, terms + 2)]
            got = _halved(_collected(1, terms, p))
            assert got == _half_double_sum(terms + 1, rows, p), terms
            assert all(type(c) is Fraction for lau in got for c in lau.terms.values())

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_divisible_rows_match_half_accumulation(self, p):
        for terms in (0, 39, 299):
            rows = [
                (n, n * (n + p) // 2, n * p, p, 2 * p)
                for n in range(1, terms + 1) if n % p and n * (n + p) // 2 <= terms
            ]
            got = _halved(_collected(p, terms))
            assert got == _half_double_sum(terms + 1, rows), terms

    def test_integral_grid_and_antisymmetry(self):
        # entry n of the kernel is the coefficient of q^n, integral
        kernel = jacobi._doubled_kernel(25, None)
        assert len(kernel) == 26
        assert all(lau.is_antisymmetric() for lau in kernel)
        assert all(min(half) > 0 for _, half in doublesum._kernel_double_sum(1, 25, None) if half)

    def test_lowest_coefficient(self):
        kernel = jacobi._doubled_kernel(3, None)
        assert kernel[0].is_zero() and kernel[1] == ZetaLaurent.antisymmetric(1)
        assert next(doublesum._kernel_double_sum(1, 3, None)) == (1, {1: 1})

    def test_regularized_zeta_support(self):
        for e, half in doublesum._kernel_double_sum(1, 22, 5):
            assert all(m % 5 for m in half), e
        for lau in jacobi._doubled_kernel(22, 5):
            assert all(m % 5 for m in lau.terms)

    def test_enumeration_budget_enforced(self):
        with pytest.raises(ValueError):
            jacobi._doubled_kernel(41, None)
        assert list(doublesum._kernel_double_sum(1, 41, None))

    def test_validation(self):
        with pytest.raises(ValueError):
            jacobi._doubled_kernel(5, 2)
        with pytest.raises(ValueError):
            jacobi._doubled_kernel(5, 9)
        with pytest.raises(ValueError):
            jacobi._doubled_kernel(-1, None)
        # the stream refuses a negative term count when called, not when read
        with pytest.raises(ValueError):
            doublesum._kernel_double_sum(1, -1, None)

    @pytest.mark.parametrize("s", [0, -1])
    def test_a_row_scale_below_one_is_refused_when_called(self, s):
        # such a row steps by 0 or backwards and never ends, so the generator is
        # never read here: were the call to return one, the test fails, not hangs
        with pytest.raises(ValueError, match="row scale"):
            doublesum._kernel_double_sum(s, 5, None)


class TestEq65:
    def test_desk_scale(self):
        report = verify_eq65(720)
        assert report.verdict == "pass"
        assert report.truncation == 720
        assert report.witness is None

    def test_smallest_window(self):
        assert verify_eq65(28).verdict == "pass"

    def test_too_small_to_test(self):
        with pytest.raises(TruncationError):
            verify_eq65(26)

    def test_mutation_control(self, monkeypatch):
        _perturb_kernel(monkeypatch, lambda terms, p, method: p is None)
        report = verify_eq65(240)
        assert report.verdict == "fail"
        assert report.witness is not None


class TestProp21:
    def test_odd_primes(self):
        for p, terms in ((3, 20), (5, 30), (7, 30)):
            report = verify_prop21(p, terms)
            assert report.verdict == "pass", p
            assert report.parameters == {"p": p, "terms": terms}

    def test_even_prime_rejected(self):
        with pytest.raises(ValueError):
            verify_prop21(2, 10)

    def test_mutation_control(self, monkeypatch):
        _perturb_kernel(monkeypatch, lambda terms, p, method: p is not None)
        report = verify_prop21(5, 12)
        assert report.verdict == "fail"
        assert report.witness[0] == 24


class TestDiffexp:
    def test_odd_primes(self):
        assert verify_diffexp(5, 60).verdict == "pass"
        assert verify_diffexp(7, 100).verdict == "pass"
        assert verify_diffexp(3, 40).verdict == "pass"

    def test_displayed_sum_collapses_to_correction(self):
        # weight-k collapse of the extra double sum is p^(k-1) times the
        # correction series of the exact bracket identity
        for k, p, terms in ((2, 5, 60), (4, 7, 40)):
            collapsed = scale(_collapsed(p, terms, k), HALF)
            expected = QExpansion.from_column(correction_column(k, p, terms))
            assert collapsed == scale(expected, p ** (k - 1))

    def test_mutation_control(self, monkeypatch):
        _blip_divisible_rows(monkeypatch)
        report = verify_diffexp(5, 20)
        assert report.verdict == "fail"
        assert report.witness[0] == 48


class TestTaylorChain:
    def test_even_weights(self):
        for k in (2, 4, 6, 8):
            report = verify_taylor_chain(k, 30)
            assert report.verdict == "pass", k

    def test_large_weight_constant(self):
        assert verify_taylor_chain(22, 20).verdict == "pass"
        series = _collapsed(1, 20, 22)
        constant = normalized_qbracket(22, 20).coefficient(0)
        assert constant == Fraction(-162912981133, 552)
        assert series.coefficient(0) == 0  # the constant enters via the chain

    def test_odd_weight_both_sides_zero(self):
        report = verify_taylor_chain(3, 25)
        assert report.verdict == "pass"
        assert _collapsed(1, 25, 3) == QExpansion({}, 26)

    def test_mutation_control(self, monkeypatch):
        _perturb_kernel(monkeypatch, lambda terms, p, method: p is None)
        report = verify_taylor_chain(2, 15)
        assert report.verdict == "fail"
        assert report.witness[0] == 1
        assert report.parameters["failing_kernel"] == "plain"

    def test_failure_names_the_regularized_kernel(self, monkeypatch):
        _perturb_kernel(monkeypatch, lambda terms, p, method: p == 7)
        report = verify_taylor_chain(4, 15, 7)
        assert report.verdict == "fail"
        assert report.witness[0] == 1
        assert report.parameters == {
            "k": 4, "terms": 15, "p": 7, "failing_kernel": "regularized",
        }

    def test_passing_report_names_no_kernel(self):
        report = verify_taylor_chain(4, 10, 7)
        assert report.parameters == {"k": 4, "terms": 10, "p": 7}


def _skip_divisible_filter(monkeypatch):
    """Make prop21's second filter branch compare the unfiltered kernel."""
    real = ZetaLaurent.filter_exponents
    monkeypatch.setattr(
        ZetaLaurent, "filter_exponents",
        lambda self, p, keep: self if keep == "divisible" else real(self, p, keep),
    )


def _negate_substitution(monkeypatch):
    """Flip the sign of the pole list that diffexp substitutes."""
    real = doublesum._substituted_poles
    monkeypatch.setattr(doublesum, "_substituted_poles",
                        lambda poles, zp: tuple((m, -c) for m, c in real(poles, zp)))


_REPORT_HEAD = '{"coefficients":[],"exponent_unit":%d,"kind":"report","metadata":{'


class TestPinnedWitnesses:
    """Failing checks keep the exact witness strings and document bytes they
    had when the kernels were halved into one Fraction per entry."""

    @pytest.mark.parametrize("mutate, check, argv, witness, document", [
        (lambda mp: _perturb_kernel(mp, lambda terms, p, method: p is None),
         lambda: verify_eq65(240), ["verify", "eq65", "--units", "240"],
         (27, "ZetaLaurent(2*z^-2 + -7*z^0 + 2*z^2)", "ZetaLaurent(-3*z^0)"),
         _REPORT_HEAD % 24 + '"claim":"eq65","terms":"10","truncation_units":"240",'
         '"verdict":"fail","witness_exponent":"27",'
         '"witness_lhs":"ZetaLaurent(2*z^-2 + -7*z^0 + 2*z^2)",'
         '"witness_rhs":"ZetaLaurent(-3*z^0)"},"truncation":240,"weight":null}\n'),
        (lambda mp: _perturb_kernel(mp, lambda terms, p, method: p is not None),
         lambda: verify_prop21(5, 12), ["verify", "prop21", "--p", "5", "--terms", "12"],
         (24, "ZetaLaurent(-1/2*z^-1 + 1/2*z^1)", "ZetaLaurent(-3/2*z^-1 + 3/2*z^1)"),
         _REPORT_HEAD % 24 + '"claim":"prop21","p":"5","terms":"12","verdict":"fail",'
         '"witness_exponent":"24","witness_lhs":"ZetaLaurent(-1/2*z^-1 + 1/2*z^1)",'
         '"witness_rhs":"ZetaLaurent(-3/2*z^-1 + 3/2*z^1)"},"truncation":311,"weight":null}\n'),
        (_skip_divisible_filter,
         lambda: verify_prop21(5, 12), ["verify", "prop21", "--p", "5", "--terms", "12"],
         (24, "ZetaLaurent(-1/2*z^-1 + 1/2*z^1)", "ZetaLaurent(0)"),
         _REPORT_HEAD % 24 + '"claim":"prop21","p":"5","terms":"12","verdict":"fail",'
         '"witness_exponent":"24","witness_lhs":"ZetaLaurent(-1/2*z^-1 + 1/2*z^1)",'
         '"witness_rhs":"ZetaLaurent(0)"},"truncation":311,"weight":null}\n'),
        (_blip_divisible_rows,
         lambda: verify_diffexp(5, 20), ["verify", "diffexp", "--p", "5", "--terms", "20"],
         (48, "ZetaLaurent(0)", "ZetaLaurent(-1*z^-5 + 1*z^5)"),
         _REPORT_HEAD % 24 + '"claim":"diffexp","p":"5","terms":"20","verdict":"fail",'
         '"witness_exponent":"48","witness_lhs":"ZetaLaurent(0)",'
         '"witness_rhs":"ZetaLaurent(-1*z^-5 + 1*z^5)"},"truncation":503,"weight":null}\n'),
        (_negate_substitution,
         lambda: verify_diffexp(5, 20), ["verify", "diffexp", "--p", "5", "--terms", "20"],
         (-1, "((5, Fraction(-1, 2)),)", "((5, Fraction(1, 2)),)"),
         _REPORT_HEAD % 24 + '"claim":"diffexp","p":"5","terms":"20","verdict":"fail",'
         '"witness_exponent":"-1","witness_lhs":"((5, Fraction(-1, 2)),)",'
         '"witness_rhs":"((5, Fraction(1, 2)),)"},"truncation":503,"weight":null}\n'),
        (lambda mp: _perturb_kernel(mp, lambda terms, p, method: p is None),
         lambda: verify_taylor_chain(2, 15),
         ["verify", "taylor-chain", "--k", "2", "--terms", "15"],
         (1, "3", "1"),
         _REPORT_HEAD % 1 + '"claim":"taylor-chain","failing_kernel":"plain","k":"2",'
         '"p":"5","terms":"15","verdict":"fail","witness_exponent":"1","witness_lhs":"3",'
         '"witness_rhs":"1"},"truncation":16,"weight":2}\n'),
    ], ids=["eq65", "prop21-coprime", "prop21-divisible", "diffexp-rows", "diffexp-pole",
            "taylor-chain"])
    def test_failing_witness_is_pinned(self, monkeypatch, tmp_path, capsys,
                                       mutate, check, argv, witness, document):
        mutate(monkeypatch)
        report = check()
        assert report.verdict == "fail"
        assert report.witness == witness
        out = tmp_path / "report.json"
        assert run(argv + ["--out", str(out)]) == 1
        assert out.read_text() == document
        assert capsys.readouterr().err == ""


class TestWitnessHelper:
    def test_first_unit_exponent_reported(self):
        # doubled kernels differ first at q^2, that is 48 units, stated in halves
        a = [ZetaLaurent(), ZetaLaurent.antisymmetric(1, 2), ZetaLaurent()]
        b = [ZetaLaurent(), ZetaLaurent.antisymmetric(1, 2), ZetaLaurent.constant(2)]
        assert first_difference(a, b) == (2, "ZetaLaurent(0)", "ZetaLaurent(2*z^0)")
        witness = jacobi._witness_of_halves(a, b)
        assert witness == (48, "ZetaLaurent(0)", "ZetaLaurent(1*z^0)")

    def test_agreement_below_bound(self):
        a = [ZetaLaurent(), ZetaLaurent.antisymmetric(1), ZetaLaurent.constant(3)]
        b = a[:2]
        assert first_difference(a, b) is None
        assert jacobi._witness_of_halves(a, b) is None

"""Expression parser, document serialization, and end-to-end invocations."""

import contextlib
import importlib.util
import io
import json
import os
import stat
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from qbrackets import brackets, cli, correction, doublesum, jacobi, modforms, shifted, theorems, usage
from qbrackets.brackets import normalized_qbracket
from qbrackets.cli import SeriesDocument, canonical_fraction, run
from qbrackets.errors import ExpressionError
from qbrackets.shifted import bracket_of_polynomial, parse_q_polynomial
from qbrackets.zetaseries import ZetaLaurent

from documents_reference import (
    document_to_csv,
    is_canonical_fraction,
    parse_document,
    serialize_document,
)
from series_reference import scale


# (text, position of the error, message) for malformed expressions
SYNTAX_ERRORS = [
    ("", 0, "empty expression"),
    ("  ", 2, "empty expression"),
    ("1/0", 2, "denominator must be positive"),
    ("2*3", 2, "expected a generator after '*'"),
    ("Q2$", 2, "expected '+' or '-', found '$'"),
    ("Q", 1, "expected a generator index"),
    ("Q2^", 3, "expected an exponent"),
    ("Q2^0", 3, "exponent must be positive"),
    ("Q2 Q3 +", 7, "expected a rational or a generator"),
    ("*Q2", 0, "expected a rational or a generator"),
    ("1 2", 2, "expected '+' or '-', found '2'"),
    ("Q2 3", 3, "expected '+' or '-', found '3'"),
    ("2**Q2", 2, "expected a generator after '*'"),
    ("Q2+*Q3", 3, "expected a rational or a generator"),
    ("1/", 2, "expected a denominator"),
    ("1/ 0", 3, "denominator must be positive"),
    ("Q 0", 2, "generator index must be >= 1"),
    ("Q2^ 0", 4, "exponent must be positive"),
    ("--Q2", 1, "expected a rational or a generator"),
    ("Q2-", 3, "expected a rational or a generator"),
    ("1/2/3", 3, "expected '+' or '-', found '/'"),
    ("Q2^3^4", 4, "expected '+' or '-', found '^'"),
    ("Q1_0", 2, "expected '+' or '-', found '_'"),
    # only ASCII digits are digits
    ("Q\u00b2", 1, "expected a generator index"),
    ("Q\u0663", 1, "expected a generator index"),
    # numbers beyond int()'s default limit of 4,300 digits
    ("Q" + "1" * 5000, 1, "number longer than 4300 digits"),
    ("9" * 5000 + "*Q2", 0, "number longer than 4300 digits"),
    ("Q2^" + "1" * 5000, 3, "number longer than 4300 digits"),
    ("1/" + "7" * 5000 + "*Q2", 2, "number longer than 4300 digits"),
    # a monomial's grading sum(i * exponent) is at most MAX_GRADING = 1000,
    # checked at the generator that exceeds it
    ("Q2^99999999999", 0, "monomial grading exceeds 1000"),
    ("Q1001", 0, "monomial grading exceeds 1000"),
    ("Q2 + 3*Q99999999999", 7, "monomial grading exceeds 1000"),
    ("Q2^500*Q1", 7, "monomial grading exceeds 1000"),
    ("Q2^300 Q2^201", 7, "monomial grading exceeds 1000"),
]


class TestParser:
    def test_single_generator(self):
        poly = parse_q_polynomial("Q2")
        assert poly.terms == {((2, 1),): 1}
        assert poly.weight() == 2

    def test_two_term_expression(self):
        poly = parse_q_polynomial("Q3^2 - 1/24*Q2")
        assert poly.terms == {((3, 2),): 1, ((2, 1),): Fraction(-1, 24)}
        assert poly.weight() == 6

    def test_whitespace_insensitive(self):
        reference = parse_q_polynomial("2/3*Q1^2*Q4-Q2")
        spaced = parse_q_polynomial("  2 / 3 * Q 1 ^ 2 * Q4  -  Q2 ")
        assert spaced.terms == reference.terms

    def test_star_optional(self):
        assert parse_q_polynomial("2Q2").terms == parse_q_polynomial("2*Q2").terms
        assert (
            parse_q_polynomial("Q1Q2").terms == parse_q_polynomial("Q1*Q2").terms
        )

    def test_repeated_generator_merges(self):
        assert parse_q_polynomial("Q2*Q2").terms == {((2, 2),): 1}

    def test_leading_sign(self):
        assert parse_q_polynomial("-Q2").terms == {((2, 1),): -1}
        assert parse_q_polynomial("+Q2").terms == {((2, 1),): 1}

    def test_constant_term(self):
        poly = parse_q_polynomial("3/6")
        assert poly.terms == {(): Fraction(1, 2)}
        assert poly.weight() == 0

    def test_cancellation(self):
        poly = parse_q_polynomial("Q2 - Q2")
        assert poly.terms == {}
        assert poly.weight() == 0

    def test_grading_up_to_the_bound_parses(self):
        assert parse_q_polynomial("Q2^500").weight() == 1000
        assert parse_q_polynomial("Q1000 + Q2^499*Q1^2").weight() == 1000

    def test_index_zero_rejected(self):
        with pytest.raises(ExpressionError) as err:
            parse_q_polynomial("Q0")
        assert err.value.position == 1

    def test_syntax_errors_carry_positions(self):
        for text, position, message in SYNTAX_ERRORS:
            with pytest.raises(ExpressionError) as err:
                parse_q_polynomial(text)
            assert err.value.position == position, text
            assert str(err.value) == f"{message} (at position {position})"

    def test_bracket_agrees_with_normalized_series(self):
        # the weight-2 normalization constant is 1, weight-4 is 2^2 * 3!
        q2, q4 = (bracket_of_polynomial(parse_q_polynomial(e), 6) for e in ("Q2", "Q4"))
        assert q2 == list(normalized_qbracket(2, 6))
        assert q4 == list(scale(normalized_qbracket(4, 6), Fraction(1, 24)))


_SPACE = st.sampled_from(["", "", " ", "  ", "\t", "\xa0", "\u2003"])


@st.composite
def _expressions(draw):
    """Random terms rendered as expression text, with the terms they denote."""

    def space():
        return draw(_SPACE)

    def number(n):  # with leading zeros
        return draw(st.sampled_from(["", "0", "00"])) + str(n)

    text, expected = "", {}
    for first in [True] + [False] * draw(st.integers(0, 3)):
        sign = draw(st.sampled_from([1, -1]))
        factors = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 4)), max_size=3))
        if sign == 1 and first:
            text += space() + draw(st.sampled_from(["", "+"]))
        else:
            text += space() + ("+" if sign == 1 else "-")
        coeff, written = Fraction(1), not factors or draw(st.booleans())
        if written:
            numerator, denominator = draw(st.integers(0, 50)), draw(st.integers(1, 30))
            coeff = Fraction(numerator, denominator)
            text += space() + number(numerator)
            if denominator != 1 or draw(st.booleans()):
                text += space() + "/" + space() + number(denominator)
        powers = {}
        for j, (index, exponent) in enumerate(factors):
            if (written or j) and draw(st.booleans()):
                text += space() + "*"
            text += space() + draw(st.sampled_from("Qq")) + space() + number(index)
            if exponent != 1 or draw(st.booleans()):
                text += space() + "^" + space() + number(exponent)
            powers[index] = powers.get(index, 0) + exponent
        mono = tuple(sorted(powers.items()))
        expected[mono] = expected.get(mono, 0) + sign * coeff
    return text + space(), {mono: c for mono, c in expected.items() if c}


@given(_expressions())
def test_rendered_expressions_parse_to_their_terms(case):
    text, expected = case
    assert parse_q_polynomial(text).terms == expected


class TestDocumentType:
    def test_valid_document(self):
        doc = SeriesDocument("q-expansion", 2, 1, 3, (Fraction(-1, 24), 1, Fraction(3)), {"a": "b"})
        assert doc.truncation == 3

    def test_kind_checked(self):
        with pytest.raises(ValueError):
            SeriesDocument("table", None, 1, 1)

    def test_unit_checked(self):
        with pytest.raises(ValueError):
            SeriesDocument("report", None, 12, 1)

    def test_exponents_strictly_increasing(self):
        # the n-th row of a parsed table must have exponent n
        for rows in ([[0, "1"], [0, "2"]], [[1, "1"], [0, "2"]], [[1, "5"]]):
            with pytest.raises(ValueError, match="exponent n"):
                self._parse_with(coefficients=rows)

    def test_fraction_strings_canonical(self):
        for bad in ("2/4", "-0", "1/-2", "0.5", "1/1", "+3", "01", " 1", "1\n", "٣", 5):
            with pytest.raises(ValueError, match="not a canonical fraction"):
                self._parse_with(coefficients=[[0, bad]])

    def test_metadata_strings_only(self):
        with pytest.raises(ValueError):
            SeriesDocument("report", None, 1, 1, (), {"k": 2})

    def test_canonical_fraction(self):
        assert canonical_fraction(Fraction(-3, 6)) == "-1/2"
        assert canonical_fraction(4) == "4"
        assert canonical_fraction(Fraction(0)) == "0"

    def test_coefficient_must_be_an_int_or_a_fraction(self):
        for bad in ("1", "1/2", 0.5, 1.0, True, False, None):
            with pytest.raises(ValueError, match="is not an int or a Fraction"):
                SeriesDocument("q-expansion", None, 1, 2, (0, bad))
        for good in (0, -3, 2**70, Fraction(-7, 2), Fraction(4)):
            doc = SeriesDocument("q-expansion", None, 1, 2, (1, good))
            assert doc.coefficients[1] is good

    def test_exponent_must_be_an_int(self):
        for bad in ("0", 0.0, True):
            with pytest.raises(ValueError, match="exponent n"):
                self._parse_with(coefficients=[[bad, "5"]])

    def test_exponent_must_lie_below_truncation(self):
        # a table holds at most one value per power below the truncation
        for truncation, values in ((0, (5,)), (1, (5, 6)), (3, (0, 0, 0, 1))):
            with pytest.raises(ValueError, match="more coefficients than the truncation"):
                SeriesDocument("q-expansion", None, 1, truncation, values)
        with pytest.raises(ValueError, match="more coefficients than the truncation"):
            self._parse_with(coefficients=[[0, "5"], [1, "6"], [2, "7"]])
        assert SeriesDocument("q-expansion", None, 1, 2, (5,)).coefficients == (5,)
        assert SeriesDocument("q-expansion", None, 1, 2, (5, 6)).coefficients == (5, 6)

    # parse_document input: a valid document with one field replaced
    _VALID = {
        "coefficients": [[0, "5"]],
        "exponent_unit": 1,
        "kind": "q-expansion",
        "metadata": {},
        "truncation": 2,
        "weight": None,
    }

    def _parse_with(self, **fields):
        return parse_document(json.dumps(dict(self._VALID, **fields)))

    def test_valid_parse_input(self):
        assert self._parse_with().coefficients == (5,)
        values = self._parse_with(coefficients=[[0, "-7/2"], [1, "0"]]).coefficients
        assert values == (Fraction(-7, 2), 0)
        assert [type(c) for c in values] == [Fraction, int]

    def test_exponent_unit_true_rejected(self):
        with pytest.raises(ValueError):
            self._parse_with(exponent_unit=True)

    def test_truncation_true_rejected(self):
        with pytest.raises(ValueError):
            self._parse_with(truncation=True, coefficients=[])

    def test_truncation_string_rejected(self):
        with pytest.raises(ValueError):
            self._parse_with(truncation="5")

    def test_weight_string_rejected(self):
        with pytest.raises(ValueError):
            self._parse_with(weight="x")

    def test_missing_field_rejected(self):
        for name in self._VALID:
            partial = {k: v for k, v in self._VALID.items() if k != name}
            with pytest.raises(ValueError):
                parse_document(json.dumps(partial))

    def test_top_level_list_rejected(self):
        with pytest.raises(ValueError):
            parse_document(json.dumps([self._VALID]))

    def test_metadata_must_be_an_object(self):
        with pytest.raises(ValueError):
            self._parse_with(metadata=[["a", "b"]])

    def test_coefficient_rows_must_be_pairs(self):
        for rows in ([5], [[0, "5", "6"]], {"0": "5"}):
            with pytest.raises(ValueError):
                self._parse_with(coefficients=rows)

    _FIELDS = ("q-expansion", 2, 1, 3, (Fraction(1, 6), 0, 3), {"p": "5"})

    def test_fields_cannot_be_assigned_or_deleted(self):
        doc = SeriesDocument(*self._FIELDS)
        for name in ("kind", "weight", "exponent_unit", "truncation", "coefficients", "metadata"):
            with pytest.raises(AttributeError):
                setattr(doc, name, getattr(doc, name))
            with pytest.raises(AttributeError):
                delattr(doc, name)
        with pytest.raises(AttributeError):
            doc.extra = 1
        assert SeriesDocument(*self._FIELDS) == doc

    def test_equal_exactly_when_all_six_fields_are_equal(self):
        doc = SeriesDocument(*self._FIELDS)
        assert doc == SeriesDocument(*self._FIELDS)
        # each differs from _FIELDS in its own position only
        changed = ("report", None, 24, 4, (Fraction(1, 6), 0, -3), {"p": "7"})
        for i, value in enumerate(changed):
            fields = list(self._FIELDS)
            fields[i] = value
            assert SeriesDocument(*fields) != doc
        assert doc != self._FIELDS

    def test_defaults_are_no_rows_and_fresh_empty_metadata(self):
        a = SeriesDocument("report", None, 1, 0)
        b = SeriesDocument("report", None, 1, 0)
        assert a.coefficients == () and a.metadata == {} and a.metadata is not b.metadata


# strings over the alphabet of canonical fractions, plus near-canonical ones
_fraction_like = st.one_of(
    st.text(alphabet="-0123456789/", max_size=10),
    st.from_regex(r"-?(0|[1-9][0-9]{0,3})(/[0-9]{1,4})?", fullmatch=True),
    st.builds(
        lambda a, b: f"{a}/{b}", st.integers(-60, 60), st.integers(-3, 60)
    ),
)


@given(_fraction_like)
def test_coefficient_check_matches_fraction_round_trip(c):
    try:
        expected = str(Fraction(c)) == c
    except (ValueError, ZeroDivisionError):
        expected = False
    assert is_canonical_fraction(c) == expected
    text = (
        '{"coefficients":[[0,%s]],"exponent_unit":1,"kind":"q-expansion",'
        '"metadata":{},"truncation":1,"weight":null}\n' % json.dumps(c)
    )
    try:
        doc = parse_document(text)
    except ValueError:
        assert not expected
    else:
        assert expected
        assert serialize_document(doc) == text


@given(
    st.one_of(
        st.integers(),
        st.fractions(),
        st.booleans(),
        st.fractions().map(str),
    )
)
def test_canonical_fraction_matches_fraction_str(value):
    assert canonical_fraction(value) == str(Fraction(value))


@settings(max_examples=300)
@given(
    st.dictionaries(st.text(), st.text(), max_size=6),
    st.none() | st.integers(),
    st.sampled_from(cli.EXPONENT_UNITS),
    st.sampled_from(cli.KINDS),
    st.integers(0, 10**9),
)
@example({'"q"': "a\\b", "\t\n": "\x00\x1f\x7f", " ": "\U0001d11e", "": ""}, None, 24,
         "report", 0)
@example({"claim": "eq65", "verdict": "pass"}, -3, 1, "q-expansion", 0)
def test_the_tail_is_what_json_dumps_writes(metadata, weight, unit, kind, truncation):
    doc = SeriesDocument(kind, weight, unit, truncation, (), metadata)
    tail = {"exponent_unit": unit, "kind": kind, "metadata": metadata,
            "truncation": truncation, "weight": weight}
    expected = "]," + json.dumps(tail, sort_keys=True, separators=(",", ":"))[1:] + "\n"
    assert list(cli._pieces(doc, False))[-1] == expected


class TestSerialization:
    def _sample_documents(self):
        return [
            SeriesDocument("q-expansion", 2, 1, 3, (Fraction(1, 6), 1, 3), {"p": "5"}),
            SeriesDocument(
                "report",
                None,
                24,
                263,
                (),
                {"claim": "prop21", "verdict": "pass", "p": "3"},
            ),
            SeriesDocument("report", 4, 1, 0, (), {"verdict": "not-applicable"}),
        ]

    def test_round_trip_byte_identical(self):
        for doc in self._sample_documents():
            text = serialize_document(doc)
            assert serialize_document(parse_document(text)) == text
            assert parse_document(text) == doc

    def test_single_line_sorted_keys(self):
        text = serialize_document(self._sample_documents()[0])
        assert text.endswith("\n") and text.count("\n") == 1
        keys = list(json.loads(text))
        assert keys == sorted(keys)

    def test_csv_rows(self):
        doc = SeriesDocument("q-expansion", 2, 1, 2, (Fraction(-1, 24), 13), {})
        assert document_to_csv(doc) == (
            "exponent,numerator,denominator\n0,-1,24\n1,13,1\n"
        )

    def test_csv_rows_signs_zero_and_integers(self):
        values = (Fraction(-7, 3), 0, Fraction(-5), 12, Fraction(5, 2))
        doc = SeriesDocument("q-expansion", 4, 1, 5, values, {})
        assert document_to_csv(doc) == (
            "exponent,numerator,denominator\n"
            "0,-7,3\n1,0,1\n2,-5,1\n3,12,1\n4,5,2\n"
        )

    def test_csv_rejects_reports(self):
        with pytest.raises(ValueError):
            document_to_csv(self._sample_documents()[1])


def _canonical_rows(doc: SeriesDocument) -> list[tuple[int, str]]:
    """The rows: each exponent with the canonical text of its value."""
    return [(e, canonical_fraction(c)) for e, c in enumerate(doc.coefficients)]


def _one_string_json(doc: SeriesDocument) -> str:
    """The JSON serializer before documents were streamed, as the reference."""
    payload = {
        "kind": doc.kind,
        "weight": doc.weight,
        "exponent_unit": doc.exponent_unit,
        "truncation": doc.truncation,
        "coefficients": _canonical_rows(doc),
        "metadata": dict(sorted(doc.metadata.items())),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _one_string_csv(doc: SeriesDocument) -> str:
    """The CSV serializer before documents were streamed, as the reference."""
    lines = ["exponent,numerator,denominator"]
    for e, c in _canonical_rows(doc):
        numerator, _, denominator = c.partition("/")
        lines.append(f"{e},{numerator},{denominator or 1}")
    return "\n".join(lines) + "\n"


_CHUNK = cli._CHUNK_ROWS
_awkward_text = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7fé€\u2028\U0001f600'), st.characters())
)


# ints and Fractions: zero, negative, large, and Fractions of denominator 1
_exact_values = st.one_of(
    st.sampled_from([0, Fraction(0), -1, Fraction(-5), 2**80, Fraction(-2**70, 3)]),
    st.integers(),
    st.fractions(),
    st.integers().map(Fraction),
)


@st.composite
def _documents(draw):
    """Documents with 0 rows or about one or two chunks of them, and awkward metadata."""
    count = draw(st.sampled_from([0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]))
    # a few exact values, repeated, so that large tables stay cheap to draw
    values = draw(st.lists(_exact_values, min_size=1, max_size=6))
    return SeriesDocument(
        draw(st.sampled_from(cli.KINDS)),
        draw(st.none() | st.integers()),
        draw(st.sampled_from(cli.EXPONENT_UNITS)),
        count + draw(st.integers(0, 2)),
        tuple(values[n % len(values)] for n in range(count)),
        draw(st.dictionaries(_awkward_text, _awkward_text, max_size=4)),
    )


@settings(max_examples=60, deadline=None)
@given(_documents())
@example(SeriesDocument("q-expansion", None, 1, 0))
@example(SeriesDocument("report", -3, 24, 2, (Fraction(-7, 2),), {'a"\\': "\x01é\U0001f600"}))
@example(SeriesDocument("q-expansion", 0, 1, 3, (Fraction(0), Fraction(-4), -9)))
def test_streamed_documents_equal_the_one_string_serializers(doc):
    text = serialize_document(doc)
    assert text == _one_string_json(doc)
    # the rows repeat a few values, so each distinct text is checked once
    for c in {c for _, c in json.loads(text)["coefficients"]}:
        assert is_canonical_fraction(c) and str(Fraction(c)) == c
    if doc.kind == "q-expansion":
        csv = document_to_csv(doc)
        assert csv == _one_string_csv(doc)
        for numerator, denominator in {tuple(line.split(",")[1:]) for line in csv.split()[1:]}:
            canonical = numerator if denominator == "1" else f"{numerator}/{denominator}"
            assert is_canonical_fraction(canonical)


class _CountingSink(io.StringIO):
    """Standard output that keeps, for each write, only how many rows it held."""

    def __init__(self):
        super().__init__()
        self.rows = []

    def write(self, text):
        self.rows.append(text.count("["))  # one per JSON row, one for the list's head
        return len(text)


def test_a_long_table_is_written_a_chunk_at_a_time_in_bounded_memory():
    argv = ["compute", "bracket", "--k", "14", "--terms", "15000", "--trust-fast"]
    with contextlib.redirect_stdout(_CountingSink()):
        assert run(argv) == 0  # imports the layers and fills their caches
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sum(sink.rows) == 15001 + 1
    assert max(sink.rows) <= _CHUNK
    # Computing the 15,001-row table as one column, which the document keeps,
    # peaks at 1.39 MiB traced (on CPython 3.11).  The bound leaves 0.26 MiB
    # for the interpreter's own variation: less than the 1.13 MiB that
    # turning the column into a series dict and back adds, and far less than
    # the table's 949,896 characters of text held at once.
    assert peak < 1.65 * 2**20


def _traced_peak(call):
    """Traced peak and result of call()."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_the_kernel_checks_read_the_double_sum_as_a_stream():
    # short runs first, so that neither imports nor caches count below
    assert doublesum.verify_taylor_chain(8, 10, 5).verdict == "pass"
    assert doublesum.verify_diffexp(5, 10).verdict == "pass"
    column, _ = _traced_peak(lambda: brackets.bracket_column(8, 20000, None))
    # taylor-chain holds the bracket column and the collapsed kernel, one
    # column of 20,001 entries each, and one window of the double-sum stream:
    # 2.81 MiB traced against the bracket column's own 1.55 (CPython 3.11).
    # Holding the whole kernel, a Laurent polynomial per q-power, peaked at 28.0.
    peak, report = _traced_peak(lambda: doublesum.verify_taylor_chain(8, 20000, 5))
    assert report.verdict == "pass"
    assert peak <= 2 * column
    # diffexp merges three streams by q-power and holds no column: 1.65 MiB,
    # against 28.0 when the kernels and the filtered, substituted and summed
    # series were each held whole.
    peak, report = _traced_peak(lambda: doublesum.verify_diffexp(5, 20000))
    assert report.verdict == "pass"
    assert peak <= 2 * column


def _run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


# the flags of each claim that takes --terms: hypotheses that hold, then
# hypotheses that fail where the claim has any
_TERMS_CLAIM_FLAGS = {
    "thm-a": ("--p 5 --r 1 --k1 2 --k2 6", "--p 5 --r 1 --k1 4 --k2 8"),
    "thm-b": ("--p 5 --k 2 --i-max 1", "--p 3 --k 4 --i-max 2", "--p 5 --k 2 --i-max 0"),
    "thm-e": ("--p 5 --k 4", "--p 3 --k 4"),
    "support-e": ("--p 5 --k 4", "--p 3 --k 4"),
    "eq-remark": ("--p 5 --k 4", "--p 3 --k 4"),
    "prop21": ("--p 5",),
    "diffexp": ("--p 5",),
    "oracle": ("",),
    "taylor-chain": ("--k 4", "--k 3"),
}


class TestRun:
    def test_bracket_table(self, capsys):
        code, doc = _run_json(
            capsys, ["compute", "bracket", "--k", "2", "--terms", "9", "--p", "5"]
        )
        assert code == 0
        assert [c for _, c in doc["coefficients"]] == [
            "1/6", "1", "3", "-1", "7", "6", "12", "13", "0", "13",
        ]
        assert doc["weight"] == 2 and doc["truncation"] == 10

    def test_enum_method_matches_fast(self, capsys):
        code, fast = _run_json(
            capsys, ["compute", "bracket", "--k", "4", "--terms", "6"]
        )
        code2, enum = _run_json(
            capsys,
            ["compute", "bracket", "--k", "4", "--terms", "6", "--method", "enum"],
        )
        assert code == code2 == 0
        assert fast["coefficients"] == enum["coefficients"]
        assert enum["metadata"]["method"] == "enumerate"

    def test_fast_gate(self, capsys):
        assert run(["compute", "bracket", "--k", "2", "--terms", "31"]) == 2
        assert "--trust-fast" in capsys.readouterr().err
        code, _ = _run_json(
            capsys,
            ["compute", "bracket", "--k", "2", "--terms", "31", "--trust-fast"],
        )
        assert code == 0
        code, _ = _run_json(
            capsys,
            ["compute", "bracket", "--k", "2", "--terms", "31", "--method", "enum"],
        )
        assert code == 0

    def test_eisenstein_variants(self, capsys):
        code, doc = _run_json(
            capsys, ["compute", "eisenstein", "--k", "4", "--terms", "2"]
        )
        assert code == 0
        assert doc["coefficients"] == [[0, "1/240"], [1, "1"], [2, "9"]]
        code, doc = _run_json(
            capsys,
            ["compute", "eisenstein", "--k", "4", "--terms", "2", "--variant", "E"],
        )
        assert code == 0
        assert doc["coefficients"] == [[0, "1"], [1, "240"], [2, "2160"]]
        assert run(["compute", "eisenstein", "--k", "4", "--terms", "2",
                    "--variant", "Greg"]) == 2

    def test_correction_table(self, capsys):
        code, doc = _run_json(
            capsys, ["compute", "correction", "--k", "2", "--p", "5", "--terms", "18"]
        )
        assert code == 0
        table = dict((e, c) for e, c in doc["coefficients"])
        assert table[3] == "1" and table[18] == "6"

    def test_bracket_poly(self, capsys):
        code, doc = _run_json(
            capsys,
            ["compute", "bracket-poly", "--expr", "Q2", "--terms", "4"],
        )
        assert code == 0
        assert doc["metadata"]["grading"] == "2"
        assert doc["coefficients"][0] == [0, "-1/24"]

    def test_leading_minus_needs_an_equals_sign(self, capsys):
        argv = ["compute", "bracket-poly", "--terms", "6"]
        _, plain = _run_json(capsys, argv + ["--expr", "Q2"])
        code, negated = _run_json(capsys, argv + ["--expr=-Q2"])
        assert code == 0
        assert negated["coefficients"] == [
            [e, canonical_fraction(-Fraction(c))] for e, c in plain["coefficients"]
        ]
        # argparse reads a separate "-Q2" as an option, not as the value
        assert run(argv + ["--expr", "-Q2"]) == 2

    def test_expression_error_exit(self, capsys):
        assert run(["compute", "bracket-poly", "--expr", "Q0", "--terms", "2"]) == 2
        assert "position" in capsys.readouterr().err
        assert run(["compute", "bracket-poly", "--expr", "Q" + "1" * 5000, "--terms", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: number longer than 4300 digits (at position 1)\n"
        )

    def test_expression_beyond_the_grading_bound_starts_no_work(self, capsys, monkeypatch):
        def refuse(poly, terms):
            raise AssertionError("the bracket was computed")

        monkeypatch.setattr(shifted, "bracket_of_polynomial", refuse)
        argv = ["compute", "bracket-poly", "--expr", "Q2^99999999999", "--terms", "0"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: monomial grading exceeds 1000 (at position 0)\n"

    def test_decompose(self, capsys):
        code, doc = _run_json(capsys, ["decompose", "--k", "2"])
        assert code == 0
        assert doc["metadata"]["E2^1*E4^0*E6^0"] == "-1/24"
        assert doc["metadata"]["verdict"] == "pass"

    def test_decompose_needs_depth(self, capsys):
        assert run(["decompose", "--k", "6", "--terms", "2"]) == 4

    @pytest.mark.parametrize("argv, code, message", [
        (["decompose", "--k", "3"], 2, "weight must be a non-negative even integer, got 3"),
        (["filtration", "--k", "3", "--p", "5"], 2,
         "weight must be a non-negative even integer, got 3"),
        (["decompose", "--k", "0"], 2, "weight must be >= 1 "),
        (["decompose", "--k", "-2"], 2, "weight must be >= 1 "),
        (["decompose", "--k", "34", "--terms", "30"], 4,
         "need 34 coefficients to decompose at weight 34, have 31"),
    ])
    def test_decompose_and_filtration_refusals(self, capsys, argv, code, message):
        assert run(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("p", [1, 3, 4, 9, 25])
    def test_filtration_refuses_a_non_prime_or_small_p_first(self, capsys, monkeypatch, p):
        def unreachable(series, k):
            raise AssertionError("bracket_decomposition ran")

        monkeypatch.setattr(modforms, "bracket_decomposition", unreachable)
        assert run(["filtration", "--k", "4", "--p", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: filtration needs a prime >= 5, got {p}\n"

    def test_filtration(self, capsys):
        code, doc = _run_json(capsys, ["filtration", "--k", "2", "--p", "5"])
        assert code == 0
        assert doc["metadata"]["filtration"] == "6"
        assert run(["filtration", "--k", "2", "--p", "3"]) == 2

    def test_verify_pass_fail_na_exit_codes(self, capsys, monkeypatch):
        code, doc = _run_json(capsys, ["verify", "thm-c", "--p", "5", "--k", "2"])
        assert code == 0 and doc["metadata"]["verdict"] == "pass"
        code, doc = _run_json(
            capsys, ["verify", "thm-a", "--p", "5", "--r", "1", "--k1", "4", "--k2", "8"]
        )
        assert code == 3 and doc["metadata"]["verdict"] == "not-applicable"
        real = correction._bracket_windows

        def skewed(k, terms, p, powers, width):
            windows = real(k, terms, p, powers, width)
            if p is not None:
                windows = list(windows)
                windows[0][1] += 1
            return windows

        monkeypatch.setattr(correction, "_bracket_windows", skewed)
        code, doc = _run_json(
            capsys, ["verify", "thm-e", "--p", "5", "--k", "2", "--terms", "8"]
        )
        assert code == 1
        assert doc["metadata"]["verdict"] == "fail"
        assert "witness_exponent" in doc["metadata"]

    def test_verify_unit_grid_claims(self, capsys):
        code, doc = _run_json(capsys, ["verify", "eq65", "--units", "48"])
        assert code == 0
        assert doc["exponent_unit"] == 24 and doc["truncation"] == 48
        code, doc = _run_json(capsys, ["verify", "prop21", "--p", "3", "--terms", "8"])
        assert code == 0 and doc["exponent_unit"] == 24

    def test_verify_taylor_chain_and_oracle(self, capsys):
        code, doc = _run_json(
            capsys, ["verify", "taylor-chain", "--k", "2", "--terms", "10"]
        )
        assert code == 0 and doc["metadata"]["p"] == "5"
        code, doc = _run_json(
            capsys, ["verify", "oracle", "--max-weight", "4", "--terms", "6"]
        )
        assert code == 0 and doc["metadata"]["claim"] == "oracle"

    def test_claim_checkers_name_functions_of_their_layer(self):
        layers = {"theorems": theorems, "correction": correction, "jacobi": jacobi,
                  "doublesum": doublesum, "modforms": modforms}
        for claim in cli.CLAIM_TABLE.values():
            layer, _, name = claim.checker.partition(".")
            assert callable(getattr(layers[layer], name))

    @pytest.mark.parametrize(
        "claim, flag",
        [(name, f) for name, c in cli.CLAIM_TABLE.items() for f in c.required],
    )
    def test_each_required_flag_is_enforced(self, capsys, claim, flag):
        argv = ["verify", claim]
        for other in cli.CLAIM_TABLE[claim].required:
            if other != flag:
                argv += ["--" + other.replace("_", "-"), "5"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: claim {claim} requires --{flag.replace('_', '-')}\n"

    @pytest.mark.parametrize(
        "claim, flags",
        [(claim, flags) for claim, cases in _TERMS_CLAIM_FLAGS.items() for flags in cases],
    )
    def test_a_negative_term_count_is_a_usage_error(self, capsys, tmp_path, claim, flags):
        target = tmp_path / "out.json"
        argv = ["verify", claim, *flags.split(), "--terms", "-1", "--out", str(target)]
        assert run(argv) == 2
        assert capsys.readouterr() == ("", "error: term count must be >= 0, got -1\n")
        assert list(tmp_path.iterdir()) == []

    def test_the_negative_term_cases_cover_every_claim_that_takes_terms(self):
        takes_terms = {name for name, claim in cli.CLAIM_TABLE.items()
                       if "terms" in claim.arguments}
        assert set(_TERMS_CLAIM_FLAGS) == takes_terms

    def test_verify_missing_flags(self, capsys):
        assert run(["verify", "thm-a", "--p", "5"]) == 2
        err = capsys.readouterr().err
        assert "--r" in err and "--k1" in err

    def test_usage_errors(self, capsys):
        assert run(["verify", "thm-z", "--p", "5"]) == 2
        assert run(["compute", "bracket", "--k", "2"]) == 2
        assert run(["compute", "bracket", "--k", "0", "--terms", "3"]) == 2
        capsys.readouterr()

    def test_insufficient_units_exit(self, capsys):
        assert run(["verify", "eq65", "--units", "20"]) == 4

    def test_threads_env(self, capsys, monkeypatch):
        for bad in ("zero", "0", "\u00b2", "\u0663", "0" * 5000):
            monkeypatch.setenv("QB_THREADS", bad)
            assert run(["decompose", "--k", "2"]) == 2
            assert "QB_THREADS must be a positive integer" in capsys.readouterr().err
        for good in ("2", "9" * 5000):
            monkeypatch.setenv("QB_THREADS", good)
            code, _ = _run_json(capsys, ["decompose", "--k", "2"])
            assert code == 0

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "doc.json"
        code = run(
            ["compute", "bracket", "--k", "2", "--terms", "3", "--out", str(target)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = parse_document(target.read_text())
        assert doc.weight == 2
        assert not list(tmp_path.glob(".qbrackets-*"))

    def test_out_file_gets_the_mode_of_a_new_file(self, tmp_path):
        target = tmp_path / "doc.json"
        previous = os.umask(0o022)
        try:
            code = run(
                ["compute", "bracket", "--k", "2", "--terms", "3", "--out", str(target)]
            )
        finally:
            os.umask(previous)
        assert code == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o644

    def test_out_into_missing_directory_exits_5(self, capsys, tmp_path):
        target = tmp_path / "missing" / "doc.json"
        code = run(
            ["compute", "bracket", "--k", "2", "--terms", "5", "--out", str(target)]
        )
        assert code == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not target.parent.exists()

    def test_taylor_chain_p_zero_is_a_usage_error(self, capsys):
        argv = ["verify", "taylor-chain", "--k", "2", "--terms", "4", "--p", "0"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not an odd prime" in captured.err

    def _internal_error(self, capsys, argv, name):
        assert run(argv) == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: internal error ({name}): ")
        assert captured.err.count("\n") == 1

    def test_not_antisymmetric_kernel_exits_6(self, capsys, monkeypatch):
        # the partition zeta sum at q^(n - 1/24), with zeta^1 alone at q^(1 - 1/24)
        lopsided = [ZetaLaurent(), ZetaLaurent({1: 1}), ZetaLaurent()]
        monkeypatch.setattr(jacobi, "partition_zeta_sum", lambda terms, p=None: lopsided)
        self._internal_error(
            capsys, ["verify", "eq65", "--units", "48"], "NotAntisymmetricError"
        )

    def test_uncertified_bracket_outside_decompose_exits_6(self, capsys, monkeypatch):
        real = brackets.bracket_column

        def skewed(k, terms, p):
            out = real(k, terms, p)
            out[3] += 1
            return out

        monkeypatch.setattr(brackets, "bracket_column", skewed)
        self._internal_error(
            capsys, ["filtration", "--k", "2", "--p", "5"], "NotQuasimodularError"
        )
        # decompose reports the same failure as a verdict, not as a crash
        code, doc = _run_json(capsys, ["decompose", "--k", "2"])
        assert code == 1 and doc["metadata"]["witness_exponent"] == "3"

    def test_bug_case_exits_6(self, capsys, monkeypatch):
        # with every weight space empty, no weight of the descent can match
        monkeypatch.setattr(modforms, "dim_modular", lambda weight: 0)
        self._internal_error(capsys, ["filtration", "--k", "2", "--p", "5"], "InternalError")

    def test_emitted_documents_round_trip(self, capsys):
        invocations = [
            ["compute", "bracket", "--k", "2", "--terms", "9", "--p", "5"],
            ["compute", "eisenstein", "--k", "6", "--terms", "4"],
            ["verify", "thm-c", "--p", "5", "--k", "2"],
            ["decompose", "--k", "4"],
        ]
        for argv in invocations:
            run(argv)
            text = capsys.readouterr().out
            assert serialize_document(parse_document(text)) == text

    def test_thm_c_refuses_a_prime_whose_products_overflow_a_slot(self, capsys, monkeypatch):
        real = brackets.normalized_qbracket

        def limited(k, terms, p=None, method="fast"):
            # fail at once rather than allocate about 1.8 * 10^8 terms
            if terms > 10**4:
                raise AssertionError(f"bracket of {terms} terms requested")
            return real(k, terms, p, method)

        monkeypatch.setattr(brackets, "normalized_qbracket", limited)
        assert run(["verify", "thm-c", "--p", "2147483647", "--k", "2"]) == 2
        assert "64-bit" in capsys.readouterr().err

    def test_layer_functions_are_looked_up_on_every_run(self, capsys, monkeypatch):
        # a tracer or test double installed after a first run must see the next
        filt = ["filtration", "--k", "2", "--p", "5"]
        thm_c = ["verify", "thm-c", "--p", "5", "--k", "2"]
        assert _run_json(capsys, filt)[1]["metadata"]["filtration"] == "6"
        assert _run_json(capsys, thm_c)[0] == 0
        monkeypatch.setattr(modforms, "filtration", lambda decomposition, p: 1234)
        assert _run_json(capsys, filt)[1]["metadata"]["filtration"] == "1234"
        code, doc = _run_json(capsys, thm_c)
        assert code == 1 and doc["metadata"]["witness_lhs"] == "1234"
        not_applicable = theorems.VerificationReport("thm-c", {"k": 2}, 0)
        monkeypatch.setattr(modforms, "check_thm_c", lambda p, k: not_applicable)
        assert _run_json(capsys, thm_c)[0] == 3

    def test_identical_invocations_identical_bytes(self, capsys):
        argv = ["verify", "thm-c", "--p", "7", "--k", "4"]
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        assert capsys.readouterr().out == first

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qbrackets.cli", "compute", "bracket",
             "--k", "2", "--terms", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["coefficients"] == [[0, "-1/24"], [1, "1"]]


# --- argv: the exact parse against argparse ---------------------------------


def _argparse_args(argv):
    """vars() of argparse's namespace for argv, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return usage.parse_args(argv)
        except SystemExit:
            return None


# int() reads each of these as the same value as argparse's type=int does
_INT_TEXT = st.one_of(
    st.integers(0, 10**30).map(str),
    st.sampled_from(["+5", " 12 ", "1_000", "007", "\u0661\u0662", "\uff13"]),
)
_STR_TEXT = st.one_of(
    st.sampled_from(["Q2", "Q3^2 - 1/24*Q2", "out.json", "", " -Q2", "a=b", "x--y"]),
    st.text(max_size=8).filter(lambda t: not t.startswith("-")),
)


@st.composite
def _plain_argv(draw):
    """A well-formed argv of the option table: flags in any order, some repeated,
    every required flag given."""
    path = draw(st.sampled_from(list(cli.OPTIONS)))
    flags = cli.OPTIONS[path]
    argv = list(path)
    if path == ("verify",):
        argv.append(draw(st.sampled_from(list(cli.CLAIM_TABLE))))
    required = [name for name, (_, default) in flags.items() if default is ...]
    repeated = draw(st.lists(st.sampled_from(list(flags)), max_size=8))
    names = draw(st.permutations(required + repeated))
    for name in names:
        kind = flags[name][0]
        argv.append("--" + name)
        if kind is int:
            argv.append(draw(_INT_TEXT))
        elif kind is str:
            argv.append(draw(_STR_TEXT))
        elif kind is not bool:
            argv.append(draw(st.sampled_from(kind)))
    return argv


# forms left to argparse: an abbreviation, "=", negative and non-ASCII-digit
# values, a value int() refuses for its length, a switch with a value, the
# end-of-options marker and help
_PERTURBATIONS = [
    ["--term", "5"], ["--k=4"], ["--k", "-2"], ["--k", "\u0661\u0662"], ["--k", "7" * 5000],
    ["--trust-fast", "yes"], ["--"], ["-h"], ["--help"], ["--p", "5", "thm-e"], ["extra"],
    ["--format", "xml"], ["--k"], ["--bogus", "1"],
]


@given(_plain_argv())
def test_plain_argv_parses_exactly_as_argparse_does(argv):
    exact = cli._plain_args(argv)
    assert exact is not None
    assert exact == _argparse_args(argv)


@given(_plain_argv(), st.one_of(st.just([]), st.sampled_from(_PERTURBATIONS)),
       st.integers(0, 12), st.integers(1, 12), st.integers(0, 2))
def test_other_argv_is_left_to_argparse_or_parsed_alike(argv, extra, at, cut, dropped):
    # insert a perturbation anywhere, or none, and drop up to two tokens after
    # the command: a required flag, a value, the target or the claim
    argv = argv[:at] + extra + argv[at:]
    del argv[cut:cut + dropped]
    exact = cli._plain_args(argv)
    assert exact is None or exact == _argparse_args(argv)


@pytest.mark.parametrize("path, missing", [
    (path, name) for path, flags in cli.OPTIONS.items()
    for name, (_, default) in flags.items() if default is ...
])
def test_a_missing_required_flag_is_left_to_argparse(path, missing):
    argv = list(path)
    for name, (kind, default) in cli.OPTIONS[path].items():
        if default is ... and name != missing:
            argv += ["--" + name, "Q2" if kind is str else "4"]
    assert cli._plain_args(argv) is None
    assert _argparse_args(argv) is None


def test_a_claim_after_its_flags_is_left_to_argparse():
    argv = ["verify", "--p", "5", "thm-e", "--k", "2"]
    assert cli._plain_args(argv) is None
    assert _argparse_args(argv)["claim"] == "thm-e"


def test_every_benchmark_invocation_takes_the_exact_path():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    if not path.exists():
        pytest.skip("the benchmark is not in this tree")
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for argv in workloads.every_argv():
        exact = cli._plain_args(list(argv))
        assert exact is not None, argv
        assert exact == _argparse_args(list(argv)), argv

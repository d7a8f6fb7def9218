"""Document functions that only the tests use: the package streams each
document to its output and never reads one back.

`serialize_document` and `document_to_csv` join the pieces the CLI writes
into one string.  `parse_document` reads canonical JSON into a
`SeriesDocument`, which checks every field, so serialize, parse, serialize
round-trips exactly.  The n-th row of a table must have exponent n, as the
document keeps only the column of values.  A coefficient is read only from its canonical text,
"a" or "a/b" in lowest terms with a positive denominator other than 1, and
becomes an int or a Fraction.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from qbrackets.cli import _CSV_TABLES_ONLY, SeriesDocument, _pieces

FRACTION_RE = re.compile(r"-?(?:0|[1-9][0-9]*)(?:/[1-9][0-9]*)?\Z")


def is_canonical_fraction(c) -> bool:
    """A string that prints back from its Fraction unchanged, in the grammar above."""
    return isinstance(c, str) and bool(FRACTION_RE.match(c)) and str(Fraction(c)) == c


def _value(c):
    if not is_canonical_fraction(c):
        raise ValueError(f"coefficient {c!r} is not a canonical fraction")
    return Fraction(c) if "/" in c else int(c)


def serialize_document(doc: SeriesDocument) -> str:
    """Canonical JSON: sorted keys, fixed separators, one trailing newline."""
    return "".join(_pieces(doc, False))


def document_to_csv(doc: SeriesDocument) -> str:
    if doc.kind != "q-expansion":
        raise ValueError(_CSV_TABLES_ONLY)
    return "".join(_pieces(doc, True))


def parse_document(text: str) -> SeriesDocument:
    raw = json.loads(text)
    fields = ("kind", "weight", "exponent_unit", "truncation", "coefficients", "metadata")
    if not isinstance(raw, dict) or any(name not in raw for name in fields):
        raise ValueError(f"a document is a JSON object with the fields {', '.join(fields)}")
    rows, metadata = raw["coefficients"], raw["metadata"]
    if not isinstance(rows, list) or any(not isinstance(r, list) or len(r) != 2 for r in rows):
        raise ValueError("coefficients must be a list of [exponent, coefficient] rows")
    if not isinstance(metadata, dict):
        raise ValueError("metadata must be a JSON object")
    # bool is an int subclass, so the test is on the exact type
    if any(type(e) is not int or e != n for n, (e, _) in enumerate(rows)):
        raise ValueError("the n-th coefficient row must have exponent n")
    return SeriesDocument(
        raw["kind"], raw["weight"], raw["exponent_unit"], raw["truncation"],
        tuple(_value(c) for _, c in rows), metadata,
    )

"""Command-line interface: compute series, verify claims, emit documents.

Every invocation produces one document, a `SeriesDocument`, serialized as
canonical JSON (or CSV for plain coefficient tables) and written atomically.
A document holds only what it writes: a table is one column of exact values,
the coefficient of q^e at position e, and a report has no rows.  Exit codes:
0 computed or verified, 1 verification failed, 2 usage or parameter error,
3 hypothesis not applicable, 4 insufficient truncation or integrality
failure, 5 the document could not be written or flushed, 6 internal error
(a consistency check inside the package failed: a kernel that must be
zeta-antisymmetric or pole-free was not, a bracket series failed its
quasimodular certificate outside `decompose`, or a "this is a bug" case; or
any other exception escaped `run`).
"""

from __future__ import annotations

import errno
import os
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Iterator, NamedTuple

from .errors import (
    ExpressionError,
    IntegralityError,
    InternalError,
    NotAntisymmetricError,
    NotQuasimodularError,
    PoleNotClearedError,
    TruncationError,
)

# Each subcommand imports the layers it calls when it runs and looks their
# functions up there on every call: an invocation loads only what it uses, and
# a function rebound in its layer (a test double, a tracer) is the one called.
# The builders of one command's documents live in the layer that command
# loads anyway: `verify`'s in `report`, `decompose`'s and `filtration`'s in
# `modforms`.
KINDS = ("q-expansion", "report")
# document exponents count q-powers, or q^(1/24) steps for the reports of the
# Jacobi claims that compare two-variable kernels
Q_POWER, JACOBI_UNIT = 1, 24
EXPONENT_UNITS = (Q_POWER, JACOBI_UNIT)

# failures of the package's own invariants: exit 6, never "verification failed"
INTERNAL_ERRORS = (
    NotAntisymmetricError,
    PoleNotClearedError,
    NotQuasimodularError,
    InternalError,
)


def canonical_fraction(value) -> str:
    """Exact fraction as "a" or "a/b", lowest terms, positive denominator."""
    return str(Fraction(value))


class _Record:
    """An immutable result: its fields are the subclass's __slots__, set once
    by `_fields`.  Assigning or deleting a field raises AttributeError, and
    two records are equal when their types are the same and every field is.
    """

    __slots__ = ()

    def _fields(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: results are immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class SeriesDocument(_Record):
    """One serializable artifact: a coefficient table or a claim report.

    coefficients[e] is the coefficient of the e-th power, an exact int or
    Fraction, for at most `truncation` powers; its canonical text "a" or "a/b"
    is made only as it is written.
    """

    __slots__ = ("kind", "weight", "exponent_unit", "truncation", "coefficients", "metadata")

    def __init__(self, kind: str, weight: int | None, exponent_unit: int, truncation: int,
                 coefficients: tuple[int | Fraction, ...] = (),
                 metadata: dict[str, str] | None = None):
        if metadata is None:
            metadata = {}
        if kind not in KINDS:
            raise ValueError(f"unknown document kind {kind!r}")
        if weight is not None and type(weight) is not int:
            raise ValueError(f"weight must be an int or null, got {weight!r}")
        # bool is an int subclass, so the tests are on the exact type
        if type(exponent_unit) is not int or exponent_unit not in EXPONENT_UNITS:
            raise ValueError(f"exponent unit must be 1 or 24, got {exponent_unit!r}")
        if type(truncation) is not int or truncation < 0:
            raise ValueError(f"truncation must be an int >= 0, got {truncation!r}")
        if len(coefficients) > truncation:
            raise ValueError(f"more coefficients than the truncation {truncation}")
        for c in coefficients:
            # bool is an int subclass and prints "True": the test is on the exact type
            if type(c) not in (int, Fraction):
                raise ValueError(f"coefficient {c!r} is not an int or a Fraction")
        for key, value in metadata.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise ValueError("metadata must map strings to strings")
        self._fields(kind, weight, exponent_unit, truncation, coefficients, metadata)


# coefficient rows per piece of a document's text: a table is rendered and
# written a piece at a time, never held as one string
_CHUNK_ROWS = 1024


def _pieces(doc: SeriesDocument, csv: bool) -> Iterator[str]:
    """The document's text: its head, its rows _CHUNK_ROWS at a time, its tail.

    An int or a Fraction prints as a canonical fraction, so no JSON row needs
    an escape, and an int has a numerator and a denominator of 1 too.
    """
    values = doc.coefficients
    yield "exponent,numerator,denominator\n" if csv else '{"coefficients":['
    for start in range(0, len(values), _CHUNK_ROWS):
        chunk = enumerate(values[start:start + _CHUNK_ROWS], start)
        if csv:
            yield "".join(f"{e},{c.numerator},{c.denominator}\n" for e, c in chunk)
        else:
            yield ("," if start else "") + ",".join(f'[{e},"{c}"]' for e, c in chunk)
    if not csv:
        weight = "null" if doc.weight is None else doc.weight
        meta = ",".join(f"{_quoted(k)}:{_quoted(v)}" for k, v in sorted(doc.metadata.items()))
        yield (f'],"exponent_unit":{doc.exponent_unit},"kind":"{doc.kind}",'
               f'"metadata":{{{meta}}},"truncation":{doc.truncation},"weight":{weight}}}\n')


def _quoted(text: str) -> str:
    """`text` as `json.dumps` quotes it: as is when it is printable ASCII
    without a quote or a backslash, which needs no escape; only a string
    that needs one loads json."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import json

    return json.dumps(text)


_CSV_TABLES_ONLY = "CSV output is defined for coefficient tables only"


# --- argument handling ------------------------------------------------------


class _Claim(NamedTuple):
    checker: str  # "module.function", imported and looked up when the claim runs
    # the checker's positional arguments, by the destinations of their flags; a
    # flag that was not given and has no default (taylor-chain's --p) is left
    # out, so that the checker's own default applies
    arguments: tuple[str, ...]
    required: tuple[str, ...]  # destinations of the flags that must be given
    unit: int  # exponent unit of the report's witness


# claim -> checker, required flags and witness exponent unit; the one list of
# claim names, which `report` checks every VerificationReport against
CLAIM_TABLE: dict[str, _Claim] = {
    "thm-a": _Claim("theorems.check_thm_a", ("p", "r", "k1", "k2", "terms"),
                    ("p", "r", "k1", "k2"), Q_POWER),
    "thm-b": _Claim("theorems.check_thm_b", ("p", "k", "i_max", "terms"), ("p", "k", "i_max"),
                    Q_POWER),
    "thm-c": _Claim("modforms.check_thm_c", ("p", "k"), ("p", "k"), Q_POWER),
    "thm-e": _Claim("theorems.check_thm_e", ("p", "k", "terms"), ("p", "k"), Q_POWER),
    "support-e": _Claim("theorems.check_support_e", ("p", "k", "terms"), ("p", "k"), Q_POWER),
    "eq-remark": _Claim("theorems.check_eq_remark", ("p", "k", "terms"), ("p", "k"), Q_POWER),
    "eq65": _Claim("jacobi.verify_eq65", ("units",), (), JACOBI_UNIT),
    "prop21": _Claim("jacobi.verify_prop21", ("p", "terms"), ("p",), JACOBI_UNIT),
    "diffexp": _Claim("doublesum.verify_diffexp", ("p", "terms"), ("p",), JACOBI_UNIT),
    "oracle": _Claim("theorems.check_oracle", ("max_weight", "terms"), (), Q_POWER),
    "taylor-chain": _Claim("doublesum.verify_taylor_chain", ("k", "terms", "p"), ("k",), Q_POWER),
}


# The options of each subcommand and of each target of `compute`: flag name
# (its dest, with "_" for "-") -> (kind, default).  A kind is int, str, bool
# for a switch or a tuple of choices; a default of ... marks a required flag.
# `verify` takes a claim of CLAIM_TABLE before its flags.  `usage` builds the
# argparse parser for help and usage errors from the same table.
_OUTPUT = {"format": (("json", "csv"), "json"), "out": (str, None)}
_INT, _REQUIRED_INT = (int, None), (int, ...)
OPTIONS = {
    ("compute", "bracket"): {**_OUTPUT, "k": _REQUIRED_INT, "terms": _REQUIRED_INT, "p": _INT,
                             "method": (("fast", "enum"), "fast"), "trust-fast": (bool, False)},
    ("compute", "eisenstein"): {**_OUTPUT, "k": _REQUIRED_INT, "terms": _REQUIRED_INT,
                                "variant": (("G", "E", "Greg"), "G"), "p": _INT},
    ("compute", "correction"): {**_OUTPUT, "k": _REQUIRED_INT, "p": _REQUIRED_INT,
                                "terms": _REQUIRED_INT},
    ("compute", "bracket-poly"): {**_OUTPUT, "expr": (str, ...), "terms": _REQUIRED_INT},
    ("decompose",): {**_OUTPUT, "k": _REQUIRED_INT, "terms": _INT},
    ("filtration",): {**_OUTPUT, "k": _REQUIRED_INT, "p": _REQUIRED_INT},
    ("verify",): {**_OUTPUT, "p": _INT, "r": _INT, "k": _INT, "k1": _INT, "k2": _INT,
                  "i-max": _INT, "terms": (int, 30), "units": (int, 720),
                  "max-weight": (int, 12)},
}


def _plain_args(argv: list[str]) -> dict | None:
    """The attributes argparse parses from plain argv, or None for any other form.

    Plain is the command (and target or claim), then flags of its table
    spelled out in full, each but a switch with one value that does not start
    with "-", and every required flag given.  Help, "--k=4", abbreviations,
    negative values and misplaced or unknown tokens are left to argparse.
    """
    path = tuple(argv[:2] if argv[:1] == ["compute"] else argv[:1])
    flags = OPTIONS.get(path)
    if flags is None:
        return None
    args = dict(zip(("command", "target"), path))
    rest = iter(argv[len(path):])
    if path == ("verify",):
        args["claim"] = next(rest, None)
        if args["claim"] not in CLAIM_TABLE:
            return None
    for name, (kind, default) in flags.items():
        args[name.replace("-", "_")] = default
    for token in rest:
        name = token[2:]
        if not token.startswith("--") or name not in flags:
            return None
        kind = flags[name][0]
        value = True
        if kind is not bool:
            value = next(rest, "-")
            if value.startswith("-"):
                return None
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    return None
            elif kind is not str and value not in kind:
                return None
        args[name.replace("-", "_")] = value
    # a required flag that was not given still holds its default, ...
    return None if ... in args.values() else args


def _compute_document(args: SimpleNamespace) -> SeriesDocument:
    """The table of `compute`: the one column of values that its layer
    computes, with the coefficient of q^e at position e."""
    meta = {"series": args.target}
    if getattr(args, "p", None) is not None:
        meta["p"] = str(args.p)
    if args.target == "bracket":
        from .brackets import FAST_GATE_TERMS, bracket_column, normalized_qbracket

        method = meta["method"] = "enumerate" if args.method == "enum" else "fast"
        if method == "enumerate":
            column = normalized_qbracket(args.k, args.terms, args.p, method)
        elif args.terms > FAST_GATE_TERMS and not args.trust_fast:
            raise ValueError(
                f"the fast method is oracle-tested up to {FAST_GATE_TERMS} terms; "
                "pass --trust-fast to exceed that"
            )
        else:
            column = bracket_column(args.k, args.terms, args.p)
    elif args.target == "eisenstein":
        from .divisors import eisenstein_column

        meta["variant"] = args.variant
        variant = "G_reg" if args.variant == "Greg" else args.variant
        column = eisenstein_column(args.k, args.terms, variant, args.p)
    elif args.target == "correction":
        from .brackets import correction_column

        column = correction_column(args.k, args.p, args.terms)
    else:
        from .shifted import bracket_of_polynomial, parse_q_polynomial

        poly = parse_q_polynomial(args.expr)
        args.k = poly.weight()
        meta.update(expression=args.expr, grading=str(args.k))
        column = bracket_of_polynomial(poly, args.terms)
    values = tuple(column)
    return SeriesDocument("q-expansion", args.k, Q_POWER, len(values), values, meta)


def _write_output(pieces: Iterator[str], out: str | None) -> None:
    if out is None:
        # Python sets stdout to None in a process started with fd 1 closed
        if sys.stdout is None:
            raise OSError(errno.EBADF, "standard output is closed")
        sys.stdout.writelines(pieces)
        return
    import tempfile

    directory = os.path.dirname(os.path.abspath(out))
    umask = os.umask(0)
    os.umask(umask)
    fd, staging = tempfile.mkstemp(dir=directory, prefix=".qbrackets-")
    try:
        with os.fdopen(fd, "w") as handle:
            # mkstemp makes the file 0600; give it a new file's mode
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.writelines(pieces)
        os.replace(staging, out)
    except BaseException:
        os.unlink(staging)
        raise


def run(argv=None) -> int:
    """Dispatch one invocation and write one document; returns the exit code."""
    threads = os.environ.get("QB_THREADS")
    # read without int(), which refuses strings of more than 4,300 digits
    if threads is not None and not (threads.isascii() and threads.isdigit()
                                    and threads.strip("0")):
        print(f"error: QB_THREADS must be a positive integer, got {threads!r}",
              file=sys.stderr)
        return 2
    argv = sys.argv[1:] if argv is None else list(argv)
    parsed = _plain_args(argv)
    if parsed is None:
        # help, usage errors and every other form: argparse, loaded only here
        from .usage import parse_args

        try:
            parsed = parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    args = SimpleNamespace(**parsed)
    # only compute emits coefficient tables; refuse the rest before any work
    if args.format == "csv" and args.command != "compute":
        print(f"error: {_CSV_TABLES_ONLY}", file=sys.stderr)
        return 2
    code = 0
    try:
        if args.command == "compute":
            doc = _compute_document(args)
        elif args.command == "verify":
            from .report import _report_document, _run_claim

            report = _run_claim(args)
            doc = _report_document(report)
            code = {"pass": 0, "fail": 1, "not-applicable": 3}[report.verdict]
        else:
            from .modforms import _decomposition_document

            doc, code = _decomposition_document(args)
    except (TruncationError, IntegralityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, ExpressionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except INTERNAL_ERRORS as exc:
        print(f"error: internal error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 6
    try:
        _write_output(_pieces(doc, args.format == "csv"), args.out)
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write the document: {exc}", file=sys.stderr)
        return 5
    return code


def main() -> None:
    """Run one invocation and end the process with its exit code.

    An exception that escapes `run` is a bug: its traceback, then exit 6.
    Once the output is flushed the process ends at once, without the
    interpreter's teardown, unless a trace or profile function or a
    `sys.monitoring` tool (coverage, a debugger, cProfile) still has results
    to write.
    """
    try:
        code = run()
    except Exception as exc:
        import traceback

        traceback.print_exc()
        print(f"error: internal error ({type(exc).__name__}): {exc}", file=sys.stderr)
        code = 6
    # what run() leaves in stdout is help text, which argparse writes without
    # checking either, or a document whose failed write run() has reported;
    # a stream is None in a process started without its file descriptor
    for stream in sys.stdout, sys.stderr:
        try:
            stream.flush()
        except AttributeError:
            pass
        except OSError:
            # the failure is reported; the unwritable rest goes to the null
            # device, so that the flush at interpreter exit cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    # from Python 3.12 cProfile and coverage's sysmon core register a
    # sys.monitoring tool instead of a profile or trace function
    monitoring = getattr(sys, "monitoring", None)
    if (sys.gettrace() or sys.getprofile()
            or monitoring and any(map(monitoring.get_tool, range(6)))):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    main()

"""Start-up: an invocation imports only the layers it calls, and the package's
lazy exports resolve to the objects their home modules define.

Each test runs in a fresh interpreter, since this test session has long since
imported every layer.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qbrackets

SRC = Path(qbrackets.__file__).resolve().parents[1]


def _fresh(code: str):
    """Run `code` in a new interpreter that imports qbrackets from SRC; returns
    the JSON value on the last line it prints."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# json is imported only once the run's own imports are listed, so that a run
# that loads it shows
_IMPORTS_OF_ONE_RUN = """
import contextlib, io, sys
before = set(sys.modules)
from qbrackets import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run({argv!r})
imported = sorted(set(sys.modules) - before)
import json
print(json.dumps([code, imported]))
"""

@pytest.mark.parametrize(
    "argv, loaded, skipped",
    [
        (["compute", "bracket", "--k", "2", "--terms", "0"], ["brackets"],
         ["series", "jacobi", "doublesum", "zetaseries", "modforms", "theorems", "partitions",
          "shifted", "report", "correction"]),
        (["compute", "bracket", "--k", "4", "--terms", "40", "--p", "5", "--trust-fast"],
         ["brackets"],
         ["series", "modforms", "theorems", "partitions", "shifted", "report", "correction"]),
        (["compute", "correction", "--k", "2", "--p", "5", "--terms", "20"],
         ["brackets", "correction"],
         ["series", "modforms", "theorems", "partitions", "shifted", "report"]),
        (["compute", "eisenstein", "--k", "4", "--terms", "20", "--variant", "E"], ["divisors"],
         ["series", "modforms", "brackets", "jacobi", "theorems", "partitions", "report"]),
        (["verify", "taylor-chain", "--k", "8", "--terms", "20", "--p", "5"],
         ["doublesum", "brackets", "report"],
         ["jacobi", "zetaseries", "series", "partitions", "modforms", "theorems", "shifted"]),
        (["verify", "diffexp", "--p", "5", "--terms", "20"],
         ["doublesum", "brackets", "report"],
         ["jacobi", "zetaseries", "series", "partitions", "modforms", "theorems", "shifted"]),
        (["verify", "thm-e", "--p", "5", "--k", "2", "--terms", "20"],
         ["brackets", "correction", "report"],
         ["series", "modforms", "partitions", "jacobi", "theorems"]),
        (["verify", "support-e", "--p", "5", "--k", "2", "--terms", "20"],
         ["brackets", "correction", "report"],
         ["series", "modforms", "partitions", "jacobi", "theorems"]),
        (["verify", "eq-remark", "--p", "5", "--k", "4", "--terms", "20"],
         ["brackets", "correction", "report"],
         ["series", "modforms", "partitions", "jacobi", "theorems"]),
        (["decompose", "--k", "4"], ["brackets", "modforms"],
         ["series", "jacobi", "theorems", "partitions", "shifted", "report"]),
        (["filtration", "--k", "10", "--p", "37"], ["brackets", "modforms"],
         ["series", "jacobi", "theorems", "partitions", "shifted", "report"]),
        (["verify", "thm-c", "--p", "19", "--k", "16"], ["modforms", "report"],
         ["series", "theorems", "jacobi", "partitions", "shifted"]),
        (["verify", "thm-a", "--p", "5", "--r", "1", "--k1", "2", "--k2", "6"],
         ["brackets", "theorems"],
         ["series", "modforms", "jacobi", "zetaseries", "partitions", "correction"]),
        (["verify", "eq65", "--units", "240"], ["jacobi", "zetaseries", "report"],
         ["series", "theorems", "modforms", "shifted", "brackets", "doublesum"]),
        (["verify", "prop21", "--p", "5", "--terms", "12"], ["jacobi", "zetaseries", "report"],
         ["series", "theorems", "modforms", "shifted", "brackets", "doublesum"]),
        (["compute", "bracket-poly", "--expr", "Q2*Q3", "--terms", "4"],
         ["shifted", "partitions"], ["series", "brackets", "modforms", "jacobi", "zetaseries"]),
        (["verify", "oracle", "--terms", "4"], ["brackets", "partitions"],
         ["series", "modforms", "jacobi", "zetaseries", "shifted", "correction"]),
        (["compute", "bracket", "--k", "4", "--terms", "4", "--method", "enum"],
         ["brackets", "partitions"], ["series", "modforms", "jacobi", "zetaseries", "shifted"]),
    ],
    ids=["null", "fast-bracket", "correction", "eisenstein", "taylor-chain", "diffexp",
         "thm-e", "support-e", "eq-remark", "decompose", "filtration", "thm-c", "thm-a",
         "eq65", "prop21", "bracket-poly", "oracle", "enum"],
)
def test_an_invocation_imports_only_the_layers_it_calls(argv, loaded, skipped):
    code, imported = _fresh(_IMPORTS_OF_ONE_RUN.format(argv=argv))
    assert code == 0
    assert "dataclasses" not in imported
    # a well-formed argv is parsed without argparse and what it loads, and a
    # document whose metadata is printable ASCII is written without json
    assert not {"argparse", "gettext", "locale", "json"} & set(imported)
    layers = {name.split(".", 1)[1] for name in imported if name.startswith("qbrackets.")}
    assert set(loaded) <= layers
    assert not set(skipped) & layers


_USAGE_OF_ONE_RUN = """
import contextlib, io, json, sys
from qbrackets import cli, usage
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cli.run({argv!r})
loaded = "argparse" in sys.modules
expected_out, expected_err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(expected_out), contextlib.redirect_stderr(expected_err):
    try:
        usage.build_parser().parse_args({argv!r})
    except SystemExit as exc:
        expected = exc.code
print(json.dumps([code, out.getvalue(), err.getvalue(), loaded,
                  expected, expected_out.getvalue(), expected_err.getvalue()]))
"""


@pytest.mark.parametrize("argv, code, first_line", [
    (["--help"], 0, "usage: qbrackets [-h] {compute,decompose,filtration,verify} ...\n"),
    (["verify", "thm-z"], 2, "usage: qbrackets verify [-h] [--format {json,csv}] [--out FILE]"),
])
def test_help_and_usage_errors_are_argparse_s(monkeypatch, argv, code, first_line):
    monkeypatch.setenv("COLUMNS", "80")
    got, out, err, loaded, expected, expected_out, expected_err = _fresh(
        _USAGE_OF_ONE_RUN.format(argv=argv))
    assert loaded
    assert (got, out, err) == (code, expected_out, expected_err)
    assert expected == code
    assert (out or err).startswith(first_line)
    if code:
        last = err.splitlines()[-1]
        assert last.startswith("qbrackets verify: error: argument claim: invalid choice:")


# the AST nodes the null invocation compiles: the command line, `brackets`
# and the scalar layers beneath it, with no series layer, as every fast table
# runs and the Theorem E checks run beneath `correction`; what a change adds
# to them must fit in this
NULL_INVOCATION_NODES = 4156

# the AST nodes a `verify eq65` run compiles: the enumerated kernels, with
# neither `brackets`, the double-sum stream nor the series layer; `eq65`
# runs on the `modular` and `enumeration` workloads, and small invocations'
# peak RSS follows the size of what they compile
EQ65_INVOCATION_NODES = 7685

# the AST nodes a `verify prop21` run compiles: the same layers as `eq65`;
# it runs on the `enumeration` workload
PROP21_INVOCATION_NODES = 7685

# the AST nodes a `compute eisenstein` run compiles: the command line and the
# divisor sieve, with neither `modforms` nor the series layer
EISENSTEIN_INVOCATION_NODES = 4118

# the AST nodes a `verify taylor-chain` or `verify diffexp` run compiles: the
# kernel stream of `doublesum`, with neither `series`, `partitions`, `jacobi`
# nor `zetaseries`
KERNEL_STREAM_INVOCATION_NODES = 5992

# the AST nodes a `compute bracket-poly` run compiles, with no series
# layer; it runs on the `enumeration` workload, and a second walk over
# listed partitions would show here
BRACKET_POLY_INVOCATION_NODES = 6864

# the AST nodes a `decompose` run compiles: the fast bracket's column and
# `modforms`, with no series layer; `decompose` runs on the `modular` and
# `enumeration` workloads
DECOMPOSE_INVOCATION_NODES = 7828

# the AST nodes a `filtration` run compiles: the same layers as `decompose`;
# it runs on the `modular` workload
FILTRATION_INVOCATION_NODES = 7828

# the AST nodes a `verify thm-c` run compiles: the layers of `decompose` and
# `report`; it runs on the `modular` workload
THM_C_INVOCATION_NODES = 8562

# the AST nodes a `verify oracle` run compiles: the enumerated and fast
# bracket columns and `theorems`, with no series layer; it runs on the
# `enumeration` workload
ORACLE_INVOCATION_NODES = 7087

# the AST nodes a `compute bracket --method enum` run compiles: the
# enumerated bracket's column, with no series layer; it runs on the
# `enumeration` workload
ENUM_INVOCATION_NODES = 5775


def _compiled_nodes(argv):
    """AST nodes of every qbrackets module a fresh run of argv loads."""
    code, imported = _fresh(_IMPORTS_OF_ONE_RUN.format(argv=argv))
    assert code == 0
    files = [SRC / "qbrackets" / "__init__.py"] + [
        SRC.joinpath(*name.split(".")).with_suffix(".py")
        for name in imported if name.startswith("qbrackets.")
    ]
    return sum(len(list(ast.walk(ast.parse(f.read_text())))) for f in files)


def test_the_null_invocation_compiles_no_more_than_before():
    argv = ["compute", "bracket", "--k", "2", "--terms", "0"]
    assert _compiled_nodes(argv) <= NULL_INVOCATION_NODES


def test_eq65_compiles_no_more_than_the_integer_kernels_need():
    assert EQ65_INVOCATION_NODES <= 13900
    assert _compiled_nodes(["verify", "eq65", "--units", "240"]) <= EQ65_INVOCATION_NODES


def test_eisenstein_compiles_only_the_divisor_sieve():
    argv = ["compute", "eisenstein", "--k", "4", "--terms", "20", "--variant", "E"]
    assert _compiled_nodes(argv) <= EISENSTEIN_INVOCATION_NODES


@pytest.mark.parametrize("argv", [
    ["verify", "taylor-chain", "--k", "8", "--terms", "20", "--p", "5"],
    ["verify", "diffexp", "--p", "5", "--terms", "20"],
], ids=["taylor-chain", "diffexp"])
def test_the_kernel_stream_compiles_no_enumeration(argv):
    assert _compiled_nodes(argv) <= KERNEL_STREAM_INVOCATION_NODES


def test_bracket_poly_compiles_one_partition_walk():
    argv = ["compute", "bracket-poly", "--expr", "Q2*Q3", "--terms", "4"]
    assert _compiled_nodes(argv) <= BRACKET_POLY_INVOCATION_NODES


def test_decompose_compiles_no_more_than_before():
    assert _compiled_nodes(["decompose", "--k", "6"]) <= DECOMPOSE_INVOCATION_NODES


@pytest.mark.parametrize("argv, pin", [
    (["verify", "prop21", "--p", "5", "--terms", "12"], PROP21_INVOCATION_NODES),
    (["filtration", "--k", "10", "--p", "37"], FILTRATION_INVOCATION_NODES),
    (["verify", "thm-c", "--p", "19", "--k", "16"], THM_C_INVOCATION_NODES),
    (["verify", "oracle", "--terms", "4"], ORACLE_INVOCATION_NODES),
    (["compute", "bracket", "--k", "4", "--terms", "4", "--method", "enum"],
     ENUM_INVOCATION_NODES),
], ids=["prop21", "filtration", "thm-c", "oracle", "enum"])
def test_a_benchmarked_run_compiles_no_more_than_before(argv, pin):
    assert _compiled_nodes(argv) <= pin


def test_a_report_in_csv_is_refused_before_its_layers_load():
    # computing this report takes about 14 s; the refusal must come first
    code, imported = _fresh(_IMPORTS_OF_ONE_RUN.format(
        argv=["verify", "thm-c", "--p", "97", "--k", "94", "--format", "csv"]))
    assert code == 2
    layers = {name.split(".", 1)[1] for name in imported if name.startswith("qbrackets.")}
    assert not {"modforms", "theorems"} & layers


def test_lazy_exports_resolve_to_their_home_objects():
    on_import, mismatched = _fresh("""
import importlib, json, pkgutil, sys
import qbrackets
on_import = sorted(m for m in sys.modules if m.startswith("qbrackets."))
exported = {name: getattr(qbrackets, name) for name in qbrackets.__all__}
homes = [importlib.import_module("qbrackets." + m.name)
         for m in pkgutil.iter_modules(qbrackets.__path__)]
# an exported name must be bound in some module, and to the same object in all
mismatched = [
    name for name, obj in exported.items()
    if not any(name in vars(m) for m in homes)
    or any(vars(m).get(name, obj) is not obj for m in homes)
]
print(json.dumps([on_import, mismatched]))
""")
    assert on_import == []
    assert mismatched == []


def test_package_dir_lists_every_export_once():
    assert len(qbrackets.__all__) == len(set(qbrackets.__all__))
    assert set(qbrackets.__all__) <= set(dir(qbrackets))


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qbrackets.no_such_name
    assert not hasattr(qbrackets, "_no_such_private_name")


def test_submodules_are_package_attributes_before_any_import_of_them():
    names = _fresh("""
import json
import qbrackets
print(json.dumps([qbrackets.jacobi.__name__, qbrackets.modforms.filtration.__module__]))
""")
    assert names == ["qbrackets.jacobi", "qbrackets.modforms"]

"""The real process: `cli.main` ends it as soon as its output is flushed.

`main` skips the interpreter's teardown, so these tests run it in fresh
interpreters and check what only a whole process shows: every document
reaches its output complete, a failed write and a crash have their own exit
codes, and profilers and tracers still get to write their results.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qbrackets
from qbrackets.cli import run

SRC = Path(qbrackets.__file__).resolve().parents[1]
MAIN = "from qbrackets.cli import main; main()"
TABLE = ["compute", "bracket", "--k", "12", "--terms", "20000", "--trust-fast"]
REPORT = ["verify", "thm-c", "--p", "37", "--k", "12"]
SMALL = ["compute", "bracket", "--k", "2", "--terms", "3"]


def _process(argv, code=MAIN, prefix=(), **kwargs):
    """Exit code, stdout bytes and stderr text of a fresh `python -c code argv`."""
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    # stdout keeps its buffer, which the process must flush before it ends
    env.pop("PYTHONUNBUFFERED", None)
    kwargs.setdefault("stdout", subprocess.PIPE)
    proc = subprocess.run(
        [sys.executable, *prefix, "-c", code, *argv] if code else [sys.executable, *prefix, *argv],
        env=env, stderr=subprocess.PIPE, timeout=120, **kwargs,
    )
    return proc.returncode, proc.stdout, proc.stderr.decode()


def _in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return code, out.getvalue().encode()


@pytest.mark.parametrize("argv", [TABLE, TABLE + ["--format", "csv"], REPORT, ["--help"]],
                         ids=["table", "csv", "report", "help"])
def test_the_process_writes_the_whole_document(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps help text to
    code, expected = _in_process(argv)
    assert code == 0
    # the tables are many times the size of the stdout buffer
    assert len(expected) > (10**6 if argv[0] == "compute" else 100)
    assert _process(argv) == (0, expected, "")


def test_a_table_written_to_a_file_is_whole(tmp_path):
    out = tmp_path / "table.json"
    assert _process(TABLE + ["--out", str(out)]) == (0, b"", "")
    assert out.read_bytes() == _in_process(TABLE)[1]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [REPORT, TABLE], ids=["report", "table"])
def test_a_failed_write_exits_5(argv):
    # the report sits in the buffer until run() flushes it; the table fills
    # the buffer many times over
    with open("/dev/full", "wb") as full:
        code, _, err = _process(argv, stdout=full)
    assert code == 5
    assert err.splitlines()[-1] == (
        "error: cannot write the document: [Errno 28] No space left on device"
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_write_under_a_trace_function_exits_5():
    # the process then ends through sys.exit, and the interpreter's own flush
    # at exit must not find the unwritten document still in the buffer
    traced = "import sys; sys.settrace(lambda *args: None)\n" + MAIN
    with open("/dev/full", "wb") as full:
        code, _, err = _process(REPORT, traced, stdout=full)
    assert code == 5
    assert "Exception ignored" not in err
    assert err.splitlines() == [
        "error: cannot write the document: [Errno 28] No space left on device"
    ]


_CRASH = """
from qbrackets import brackets
from qbrackets.cli import main

def broken(*args, **kwargs):
    raise KeyError("bug")

brackets.bracket_column = broken
main()
"""


def test_an_uncaught_exception_exits_6_never_1():
    code, out, err = _process(SMALL, _CRASH)
    assert code == 6
    assert out == b""
    assert "Traceback (most recent call last)" in err
    assert err.splitlines()[-1] == "error: internal error (KeyError): 'bug'"


def test_a_process_without_stdout_exits_5():
    code, _, err = _process(SMALL, stdout=None, preexec_fn=lambda: os.close(1))
    assert code == 5
    assert err.splitlines()[-1] == (
        "error: cannot write the document: [Errno 9] standard output is closed"
    )


@pytest.mark.parametrize("argv", [SMALL, REPORT], ids=["table", "report"])
def test_a_process_without_stderr_writes_its_document(argv):
    code, out, err = _process(argv, preexec_fn=lambda: os.close(2))
    assert (code, out, err) == (0, _in_process(argv)[1], "")


_ATEXIT = """
import atexit, sys
atexit.register(print, "atexit ran")
{trace}
from qbrackets.cli import main
main()
"""


def test_the_process_ends_without_running_atexit_handlers():
    assert _process(SMALL, _ATEXIT.format(trace="")) == (0, _in_process(SMALL)[1], "")


def test_a_traced_process_exits_normally():
    # a trace function (coverage, a debugger) writes its results at exit
    code = _ATEXIT.format(trace="sys.settrace(lambda *args: None)")
    assert _process(SMALL, code) == (0, _in_process(SMALL)[1] + b"atexit ran\n", "")


_MONITORING_TOOL = """
import types
if hasattr(sys, "monitoring"):
    sys.monitoring.use_tool_id(5, "a tool")
else:  # before Python 3.12: the part of the interface main() reads
    sys.monitoring = types.SimpleNamespace(get_tool=lambda i: "a tool" if i == 5 else None)
"""


def test_a_process_with_a_monitoring_tool_exits_normally():
    # from Python 3.12 cProfile and coverage register sys.monitoring tools
    code = _ATEXIT.format(trace=_MONITORING_TOOL)
    assert _process(SMALL, code) == (0, _in_process(SMALL)[1] + b"atexit ran\n", "")


def test_cprofile_prints_its_table_after_the_document():
    document = _in_process(SMALL)[1]
    code, out, err = _process(SMALL, None, ("-m", "cProfile", "-m", "qbrackets.cli"))
    assert (code, err) == (0, "")
    assert out.startswith(document)
    assert b"function calls" in out[len(document):]

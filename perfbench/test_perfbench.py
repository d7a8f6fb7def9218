"""Tests of the benchmark itself, including its mutation controls.

    PYTHONPATH=src python3 -m pytest -q perfbench

A corrupted document or a wrong exit code must count as a failed
invocation, so a broken program can never report failed_frac = 0.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import check
import run
import workloads
from inproc import InProcess
from spans import LAYERS, Tracer

EISENSTEIN = ("compute", "eisenstein", "--k", "4", "--terms", "10000", "--variant", "E")

# Stand-ins for the CLI: the real one, with its document or exit code damaged.
_REAL = "import io, sys, contextlib\nfrom qbrackets.cli import run\nbuf = io.StringIO()\n" \
        "with contextlib.redirect_stdout(buf):\n    code = run()\n"
CORRUPT_EARLY = (sys.executable, "-c", _REAL +
                 "sys.stdout.write(buf.getvalue().replace('\"240\"', '\"241\"', 1))\nsys.exit(code)")
CORRUPT_LATE = (sys.executable, "-c", _REAL +
                "sys.stdout.write(buf.getvalue().replace('[9999,\"', '[9999,\"1', 1))\nsys.exit(code)")
WRONG_EXIT = (sys.executable, "-c", _REAL + "sys.stdout.write(buf.getvalue())\nsys.exit(1)")


def _failed_fraction(cli, argv=EISENSTEIN) -> float:
    with run.Launcher(cli) as launcher:
        _, attempted, failed, _ = run.end_to_end(launcher, [argv], 1, check.Verifier.recorded())
    return failed / attempted


def test_real_cli_has_no_failures():
    assert _failed_fraction(run.CLI) == 0


def test_corrupted_coefficient_fails():
    assert _failed_fraction(CORRUPT_EARLY) == 1


def test_corruption_beyond_the_oracle_fails_on_the_digest():
    assert _failed_fraction(CORRUPT_LATE) == 1


def test_wrong_exit_code_fails():
    assert _failed_fraction(WRONG_EXIT) == 1


def test_independent_check_rejects_a_wrong_coefficient():
    with run.Launcher() as launcher:
        data = launcher.run(EISENSTEIN).stdout
    assert check.check_output(EISENSTEIN, 0, data) is None
    assert "coefficient 1" in check.check_output(EISENSTEIN, 0, data.replace(b'"240"', b'"241"', 1))
    assert check.check_output(EISENSTEIN, 1, data) == "exit code 1"
    reports = [
        (("verify", "oracle"), {"claim": "oracle", "verdict": "fail"}),
        (("decompose", "--k", "4"), {"verdict": "pass", "E2^2*E4^0*E6^0": "1"}),
        (("filtration", "--k", "16", "--p", "29"), {"filtration": "238"}),
    ]
    for argv, meta in reports:
        assert check._check_report(argv, meta) is not None


def test_oracle_matches_published_table():
    # weight 2 regularized at 5 (README and acceptance tables)
    assert [str(c) for c in check.bracket_oracle(2, 5, 5)] == ["1/6", "1", "3", "-1", "7"]


def test_every_possible_invocation_has_a_digest():
    golden = json.loads(check.GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(check.argv_key(a) for a in workloads.every_argv())


def test_seed_fixes_the_invocations():
    for name in workloads.WORKLOADS:
        assert workloads.invocations(name, 7) == workloads.invocations(name, 7)
        assert len(workloads.invocations(name, 7)) == len(workloads.invocations(name, 8))


def test_tracer_attributes_all_time_and_restores_bindings():
    runner = InProcess(str(run.SRC))
    before = runner.cli.run
    tracer = Tracer()
    assert tracer.install() > 0
    try:
        code, _, elapsed = runner.invoke(("compute", "bracket-poly", "--expr", "Q2*Q3", "--terms", "8"))
    finally:
        tracer.uninstall()
    assert code == 0 and runner.cli.run is before
    assert tracer.calls["cli.run"] == 1
    assert tracer.calls["partitions.enumerate_partitions"] == 9
    seconds = tracer.self_seconds()
    assert set(seconds) == set(LAYERS)
    assert seconds["partitions"] > 0
    assert 0 < sum(seconds.values()) <= elapsed


def test_refuses_to_run_without_the_program():
    alone = run.OUT / "benchmark-alone"
    shutil.rmtree(alone, ignore_errors=True)
    shutil.copytree(run.HERE, alone / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", alone)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=alone, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(alone)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

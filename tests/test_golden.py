"""Byte identity of benchmark documents against the recorded digests.

Runs every invocation of the benchmark's `modular`, `enumeration` and
`tables` workloads in process through `cli.run` and compares the sha256 of
each document (JSON and CSV) with `perfbench/golden.json`.  The digests are
read only; they are re-recorded by `perfbench/record_golden.py` when a
change alters document bytes on purpose.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from qbrackets.cli import run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workload_argvs(*names: str) -> list[tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    argvs = {
        argv
        for name in names
        for slot in workloads.WORKLOADS[name]
        for group in slot
        for argv in group
    }
    return sorted(argvs)


GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


@pytest.mark.parametrize(
    "argv", _workload_argvs("modular", "enumeration", "tables"), ids=" ".join
)
def test_document_matches_golden_digest(argv, capsys):
    assert run(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[" ".join(argv)]

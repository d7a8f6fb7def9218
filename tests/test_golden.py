"""Byte identity of benchmark documents against the recorded digests.

Runs every invocation of the benchmark's `modular`, `enumeration` and
`tables` workloads in process through `cli.run` and compares the sha256 of
each document (JSON and CSV) with `perfbench/golden.json`.  The digests are
read only; they are re-recorded by `perfbench/record_golden.py` when a
change alters document bytes on purpose.  A few documents at higher weights
are checked against digests recorded below.
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


# Decompositions at weights above the benchmark's, recorded from the Bareiss
# decomposition (commit c1b2115) that the closed form replaced on these paths.
HIGH_WEIGHT = {
    "decompose --k 46": "4a646f37db88b547316c0627281864ed15b7990164b0ca6663fc841892d92909",
    "decompose --k 54": "2081182d5772ed539487210d6bb82318da6fccee1276f63b8458800bcaaff8fe",
    "filtration --k 44 --p 47": "82eb17e31ad3932b5aa7501167fc6a332335d9596d0b1edfa63e637d29b5770f",
    "verify thm-c --p 47 --k 44":
        "a0ffd8ad46f025eea5814783ae813340a934084a1ca34f73fca15c39ef1c2f6a",
}


@pytest.mark.parametrize("command", sorted(HIGH_WEIGHT))
def test_high_weight_document_matches_recorded_digest(command, capsys):
    assert run(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HIGH_WEIGHT[command]

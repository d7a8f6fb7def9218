"""qbrackets benchmark: closed-loop runs of the real CLI, one invocation at a time.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Run from the repository root.  With --trace 0 every invocation of the
workload is a fresh interpreter, started after the previous one has exited,
repeated in passes until --seconds have gone by; it reports end-to-end
metrics (medians over the passes, times scaled by calibrate.py to cancel
the machine's own speed changes).  With --trace 1 the same invocations run
in-process under the outside-in tracer and it reports per-layer metrics.
--workload all runs every workload both ways.  Every output is checked (see
check.py) outside the timed region; the last line of standard output is one
JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from check import Verifier
from inproc import dominant_layer, per_layer
from workloads import NULL_ARGV, WORKLOADS, invocations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CLI = (sys.executable, "-c", "from qbrackets.cli import main; main()")

CALIBRATION = (sys.executable, str(HERE / "calibrate.py"))

MIN_PASSES = 5
SETUP_PER_PASS = 3
CALIBRATIONS_PER_PASS = 4
# Times are scaled to a machine on which calibrate.py takes this long, about
# its time on an unloaded 2-vCPU x86-64 VM under Python 3.11.7; the value
# only fixes the unit.
REFERENCE_CALIBRATION_S = 0.2


@dataclass(slots=True)
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: bytes | None


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("QB_THREADS", None)
    return env


class Launcher:
    """Runs CLI invocations one at a time through launcher.py."""

    def __init__(self, cli=CLI):
        self.cli = list(cli)
        OUT.mkdir(exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "launcher.py")],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, start_new_session=True,
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.proc.stdin.close()
            self.proc.wait()
        else:
            # the launcher leads its own process group, with any running child
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()

    def _ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher exited early")
        return json.loads(reply)

    def calibrate(self) -> float:
        sample = self.run((), CALIBRATION)
        if sample.code:
            raise RuntimeError(f"calibrate.py exited with {sample.code}")
        return sample.wall

    def run(self, argv: tuple[str, ...], command=None) -> Sample:
        """One invocation of the CLI (or of `command`, when given) with argv."""
        stdout_path, stderr_path = OUT / "stdout", OUT / "stderr"
        reply = self._ask({"argv": list(command or self.cli) + list(argv), "stdout": str(stdout_path),
                           "stderr": str(stderr_path)})
        if reply["code"]:
            sys.stderr.write(stderr_path.read_text(errors="replace")[-2000:])
        return Sample(reply["wall"], reply["cpu"], reply["maxrss_kb"] / 1024, reply["code"],
                      stdout_path.read_bytes())


def end_to_end(launcher: Launcher, argvs, seconds: int, verify: Verifier) -> tuple[dict, int, int, dict]:
    """Passes over the invocations until `seconds` have gone by (at least MIN_PASSES).

    Each invocation's time is the median over the passes, scaled by
    REFERENCE_CALIBRATION_S over the median time of the calibrate.py runs
    spread through every pass, so that the machine running slower or faster
    during one run does not move the result.
    """
    warm_up = launcher.run(NULL_ARGV)  # compiles the bytecode
    verify(NULL_ARGV, warm_up.code, warm_up.stdout)
    calibration: list[float] = []
    setup: list[float] = []
    samples: list[list[Sample]] = [[] for _ in argvs]
    attempted = failed = passes = 0
    started = time.perf_counter()
    calibrate_before = {len(argvs) * j // CALIBRATIONS_PER_PASS for j in range(1, CALIBRATIONS_PER_PASS)}
    while passes < MIN_PASSES or time.perf_counter() - started < seconds:
        calibration.append(launcher.calibrate())
        for _ in range(SETUP_PER_PASS):
            sample = launcher.run(NULL_ARGV)
            verify(NULL_ARGV, sample.code, sample.stdout)
            setup.append(sample.wall)
        for i, argv in enumerate(argvs):
            if i in calibrate_before:
                calibration.append(launcher.calibrate())
            sample = launcher.run(argv)
            attempted += 1
            failed += not verify(argv, sample.code, sample.stdout)
            sample.stdout = None
            samples[i].append(sample)
        passes += 1
    speed = REFERENCE_CALIBRATION_S / statistics.median(calibration)
    rows = []
    for argv, runs in zip(argvs, samples):
        rows.append({
            "argv": list(argv),
            "raw_wall_s": statistics.median(s.wall for s in runs),
            "raw_cpu_s": statistics.median(s.cpu for s in runs),
            "rss_mb": statistics.median(s.rss_mb for s in runs),
            "samples": len(runs),
        })
    values = {
        "wall_s": (speed * sum(r["raw_wall_s"] for r in rows), "s"),
        "cpu_s": (speed * sum(r["raw_cpu_s"] for r in rows), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in rows), "MiB"),
        "setup_s": (speed * statistics.median(setup), "s"),
    }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    return metrics, attempted, failed, {"invocations": rows, "speed_factor": speed, "calibration_s": calibration}


def environment(workload: str, seed: int, argvs) -> dict:
    """What a result depends on besides the benchmark code."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "invocations": [" ".join(argv) for argv in argvs],
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool, verify: Verifier) -> dict:
    argvs = invocations(workload, seed)
    env = environment(workload, seed, argvs)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        metrics, attempted, failed = per_layer(str(SRC), argvs, verify, OUT / f"spans-{stem}.json")
        detail = {"dominant_layer": dominant_layer(metrics)}
        print(f"dominant_layer {detail['dominant_layer']}")
    else:
        with Launcher() as launcher:
            metrics, attempted, failed, detail = end_to_end(launcher, argvs, seconds, verify)
        for row in detail["invocations"]:
            print(f"  {row['raw_wall_s']:8.4f} s {row['raw_cpu_s']:8.4f} s cpu {row['rss_mb']:7.1f} MiB "
                  f"x{row['samples']}  {' '.join(row['argv'])}")
        print(f"speed_factor {detail['speed_factor']:.4f} (unscaled times above)")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac {failed / attempted:.6g} ratio")
    for problem in verify.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not verify.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"environment": env, **detail, "problems": verify.problems, **result},
                   indent=1) + "\n"
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "qbrackets" / "cli.py").is_file():
        print(f"error: no qbrackets sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), Verifier.recorded())
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (False, True):
                part = run_workload(workload, args.seed, args.seconds, trace, Verifier.recorded())
                result["correct"] = result["correct"] and part["correct"]
                result["attempted"] += part["attempted"]
                result["failed"] += part["failed"]
                for name, metric in part["metrics"].items():
                    result["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

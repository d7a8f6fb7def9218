"""Record the sha256 of every document any seed can produce into golden.json.

    python3 perfbench/record_golden.py

Run from the repository root.  Each document must first pass the
independent check in check.py; nothing is written if one fails.  Re-record
only in a change that alters document bytes on purpose, and say why.
"""

from __future__ import annotations

import hashlib
import json
import sys

from check import GOLDEN_PATH, argv_key, check_output
from run import SRC, Launcher
from workloads import every_argv


def main() -> int:
    if not (SRC / "qbrackets" / "cli.py").is_file():
        print(f"error: no qbrackets sources under {SRC}", file=sys.stderr)
        return 2
    digests = {}
    with Launcher() as launcher:
        for argv in every_argv():
            sample = launcher.run(argv)
            problem = check_output(argv, sample.code, sample.stdout)
            if problem is not None:
                print(f"error: {argv_key(argv)}: {problem}", file=sys.stderr)
                return 1
            digests[argv_key(argv)] = hashlib.sha256(sample.stdout).hexdigest()
            print(f"{digests[argv_key(argv)][:16]}  {argv_key(argv)}", flush=True)
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

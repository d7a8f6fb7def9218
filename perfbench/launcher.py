"""Starts one command per request line and answers with its rusage.

    python3 -S perfbench/launcher.py

Reads JSON requests {"argv": [...], "stdout": path, "stderr": path} from
standard input, one per line; for each, runs the command to completion with
its output sent to the two files and writes one JSON line with the exit
status, wall seconds, user+system seconds and peak RSS (KiB) of that child.
Linux carries the peak RSS of the starting process into the started one, so
run.py starts commands from this small process rather than from itself.
"""

import json
import os
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        argv = request["argv"]
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, request["stdout"], flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, request["stderr"], flags, 0o644),
        ]
        started = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - started
        reply = {
            "code": os.waitstatus_to_exitcode(status),
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

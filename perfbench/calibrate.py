"""A fixed program that measures how fast this machine runs Python right now.

    python3 perfbench/calibrate.py

It shares no code with qbrackets but does the same kinds of work in a fresh
interpreter: Fraction and big-integer arithmetic, decimal conversion of big
integers, and a few megabytes of new dicts and lists.  run.py times it
alongside the CLI and scales its timings by the result, so that a machine
that is slower or faster during one run does not read as a slower or faster
program.
"""

from fractions import Fraction


def main() -> None:
    values = [Fraction(i % 997 + 1, i % 991 + 1) for i in range(60000)]
    total = Fraction(0)
    for i in range(0, 60000, 5):
        total += values[i] * values[-i]
    table = {i * 7919: i**7 for i in range(60000)}
    residue = sum(v % 1000 for v in table.values())
    powers = [3 ** (i % 500 + 300) for i in range(6000)]
    digits = sum(len(str(p)) for p in powers[::10])
    if total <= 0 or residue < 0 or digits <= 0:
        raise SystemExit(1)


if __name__ == "__main__":
    main()

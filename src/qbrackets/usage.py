"""The argparse parser of the command line, for help and usage errors.

`cli.run` parses plain argv itself against `cli.OPTIONS` and imports this
module only for any other form: `-h`, `--k=4`, abbreviated flags, negative
values, misplaced or unknown tokens, missing required flags.  The parser is
built from the same table, so both paths accept the same flags with the same
defaults, and argparse (with the gettext and locale modules it loads) stays
off the path of a well-formed invocation.
"""

from __future__ import annotations

from argparse import ArgumentParser

from .cli import CLAIM_TABLE, OPTIONS

_COMMAND_HELP = {
    "decompose": "decompose a bracket series",
    "filtration": "mod-p filtration of a bracket series",
    "verify": "run one verification claim",
}
_FLAG_HELP = {
    "trust-fast": "allow the fast method beyond the oracle-tested range",
    "units": "truncation in 1/24 units (eq65 only)",
    "max-weight": "largest weight the oracle claim checks",
}


def build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="qbrackets",
        description="Exact partition bracket series and their verification suite.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    compute = commands.add_parser("compute", help="compute a coefficient table")
    targets = compute.add_subparsers(dest="target", required=True)
    for path, flags in OPTIONS.items():
        if path[0] == "compute":
            sub = targets.add_parser(path[1])
        else:
            sub = commands.add_parser(path[0], help=_COMMAND_HELP[path[0]])
        if path == ("verify",):
            sub.add_argument("claim", choices=tuple(CLAIM_TABLE))
        for name, (kind, default) in flags.items():
            options = {"help": _FLAG_HELP.get(name)}
            if default is ...:
                options["required"] = True
            else:
                options["default"] = default
            if kind is bool:
                options["action"] = "store_true"
            elif kind is int:
                options["type"] = int
            elif kind is not str:
                options["choices"] = kind
            if name == "out":
                options["metavar"] = "FILE"
            sub.add_argument("--" + name, **options)
    return parser


def parse_args(argv: list[str]) -> dict:
    """The parsed attributes; exits (SystemExit) on help and on usage errors."""
    return vars(build_parser().parse_args(argv))

"""The project's own text: README's Python example runs as written, each
module's `__all__` names only what the module binds, each layer the benchmark
traces still defines public functions, and each module's source stays under
the token count where compiling it costs more."""

import ast
import importlib
import inspect
import tokenize
from pathlib import Path

import pytest

import qbrackets

README = Path(__file__).resolve().parents[1] / "README.md"
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = sorted(Path(qbrackets.__file__).parent.glob("*.py"))


def test_the_library_example_in_the_readme_runs():
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    example = library.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, f"{README}:Library", "exec"), {})


@pytest.mark.parametrize("path", MODULES, ids=[m.stem for m in MODULES])
def test_each_name_in_a_module_s_all_is_bound_there(path):
    # a name left in `__all__` after its definition is gone would still pass
    # every other test, since nothing else reads the module's own list; the
    # package binds its names lazily, on first access
    name = "qbrackets" if path.stem == "__init__" else f"qbrackets.{path.stem}"
    module = importlib.import_module(name)
    unbound = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert unbound == []


def _traced_layers() -> tuple[str, ...]:
    """The LAYERS tuple of perfbench/spans.py, read from its source."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py assigns no LAYERS")


# traced layers that define no module-level function: `series` holds only
# the QExpansion class that the library returns, so its per-layer numbers
# read 0
_CLASS_ONLY_LAYERS = {"series"}


@pytest.mark.parametrize("layer", _traced_layers())
def test_each_traced_layer_imports_and_defines_a_public_function(layer):
    # the benchmark's tracer imports every layer it lists and wraps the public
    # functions each defines: a layer module that is gone breaks every traced
    # run, and one without such functions drops out of the per-layer map
    module = importlib.import_module(f"qbrackets.{layer}")
    public = [
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(inspect.unwrap(obj))
        and obj.__module__ == module.__name__
    ]
    assert bool(public) != (layer in _CLASS_ONLY_LAYERS)


# CPython 3.11's parser keeps a module's tokens in one array that doubles
# whenever it fills, and allocates each new slot up front, so compiling a
# module that passes a power of two peaks about 120 KiB higher.  That is more
# than the benchmark's 0.1 MiB bound on peak RSS, and small invocations
# compile most of these modules.  Each ceiling is the power of two above the
# module's count when it was set; comments and blank lines are not tokens.
TOKEN_CEILINGS = {
    "__init__": 512,
    "arith": 1024,
    "brackets": 1024,
    "cli": 4096,
    "correction": 2048,
    "divisors": 1024,
    "doublesum": 2048,
    "errors": 256,
    "jacobi": 1024,
    "modforms": 4096,
    "partitions": 2048,
    "report": 1024,
    "series": 512,
    "shifted": 2048,
    "theorems": 1024,
    "usage": 512,
    "zetaseries": 2048,
}


def parser_tokens(path: Path) -> int:
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    with path.open("rb") as f:
        return sum(1 for t in tokenize.tokenize(f.readline) if t.type not in skipped)


@pytest.mark.parametrize("path", MODULES, ids=[m.stem for m in MODULES])
def test_each_module_stays_under_its_parser_token_step(path):
    assert path.stem in TOKEN_CEILINGS, f"module {path.stem!r} has no TOKEN_CEILINGS entry"
    assert parser_tokens(path) < TOKEN_CEILINGS[path.stem]


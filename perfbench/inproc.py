"""In-process runs of the CLI for the per-layer metrics.

Three passes over the same invocations: untraced (the base for the tracing
overhead), traced with spans.Tracer, and under tracemalloc for the Python
allocation peak.  The partition cache is cleared before every invocation so
per-layer numbers match a cold subprocess.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
import traceback
import tracemalloc
from time import perf_counter

from check import Verifier
from spans import LAYERS, Tracer

MIB = 1 << 20

# (metric name, counted function); counts come from the traced pass.
CALL_COUNTS = (
    ("cli.canonical_fraction.calls", "cli.canonical_fraction"),
    ("brackets.normalized_qbracket.calls", "brackets.normalized_qbracket"),
    ("partitions.visited", "partitions.c_multiset"),
    ("series.multiply.calls", "series.multiply"),
    ("series.scale.calls", "series.scale"),
    ("series.add.calls", "series.add"),
    ("modforms.miller_basis.calls", "modforms.miller_basis"),
    ("modforms.eisenstein.calls", "modforms.eisenstein"),
    ("zetaseries.zq_multiply.calls", "zetaseries.zq_multiply"),
    ("arith.bernoulli.calls", "arith.bernoulli"),
)


def coefficient_bits(data: bytes) -> int:
    """Largest numerator or denominator bit length among the numbers in a document."""
    best = 0
    for token in data.replace(b",", b" ").replace(b'"', b" ").replace(b"]", b" ").split():
        num, _, den = token.partition(b"/")
        if num.lstrip(b"-").isdigit() and (not den or den.isdigit()):
            best = max(best, int(num).bit_length(), int(den or b"1").bit_length())
    return best


class InProcess:
    """qbrackets imported from <root>/src, invoked through cli.run."""

    def __init__(self, src: str):
        if src not in sys.path:
            sys.path.insert(0, src)
        self.cli = importlib.import_module("qbrackets.cli")
        partitions = importlib.import_module("qbrackets.partitions")
        # the cache object itself, captured before any tracer wraps the name
        cache = getattr(partitions, "c_multisets_of_size", None)
        self.cache = cache if hasattr(cache, "cache_info") else None
        self.cache_hits = 0
        self.cache_calls = 0

    def invoke(self, argv: tuple[str, ...]) -> tuple[int, bytes, float]:
        """Exit code, stdout bytes and wall seconds of one invocation."""
        if self.cache is not None:
            self.cache.cache_clear()
        buffer = io.StringIO()
        started = perf_counter()
        try:
            with contextlib.redirect_stdout(buffer):
                code = self.cli.run(list(argv))
        except Exception:
            traceback.print_exc()
            code = -1
        elapsed = perf_counter() - started
        if self.cache is not None:
            info = self.cache.cache_info()
            self.cache_hits += info.hits
            self.cache_calls += info.hits + info.misses
        return code, buffer.getvalue().encode(), elapsed


def per_layer(src: str, argvs: list[tuple[str, ...]], verify: Verifier, spans_path) -> tuple[dict, int, int]:
    """Per-layer metrics, invocations attempted and invocations failed."""
    runner = InProcess(src)
    attempted = failed = 0

    def one(argv):
        nonlocal attempted, failed
        code, data, elapsed = runner.invoke(argv)
        attempted += 1
        failed += not verify(argv, code, data)
        return data, elapsed

    plain_s = sum(one(argv)[1] for argv in argvs)

    tracer = Tracer()
    tracer.install()
    runner.cache_hits = runner.cache_calls = 0
    outputs = []
    traced_s = 0.0
    try:
        for request, argv in enumerate(argvs):
            tracer.request = request
            data, elapsed = one(argv)
            outputs.append(data)
            traced_s += elapsed
    finally:
        tracer.uninstall()
    tracer.write(spans_path, argvs)

    tracemalloc.start()
    alloc_peak = 0
    try:
        for argv in argvs:
            tracemalloc.reset_peak()
            one(argv)
            alloc_peak = max(alloc_peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()

    values: dict[str, tuple[float, str]] = {}
    for layer, seconds in tracer.self_seconds().items():
        values[f"{layer}.self_s"] = (seconds, "s")
    for metric, function in CALL_COUNTS:
        values[metric] = (tracer.calls[function], "count")
    ratio = runner.cache_hits / runner.cache_calls if runner.cache_calls else 0.0
    values["partitions.cache_hit_ratio"] = (ratio, "ratio")
    values["cli.out_bytes"] = (sum(len(data) for data in outputs), "bytes")
    values["max_coeff_bits"] = (max(coefficient_bits(data) for data in outputs), "bits")
    values["py_alloc_peak_mb"] = (alloc_peak / MIB, "MiB")
    values["inproc_wall_s"] = (plain_s, "s")
    values["trace_overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    return metrics, attempted, failed


def dominant_layer(metrics: dict) -> str:
    return max(LAYERS, key=lambda layer: metrics[f"{layer}.self_s"]["value"])

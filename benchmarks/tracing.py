"""Per-layer metrics from an in-process, traced run of the CLI.

The tracer swaps each layer's public functions for timing wrappers in the
module namespace where the caller looks them up (for example
`cli.emit_records`, `audit.estimate_chsh`, `streams.window_uniforms`),
runs `blgisim.cli.main(argv)`, and restores the originals.  A span is
(name, start, end, depth); a layer's self time is its span minus the
streams spans nested in it.

Spans are recorded in the benchmark process only.  Work that a pool
worker does (workers > 1) shows inside its caller's span, but the streams
spans inside it are not seen.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import math
import os
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

# (module, attribute, span name): the attribute is patched in that module.
TARGETS = (
    ("cli", "simulate_trials", "trials.simulate_trials"),
    ("cli", "estimate_chsh", "trials.estimate_chsh"),
    ("audit", "estimate_chsh", "trials.estimate_chsh"),
    ("cli", "exact_chsh", "trials.exact_chsh"),
    ("cli", "decomposition_test", "audit.decomposition_test"),
    ("cli", "emit_records", "records.emit_records"),
    ("cli", "read_records", "records.read_records"),
    ("cli", "emit_predictions", "records.emit_predictions"),
    ("cli", "emit_sweep", "records.emit_sweep"),
    ("cli", "emit_manifest", "records.emit_manifest"),
    ("cli", "prediction_batch", "prediction.prediction_batch"),
    ("cli", "prediction_accuracy", "prediction.prediction_accuracy"),
    ("cli", "post_protocol_chsh", "prediction.post_protocol_chsh"),
    ("cli", "exact_post_protocol_chsh", "prediction.exact_post_protocol_chsh"),
    ("cli", "derived_seed", "streams.derived_seed"),
    ("streams", "derived_seed", "streams.derived_seed"),
    ("streams", "window_uniforms", "streams.window_uniforms"),
)

SAMPLERS = ("trials.simulate_trials", "prediction.prediction_batch")
WRITES = ("records.emit_records", "records.emit_predictions", "records.emit_sweep", "records.emit_manifest")


@dataclass
class Span:
    name: str
    start: float
    end: float
    depth: int
    rows: int = 0
    bytes: int = 0
    draws: int = 0
    chunks: int = 0
    call: tuple = ()  # (function, arguments) of a sampler call, to rerun at other worker counts

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _measure(span: Span, fn, bound: inspect.BoundArguments, result) -> None:
    args = bound.arguments
    if span.name in WRITES:
        span.bytes = os.path.getsize(args["path"])
        if span.name in ("records.emit_records", "records.emit_predictions"):
            span.rows = len(args["records"])
    elif span.name == "records.read_records":
        span.rows = len(result)
    elif span.name == "streams.window_uniforms":
        span.draws = result.size
    elif span.name in SAMPLERS:
        span.rows = args["n_trials"]
        span.chunks = math.ceil(args["n_trials"] / args["chunk"]) if "chunk" in args else 0
        span.call = (fn, {k: v for k, v in args.items() if k != "workers"})


@dataclass
class Tracer:
    """Context manager that patches TARGETS and collects spans."""

    spans: list = field(default_factory=list)
    _depth: int = 0
    _saved: list = field(default_factory=list)

    def _wrap(self, fn, name: str):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            depth = self._depth
            self._depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._depth = depth
            span = Span(name, start, end, depth)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            _measure(span, fn, bound, result)
            self.spans.append(span)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(f"blgisim.{module_name}")
            original = getattr(module, attr, None)
            if original is None:  # renamed or removed: its metrics read 0
                print(f"tracing: blgisim.{module_name}.{attr} not found; not traced", file=sys.stderr)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def call_cli(argv) -> tuple:
    """Run `blgisim.cli.main(argv)` in this process; returns (exit code, seconds,
    stdout, with stderr appended when the command failed)."""
    from blgisim import cli

    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception:  # a crash is a failed command, not a benchmark error
            traceback.print_exc()
            code = 1
    elapsed = perf_counter() - start
    return code, elapsed, out.getvalue() if code == 0 else out.getvalue() + err.getvalue()


def _total(spans, names, attr: str = "seconds") -> float:
    return sum(getattr(s, attr) for s in spans if s.name in names)


def _streams_inside(spans, parent_names, attr: str = "seconds") -> float:
    parents = [s for s in spans if s.name in parent_names]
    return sum(
        getattr(c, attr)
        for c in spans
        if c.name.startswith("streams.")
        for p in parents
        if c.depth > p.depth and p.start <= c.start and c.end <= p.end
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pool_speedup(spans, name: str) -> float:
    """Time of the recorded `name` calls rerun at workers=1, over the time at workers=2."""
    seconds = {1: 0.0, 2: 0.0}
    for span in spans:
        if span.name == name:
            fn, args = span.call
            for workers in seconds:
                start = perf_counter()
                fn(**args, workers=workers)
                seconds[workers] += perf_counter() - start
    return _ratio(seconds[1], seconds[2])


def layer_metrics(spans, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of one traced pass (see BENCHMARK.json for units).

    traced_s and untraced_s are the summed `main()` times of the same
    commands with and without the tracer.
    """
    emits = ("records.emit_records", "records.emit_predictions")
    read = ("records.read_records",)
    simulate = ("trials.simulate_trials",)
    predict = ("prediction.prediction_batch",)
    return {
        "records.emit_records_s": _total(spans, ("records.emit_records",)),
        "records.read_records_s": _total(spans, read),
        "records.emit_predictions_s": _total(spans, ("records.emit_predictions",)),
        "records.bytes_written": _total(spans, WRITES, "bytes"),
        "records.write_rows_per_s": _ratio(_total(spans, emits, "rows"), _total(spans, emits)),
        "records.read_rows_per_s": _ratio(_total(spans, read, "rows"), _total(spans, read)),
        "trials.simulate_trials_s": _total(spans, simulate),
        "trials.sampler_self_s": _total(spans, simulate) - _streams_inside(spans, simulate),
        "trials.estimate_chsh_s": _total(spans, ("trials.estimate_chsh",)),
        "trials.exact_chsh_s": _total(spans, ("trials.exact_chsh",)),
        "trials.trials": _total(spans, simulate, "rows"),
        "trials.chunks": _total(spans, simulate, "chunks"),
        "streams.window_uniforms_s": _total(spans, ("streams.window_uniforms",)),
        "streams.derived_seed_s": _total(spans, ("streams.derived_seed",)),
        "streams.draws": _total(spans, ("streams.window_uniforms",), "draws"),
        "prediction.prediction_batch_s": _total(spans, predict),
        "prediction.readout_self_s": _total(spans, predict) - _streams_inside(spans, predict),
        "prediction.post_protocol_chsh_s": _total(spans, ("prediction.post_protocol_chsh",)),
        "prediction.draws_per_trial": _ratio(_streams_inside(spans, predict, "draws"), _total(spans, predict, "rows")),
        "audit.decomposition_test_s": _total(spans, ("audit.decomposition_test",)),
        "cli.self_s": traced_s - sum(s.seconds for s in spans if s.depth == 0),
        "trace_overhead_s": traced_s - untraced_s,
    }

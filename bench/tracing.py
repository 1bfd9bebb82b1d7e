"""Spans recorded around calls into the program's layers, from outside it.

The traced pass replaces each name in `LAYER_TABLE` with a wrapper that
records a span (name, start, end, parent) and counts failures, then puts
the original back.  Each entry names the module whose namespace the caller
looks the function up in, so that only the calls of interest are seen: the
loop's `maximize` is the acquisition search and the GP module's `maximize`
is the hyperparameter search.  A name a later refactor removes is reported
as absent instead of failing the pass.  Spans stay in memory until the
benchmark writes them out.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from dataclasses import dataclass

# (span name, module path, attribute path in that module)
LAYER_TABLE = (
    ("loop.run", "active_emu.harness", "run"),
    ("loop.run", "active_emu.harness", "baseline_run"),
    ("multi_output.fit_all", "active_emu.loop", "fit_all"),
    ("multi_output.fit_all", "active_emu.loop", "fit_single_node"),
    ("multi_output.predict_mean_matrix", "active_emu.harness", "predict_mean_matrix"),
    ("multi_output.predict_mean_matrix", "active_emu.loop", "predict_mean_matrix"),
    ("optimize.maximize_acq", "active_emu.loop", "maximize"),
    ("optimize.maximize_hyper", "active_emu.gp", "maximize"),
    ("acquisition.value", "active_emu.loop", "acquisition_value"),
    ("acquisition.gradient", "active_emu.loop", "acquisition_gradient"),
    ("gp.select_hyperparameters", "active_emu.gp", "select_hyperparameters"),
    ("gp.fit", "active_emu.gp", "fit"),
    ("gp.cho_factor", "active_emu.gp", "cho_factor"),
    ("simulators.evaluate", "active_emu.simulators", "Simulator.evaluate"),
    ("samplers.next_point", "active_emu.samplers", "UniformSampler.next_point"),
    ("samplers.next_point", "active_emu.samplers", "SobolSampler.next_point"),
    ("samplers.next_point", "active_emu.samplers", "SequentialLhsSampler.next_point"),
    ("samplers.next_point", "active_emu.samplers", "PriorSampler.next_point"),
    ("samplers.design", "active_emu.loop", "lhs_design"),
    ("samplers.design", "active_emu.loop", "grid_design"),
    ("samplers.design", "active_emu.loop", "sobol_sequence"),
    ("samplers.design", "active_emu.loop", "make_sampler"),
    ("harness.rmse_hook", "active_emu.harness", "multi_output_rmse"),
    ("harness.test_set", "active_emu.harness", "build_test_set"),
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    failed: bool = False
    info: int | None = None  # for a run span: the iterations it completed


class Tracer:
    """Records spans while installed; `with tracer:` installs and removes."""

    def __init__(self, table=LAYER_TABLE, annotate=None):
        self.table = table
        self.annotate = annotate or {}  # span name -> fn(return value) -> info
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _OpenSpan(self, name)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, failed: bool = False) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.failed = failed
        self._stack.pop()

    def _wrap(self, name: str, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self._close(index, failed=True)
                raise
            self._close(index)
            if name in self.annotate:
                self.spans[index].info = self.annotate[name](result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for name, module_path, attribute in self.table:
            owner, leaf = _resolve_owner(module_path, attribute)
            if owner is None or leaf not in vars(owner):
                self.absent.append(f"{module_path}.{attribute}")
                continue
            original = vars(owner)[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    def write(self, path) -> None:
        """Spans as gzipped NDJSON, one [name, start, end, parent, failed,
        info] list per line, times in seconds from the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        with gzip.open(path, "wt") as handle:
            for s in self.spans:
                handle.write(json.dumps([s.name, s.start - origin, s.end - origin, s.parent, s.failed, s.info]))
                handle.write("\n")


class _OpenSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer._open(self.name)
        return self

    def __exit__(self, exc_type, *rest) -> None:
        self.tracer._close(self.index, failed=exc_type is not None)


def _resolve_owner(module_path: str, attribute: str):
    """The object holding the last component of `attribute`, and that name."""
    try:
        owner = importlib.import_module(module_path)
    except ImportError:
        return None, attribute
    *path, leaf = attribute.split(".")
    for part in path:
        owner = vars(owner).get(part)
        if owner is None:
            return None, leaf
    return owner, leaf


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_time(span: Span, children) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (span.end - span.start) - union_length((c.start, c.end) for c in children)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method), q in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)

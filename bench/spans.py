"""Spans recorded from outside the package, around its public functions.

The tracer replaces each traced function under the module attribute the
package's own callers look up at call time (`ubss.pipeline.separate`,
`ubss.csvio.write_signals`, `ubss.cli.load_config`, ...), so nothing under
`src/` changes.  A span holds its name, start, end and parent; counts are
measured after the span has ended, and the time spent counting is charged to
no layer.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import json
import os
import re
import statistics
import time
from contextlib import contextmanager

# (module, attribute, span name).  export_bar_graph lives in estimation but
# writes histogram.csv, so its time is CSV writing.
TRACED = [
    ("ubss.pipeline", "generate_sources", "signals.generate_sources"),
    ("ubss.pipeline", "mix", "signals.mix"),
    ("ubss.pipeline", "compute_ratios", "estimation.compute_ratios"),
    ("ubss.pipeline", "build_histogram", "estimation.build_histogram"),
    ("ubss.pipeline", "estimate_mixing", "estimation.estimate_mixing"),
    ("ubss.pipeline", "export_bar_graph", "csvio.write"),
    ("ubss.pipeline", "separate", "recovery.separate"),
    ("ubss.pipeline", "align_and_score", "evaluation.align_and_score"),
    ("ubss.pipeline", "count_uncovered", "evaluation.count_uncovered"),
    ("ubss.pipeline", "max_simultaneous_sources", "evaluation.max_simultaneous_sources"),
    ("ubss.pipeline", "run_experiment", "pipeline.run_experiment"),
    ("ubss.pipeline", "stage_generate", "pipeline.stage_generate"),
    ("ubss.pipeline", "stage_mix", "pipeline.stage_mix"),
    ("ubss.pipeline", "stage_estimate", "pipeline.stage_estimate"),
    ("ubss.pipeline", "stage_separate", "pipeline.stage_separate"),
    ("ubss.pipeline", "stage_score", "pipeline.stage_score"),
    ("ubss.csvio", "write_signals", "csvio.write"),
    ("ubss.csvio", "write_estimated_matrix", "csvio.write"),
    ("ubss.csvio", "write_report", "csvio.write"),
    ("ubss.csvio", "read_signals", "csvio.read"),
    ("ubss.csvio", "read_estimated_matrix", "csvio.read"),
    ("ubss.svgplot", "waveform_svg", "svgplot.render"),
    ("ubss.svgplot", "bar_graph_svg", "svgplot.render"),
    ("ubss.config", "load_config", "config.load_config"),
    ("ubss.cli", "load_config", "config.load_config"),
    ("ubss.cli", "main", "cli.main"),
]

# per-layer metric -> the span names whose self time it sums
TIMES = {
    "signals.generate_sources.s": ("signals.generate_sources",),
    "signals.mix.s": ("signals.mix",),
    "estimation.compute_ratios.s": ("estimation.compute_ratios",),
    "estimation.build_histogram.s": ("estimation.build_histogram",),
    "estimation.estimate_mixing.s": ("estimation.estimate_mixing",),
    "recovery.separate.s": ("recovery.separate",),
    "evaluation.align_and_score.s": ("evaluation.align_and_score",),
    "evaluation.count_uncovered.s": ("evaluation.count_uncovered",),
    "evaluation.max_simultaneous_sources.s": ("evaluation.max_simultaneous_sources",),
    "csvio.write.s": ("csvio.write",),
    "csvio.read.s": ("csvio.read",),
    "svgplot.render.s": ("svgplot.render",),
    "pipeline.self.s": (
        "pipeline.run_experiment",
        "pipeline.stage_generate",
        "pipeline.stage_mix",
        "pipeline.stage_estimate",
        "pipeline.stage_separate",
        "pipeline.stage_score",
    ),
    "config.load_config.s": ("config.load_config",),
    "cli.main.s": ("cli.main",),
}

COUNTS = {
    "estimation.active_samples": "count",
    "estimation.bins": "count",
    "recovery.active_samples": "count",
    "evaluation.pairs_scored": "count",
    "csvio.bytes_written": "B",
    "csvio.bytes_read": "B",
    "svgplot.points": "count",
    "svgplot.bytes": "B",
}


def unit(metric: str) -> str:
    return "s" if metric in TIMES else COUNTS[metric]


_POINTS = re.compile(r'points="([^"]*)"')


def _svg_counts(text: str) -> dict:
    points = sum(m.group(1).count(" ") + 1 for m in _POINTS.finditer(text))
    return {"svgplot.points": points + text.count("<rect "), "svgplot.bytes": len(text)}


def _path_arg(args, kwargs, position: int):
    return kwargs.get("path", args[position] if len(args) > position else None)


def _count(name: str, func: str, args, kwargs, result) -> dict:
    """Work done by one call, read from its arguments and its result."""
    if name == "estimation.build_histogram":
        return {"estimation.active_samples": result.active_samples,
                "estimation.bins": len(result.bins)}
    if name == "recovery.separate":
        if isinstance(result, tuple):
            return {"recovery.active_samples": int((result[1][:, 0] >= 0).sum())}
        return {"recovery.active_samples": int(result.any(axis=1).sum())}
    if name == "evaluation.align_and_score":
        return {"evaluation.pairs_scored": result.n_sources_estimated * result.n_sources_true}
    if name == "svgplot.render":
        return _svg_counts(result)
    if name in ("csvio.write", "csvio.read"):
        path = _path_arg(args, kwargs, 1 if func == "export_bar_graph" else 0)
        key = "csvio.bytes_written" if name == "csvio.write" else "csvio.bytes_read"
        return {key: os.path.getsize(path)}
    return {}


class Span:
    __slots__ = ("name", "start", "end", "parent", "children_s", "counts")

    def __init__(self, name: str, start: float, parent: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.children_s = 0.0  # children's durations plus their counting time
        self.counts: dict = {}

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.children_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, extra_s: float = 0.0) -> None:
        span = self.spans[idx]
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].children_s += span.end - span.start + extra_s

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self.spans[idx].end = time.perf_counter()
            self._close(idx)

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = self._open(name)
            span = self.spans[idx]
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.end = time.perf_counter()
                self._close(idx)
                raise
            span.end = time.perf_counter()
            try:
                span.counts = _count(name, fn.__name__, args, kwargs, result)
            finally:
                self._close(idx, time.perf_counter() - span.end)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced attribute of the package."""
        for mod_name, attr, span_name in TRACED:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _descendants(self, root: int) -> list[Span]:
        inside = {root}
        out = []
        for idx in range(root + 1, len(self.spans)):
            span = self.spans[idx]
            if span.start > self.spans[root].end:
                break
            if span.parent in inside:
                inside.add(idx)
                out.append(span)
        return out

    def per_layer(self, root_name: str) -> dict:
        """Median over the spans named root_name of each layer's total inside it.

        Counts take the lower median, so that they stay whole numbers.
        """
        rows = []
        for idx, span in enumerate(self.spans):
            if span.name != root_name:
                continue
            row = dict.fromkeys([*TIMES, *COUNTS], 0)
            for child in self._descendants(idx):
                for metric, names in TIMES.items():
                    if child.name in names:
                        row[metric] += child.self_s
                for key, value in child.counts.items():
                    row[key] += value
            rows.append(row)
        return {key: statistics.median([r[key] for r in rows]) if key in TIMES
                else statistics.median_low([r[key] for r in rows]) for key in rows[0]}

    def dump(self, path, extra: dict) -> None:
        spans = [[s.name, s.start, s.end, s.parent] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({**extra, "span_fields": ["name", "start", "end", "parent"],
                       "spans": spans}, fh)

"""Spans and counts around the toolkit's public functions, recorded from outside.

The tracer leaves the toolkit's sources alone.  While installed it replaces
every public function of the layer modules (``fields``, ``elements``,
``interferometer``, ``detection``, ``weak_values``, ``cli``) with a wrapper,
in every module of the package that binds the name: ``propagate`` is bound in
both ``fields`` and ``interferometer``, ``detector_field_numeric`` in
``interferometer``, ``detection`` and ``weak_values``.  It also wraps
``numpy.fft.fft`` and ``numpy.fft.ifft`` as the FFT kernel layer, counting
transformed rows so that a batched (T, n) call counts T.  The ``lru_cache``d
prefix and transfer functions are never wrapped; their hit ratios come from
``cache_info()``.  ``errors`` does no work and is not traced.

Each call records a span (name, start, end, parent span, op id) in memory;
``save`` writes the spans out when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("fields", "elements", "interferometer", "detection", "weak_values", "cli")
PACKAGE = "nested_mzi_lab"
FFT_FUNCTIONS = ("fft", "ifft")


def _rows(args, kwargs) -> int:
    """Number of 1-D transforms in one numpy.fft call (all axes but the transformed one)."""
    shape = np.shape(args[0])
    if not shape:
        return 1
    axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
    return int(np.prod(shape)) // shape[axis]


class Tracer:
    """Wraps the toolkit's public functions and records spans and counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_id = array("q")
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.cache_hits: Counter[str] = Counter()
        self.cache_misses: Counter[str] = Counter()
        self._stack: list[list] = []  # [span id, child time] of the open spans
        self._next_span = 0
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []
        self._caches: dict[str, list] = {}
        self._cache_start: dict[str, tuple[int, int]] = {}

    def begin_op(self) -> None:
        """Mark the start of the next op; later spans carry its id."""
        self._op += 1

    def wrap(self, name: str, fn, count=None):
        """Return fn wrapped in a span named name; count(args, kwargs) adds to counts[name]."""
        index = len(self.names)
        self.names.append(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._next_span
            self._next_span += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            begin = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                finish = clock()
                stack.pop()
                duration = finish - begin
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[1]
                if count is not None:
                    self.counts[name] += count(args, kwargs)
                self.span_id.append(span)
                self.name_id.append(index)
                self.start.append(begin)
                self.end.append(finish)
                self.parent.append(parent)
                self.op.append(self._op)

        return traced

    def install(self, caches: dict[str, list]) -> None:
        """Patch every binding of the layers' public functions and of numpy's FFT.

        caches maps a cache name to the lru_cache'd functions whose hits and
        misses it sums while the tracer is installed.
        """
        modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    wrappers[id(value)] = self.wrap(f"{layer}.{attr}", value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])
        for attr in FFT_FUNCTIONS:
            self._patch(np.fft, attr, self.wrap(f"fft.{attr}", getattr(np.fft, attr), _rows))
        self._caches = caches
        self._cache_start = {name: self._cache_totals(fns) for name, fns in caches.items()}

    def uninstall(self) -> None:
        """Restore every patched binding and fold the cache deltas into the tallies."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        for name, fns in self._caches.items():
            hits, misses = self._cache_totals(fns)
            start_hits, start_misses = self._cache_start[name]
            self.cache_hits[name] += hits - start_hits
            self.cache_misses[name] += misses - start_misses

    def _patch(self, module, attr: str, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    @staticmethod
    def _cache_totals(fns) -> tuple[int, int]:
        infos = [fn.cache_info() for fn in fns]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def hit_ratio(self, cache: str) -> float:
        """Hits over lookups of a cache while installed; 0 when it was never used."""
        lookups = self.cache_hits[cache] + self.cache_misses[cache]
        return self.cache_hits[cache] / lookups if lookups else 0.0

    def save(self, path: Path) -> None:
        """Write every span, the name table and the per-function tallies to an .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = sorted(self.calls)
        np.savez(
            path,
            names=np.array(self.names),
            span=np.frombuffer(self.span_id, dtype=np.int64),
            name=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            function=np.array(names),
            calls=np.array([self.calls[n] for n in names]),
            total_s=np.array([self.total[n] for n in names]),
            self_s=np.array([self.self_time[n] for n in names]),
        )

"""Spans and counts recorded around the library's layer entry points.

``LAYERS`` is the one table that maps a span name to the function it wraps.
A function is patched where its caller looks it up: a name bound with
``from .engine import x`` is patched in the importing module. When a
function is renamed, its row here is the line to change.

Spans (name, start, end, parent) are kept in memory and reduced to per-layer
self times at the end. Spans of the kernel layers, and their counts, are
counted only under an ``engine.classify`` span, so the harness's untimed
warm-up call of the distance kernel stays out of the totals.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from collections import defaultdict
from collections.abc import Callable
from typing import NamedTuple


def _count_classify(counts, args, kwargs, result) -> None:
    partition, queries = args[0], args[1]
    sizes = partition.sizes
    size_runs = 1 + int((sizes[1:] != sizes[:-1]).sum())
    counts["classifications"] += queries.shape[0]
    counts["size_run_classifications"] += size_runs * queries.shape[0]


def _count_distance(counts, args, kwargs, result) -> None:
    counts["distance.elements"] += result.size


def _count_select(counts, args, kwargs, result) -> None:
    dist, k = args[0], args[1]
    counts["select.elements"] += dist.size
    if k == 1:
        counts["select.depth1_rows"] += dist.shape[0]


def _count_gather(counts, args, kwargs, result) -> None:
    counts["gather.prefix_bytes"] = max(counts["gather.prefix_bytes"], result.nbytes)


def _count_scan(counts, args, kwargs, result) -> None:
    stop = result[0]
    counts["scan.steps"] += args[1].shape[0] * stop.size
    counts["scan.useful_steps"] += int(stop.sum()) + stop.size


def _count_batch(counts, args, kwargs, result) -> None:
    from distknn import engine

    call = inspect.signature(engine.evaluate_queries).bind(*args, **kwargs)
    call.apply_defaults()
    a = call.arguments
    chunks = -(-a["queries"].shape[0] // a["chunk_size"])
    if a["workers"] > 1 and chunks > 1:
        p = a["partition"]
        shared = p.features.nbytes + p.labels.nbytes + p.sizes.nbytes + p.offsets.nbytes
        counts["pool.bytes_sent"] += shared * chunks + a["queries"].nbytes


class Layer(NamedTuple):
    span: str
    module: str
    attribute: str
    under_classify: bool = False
    count: Callable | None = None  # (counts, args, kwargs, result) -> None


LAYERS = (
    Layer("simharness.run", "distknn.simharness", "_simulate_run"),
    Layer("simharness.sample", "distknn.simharness", "generate_sample"),
    Layer("simharness.partition", "distknn.simharness", "partition_uniform"),
    Layer("simharness.partition", "distknn.simharness", "partition_proportional"),
    Layer("simharness.partition", "distknn.realdata", "partition_uniform"),
    Layer("simharness.partition", "distknn.realdata", "partition_proportional"),
    Layer("engine.batch", "distknn.realdata", "evaluate_queries", count=_count_batch),
    Layer("engine.classify", "distknn.simharness", "evaluate_query"),
    Layer("engine.classify", "distknn.engine", "_classify_chunk", count=_count_classify),
    Layer("engine.gather", "distknn.engine", "build_prefix_tensor", True, _count_gather),
    Layer("engine.distance", "distknn.engine", "query_distance_matrix", True, _count_distance),
    Layer("neighbors.select", "distknn.engine", "k_smallest_rows", True, _count_select),
    Layer("adaptive.scan", "distknn.engine", "scan_first_crossing", True, _count_scan),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    counted: bool


class Tracer:
    """Collects the spans and counts of one round."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._classify_depth = 0

    def _wrap(self, layer: Layer, fn):
        is_classify = layer.span == "engine.classify"

        def wrapper(*args, **kwargs):
            counted = self._classify_depth > 0 or not layer.under_classify
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            self._classify_depth += is_classify
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._classify_depth -= is_classify
                self._stack.pop()
                self.spans[index] = Span(layer.span, start, end, parent, counted)
            if counted and layer.count is not None:
                layer.count(self.counts, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, spans=None):
        """Patch the table's functions (only the named spans, if given) for the block."""
        originals = []
        try:
            for layer in LAYERS:
                if spans is not None and layer.span not in spans:
                    continue
                module = importlib.import_module(layer.module)
                fn = getattr(module, layer.attribute)
                originals.append((module, layer.attribute, fn))
                setattr(module, layer.attribute, self._wrap(layer, fn))
            yield self
        finally:
            for module, attribute, fn in reversed(originals):
                setattr(module, attribute, fn)

    def _child_time(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return child

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time its child spans cover, summed per layer."""
        child = self._child_time()
        out: defaultdict[str, float] = defaultdict(float)
        for s, c in zip(self.spans, child):
            if s.counted:
                out[s.name] += s.end - s.start - c
        return dict(out)

    def total(self, name: str) -> float:
        """Summed duration of the named spans."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def child_total(self, name: str) -> float:
        """Summed duration of the direct children of the named spans."""
        child = self._child_time()
        return sum(c for s, c in zip(self.spans, child) if s.name == name)

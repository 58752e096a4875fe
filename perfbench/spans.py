"""Span recording for the traced benchmark run.

A :class:`Tracer` replaces the public functions of each convbeam layer, at
the module attributes through which ``convbeam.pipeline`` and the benchmark
call them, by wrappers that record one span per call: name, start, end,
parent and root.  Spans stay in memory and are written out when the run
ends.  Only utterance- and frame-level calls are wrapped; per bin-frame
functions such as ``apa_update`` are not, because a wrapper there would cost
more than the work it measures.

A span's self time is its duration minus the time its direct children
cover.  Every wrapped call inside a request nests under that request's root
span, so the self times of one request add up to its wall time exactly.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import time
from contextlib import contextmanager

# (module, attribute, span name).  The span name is "<layer>.<function>",
# with the layer named after the convbeam module that implements it.
WRAPPED = (
    ("convbeam.wavio", "read_wav", "wavio.read_wav"),
    ("convbeam.wavio", "write_wav", "wavio.write_wav"),
    ("convbeam.pipeline", "enhance", "pipeline.enhance"),
    ("convbeam.pipeline", "stft", "stft.stft"),
    ("convbeam.pipeline", "istft", "stft.istft"),
    ("convbeam.pipeline", "srp_phat_localize", "geometry.srp_phat_localize"),
    ("convbeam.pipeline", "plane_wave_steering", "geometry.plane_wave_steering"),
    ("convbeam.geometry", "plane_wave_steering", "geometry.plane_wave_steering"),
    ("convbeam.pipeline", "diffuse_coherence", "geometry.diffuse_coherence"),
    ("convbeam.pipeline", "superdirective_mvdr", "fixedbf.weights"),
    ("convbeam.sdmvdr", "superdirective_mvdr", "fixedbf.weights"),
    ("convbeam.pipeline", "apply_fixed", "fixedbf.apply_fixed"),
    ("convbeam.pipeline", "process_utterance", "apa.process_utterance"),
    ("convbeam.apa", "init_state", "apa.init_state"),
    ("convbeam.apa", "process_frame", "apa.process_frame"),
    ("convbeam.pipeline", "process_utterance_sdmvdr", "sdmvdr.process_utterance_sdmvdr"),
)

# Root spans opened by the benchmark itself; their self time is the
# benchmark's own code between layer calls.
REQUEST = "request"
SETUP = "setup"
# Leaf span of a host-speed sample that interrupted a traced call.
SAMPLER = "benchmark.sampler"

# Fields of one span record.
NAME, START, END, PARENT, ROOT = range(5)


class Tracer:
    """In-memory span recorder that patches the layer functions while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[self._stack[0]][ROOT] if self._stack else idx
        self.spans.append([name, time.perf_counter(), 0.0, parent, root])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][END] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def add_leaves(spans, intervals, name: str) -> list:
    """Spans plus one leaf ``name`` per [start, duration] interval, under the innermost span holding it.

    Used for the host-speed sampler, whose timer signal interrupts whatever
    span is open; intervals outside every span are dropped.
    """
    out = [list(span) for span in spans]
    starts = [span[START] for span in spans]
    for start, duration in intervals:
        end = start + duration
        idx = bisect.bisect_right(starts, start) - 1
        while idx >= 0 and not (out[idx][START] <= start and end <= out[idx][END]):
            idx = out[idx][PARENT]
        if idx >= 0:
            out.append([name, start, end, idx, out[idx][ROOT]])
    return out


def self_times(spans) -> list:
    """Self time of every span: its duration minus its direct children's."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - covered[i] for i, span in enumerate(spans)]


def totals_by_name(spans, root_name: str, scale=None) -> tuple:
    """(count of ``root_name`` roots, {span name: summed self time under them}).

    ``scale``, given a root span, returns the factor applied to the self
    times under it (the host-speed correction of that request).
    """
    selfs = self_times(spans)
    factors = {
        i: 1.0 if scale is None else scale(span)
        for i, span in enumerate(spans)
        if span[PARENT] < 0 and span[NAME] == root_name
    }
    totals: dict = {}
    for i, span in enumerate(spans):
        if span[ROOT] in factors:
            totals[span[NAME]] = totals.get(span[NAME], 0.0) + selfs[i] * factors[span[ROOT]]
    return len(factors), totals


def layer_table(per_request: dict, request_s: float) -> str:
    """Per-layer self time per request, with each function's share of the request."""
    lines = [f"{'span':<38} {'self s/request':>15} {'share':>8}"]
    layers: dict = {}
    for name, secs in sorted(per_request.items(), key=lambda item: -item[1]):
        layer = "benchmark" if name == REQUEST else name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + secs
        lines.append(f"{name:<38} {secs:>15.6f} {100.0 * secs / request_s:>7.2f}%")
    lines.append("-" * 63)
    for layer, secs in sorted(layers.items(), key=lambda item: -item[1]):
        lines.append(f"layer {layer:<32} {secs:>15.6f} {100.0 * secs / request_s:>7.2f}%")
    total = sum(per_request.values())
    lines.append(f"{'sum of self times':<38} {total:>15.6f} {100.0 * total / request_s:>7.2f}%")
    lines.append(f"{'request time':<38} {request_s:>15.6f}")
    return "\n".join(lines)

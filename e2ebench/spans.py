"""Host-clock span recorder for the traced benchmark run.

The recorder wraps the public functions of each layer *from outside* (it
patches class attributes and module bindings for the duration of a run and
restores them afterwards), so nothing under ``src/`` changes.  Every call
into a wrapped function becomes one span: name, start, end, parent span and
the id of the workload round it ran in.  Spans stay in memory until the run
ends; :meth:`SpanRecorder.dump` writes them out.

A span's *self time* is its duration minus the time its child spans cover.
Spans nest by call stack (children start and end inside their parent), so
the self times of all spans add up exactly, in integer nanoseconds, to the
total duration of the root spans; the rest of the traced wall time is the
explicit *unattributed* remainder (the benchmark's own loop, and code of
layers that are not wrapped).
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

__all__ = ["Span", "SpanRecorder", "LayerReport", "layer_of"]

#: ``count(args, kwargs, result) -> {counter: amount}`` for one wrapped call
CountFn = Callable[[tuple, dict, object], dict]

#: marks a patched attribute the owner inherited (removed on uninstall)
_INHERITED = object()


@dataclass(slots=True)
class Span:
    span_id: int
    parent: int  # -1 for a root span
    name: str
    round_id: int
    start_ns: int
    end_ns: int = 0
    child_ns: int = 0

    @property
    def self_ns(self) -> int:
        return self.end_ns - self.start_ns - self.child_ns


def layer_of(span_name: str) -> str:
    """Layer key of a span name: everything before the last ``:``."""
    return span_name.rsplit(":", 1)[0]


@dataclass
class LayerReport:
    """Per-layer totals of one traced window."""

    calls: dict[str, int] = field(default_factory=dict)
    self_ns: dict[str, int] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    wall_ns: int = 0
    unattributed_ns: int = 0
    n_spans: int = 0

    def conservation_error_ns(self) -> int:
        """``sum(self) + unattributed - wall`` (0 when the law holds)."""
        return sum(self.self_ns.values()) + self.unattributed_ns - self.wall_ns


class SpanRecorder:
    """Wraps layer functions and records one span per call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.round_id = -1
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def install(self, targets: list[tuple[object, str, str, CountFn | None]]) -> None:
        """Replace each ``owner.attr`` (a class or module attribute) with a
        span-recording wrapper named ``name`` until :meth:`uninstall`.

        Every target is resolved before any is patched, so a subclass
        wrapped alongside its base still calls the *unwrapped* base code
        (one span per call, named after the class it was called on).
        ``count`` turns a call's arguments and result into counter
        increments; it runs only where the call enters its layer from
        outside, so nested calls inside one layer are not counted twice.
        """
        resolved = [
            (owner, attr, name, count, getattr(owner, attr), vars(owner).get(attr, _INHERITED))
            for owner, attr, name, count in targets
        ]
        for owner, attr, name, count, target, original in resolved:
            setattr(owner, attr, self._traced(target, name, count))
            self._patches.append((owner, attr, original))

    def _traced(self, target: Callable, name: str, count: CountFn | None) -> Callable:
        recorder = self
        layer = layer_of(name)

        @functools.wraps(target)
        def traced(*args, **kwargs):
            stack = recorder._stack
            parent = stack[-1] if stack else None
            span = Span(
                len(recorder.spans),
                parent.span_id if parent is not None else -1,
                name,
                recorder.round_id,
                time.perf_counter_ns(),
            )
            recorder.spans.append(span)
            stack.append(span)
            try:
                result = target(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
                if parent is not None:
                    parent.child_ns += span.end_ns - span.start_ns
            if count is not None and (parent is None or layer_of(parent.name) != layer):
                for key, amount in count(args, kwargs, result).items():
                    recorder.counters[key] += amount
            return result

        return traced

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ analysis

    def report(self, wall_ns: int) -> LayerReport:
        """Aggregate every recorded span by layer, against the wall time of
        the traced window the spans were recorded in."""
        if self._stack:
            raise RuntimeError("report() called while spans are still open")
        rep = LayerReport(wall_ns=wall_ns)
        root_ns = 0
        for span in self.spans:
            layer = layer_of(span.name)
            rep.calls[layer] = rep.calls.get(layer, 0) + 1
            rep.self_ns[layer] = rep.self_ns.get(layer, 0) + span.self_ns
            rep.n_spans += 1
            if span.parent < 0:
                root_ns += span.end_ns - span.start_ns
        rep.unattributed_ns = rep.wall_ns - root_ns
        rep.counters = dict(self.counters)
        return rep

    def dump(self, path: Path, meta: dict) -> Path:
        """Write every span as a gzipped JSON document: a name table plus
        one ``[id, parent, name_index, round, start_ns, end_ns]`` row per
        span, start times relative to the first span."""
        names: dict[str, int] = {}
        origin = self.spans[0].start_ns if self.spans else 0
        rows = [
            [
                s.span_id,
                s.parent,
                names.setdefault(s.name, len(names)),
                s.round_id,
                s.start_ns - origin,
                s.end_ns - origin,
            ]
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "meta": meta,
            "columns": ["id", "parent", "name", "round", "start_ns", "end_ns"],
            "names": list(names),
            "spans": rows,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        return path


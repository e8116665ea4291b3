"""Spans and counters recorded around the benchmark's calls into ransomlab.

A span is one call into a package module's public function, timed from the
benchmark's side: ``(op_id, span_id, parent_id, name, start_ns, end_ns)``.
The name's first dotted component is the layer (``simnet``, ``ingest``,
``scoring``, ``strategies``, ``games``, ``report``, ``cli``); each op is a
root span named ``op``. Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from pathlib import Path

OP = "op"
LAYERS = ("simnet", "ingest", "scoring", "strategies", "games", "report", "cli")


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    def begin_op(self, op_id: int) -> None:
        pass

    def end_op(self) -> None:
        pass

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        pass

    def count(self, name: str, n: int = 1) -> None:
        pass

    def distinct(self, name: str, obj: object) -> None:
        pass


class Tracer(NullTracer):
    """Tracing on: every call and op becomes a span; counters accumulate."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int | None, str, int, int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._last: dict[str, object] = {}
        self._op_id = -1
        self._op_span = None
        self._op_start = 0
        self._next_id = 0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._op_span = self._new_id()
        self._op_start = time.perf_counter_ns()

    def end_op(self) -> None:
        end = time.perf_counter_ns()
        self.spans.append((self._op_id, self._op_span, None, OP, self._op_start, end))
        self._op_span = None

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.record(name, start, time.perf_counter_ns())

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        self.spans.append((self._op_id, self._new_id(), self._op_span, name, start_ns, end_ns))

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def distinct(self, name: str, obj: object) -> None:
        """Count ``obj`` under ``name.distinct`` unless it is the object seen last.

        Holding the last object keeps its id from being reused, so a cache
        that returns one shared object counts once and a rebuild every call.
        """
        if obj is not self._last.get(name):
            self.counters[name + ".distinct"] += 1
            self._last[name] = obj

    def durations(self, name: str) -> list[int]:
        """Durations in ns of every span with this exact name."""
        return [end - start for (_, _, _, n, start, end) in self.spans if n == name]

    def mean_ns(self, name: str) -> float:
        durations = self.durations(name)
        return sum(durations) / len(durations) if durations else 0.0

    def self_time_by_layer(self) -> tuple[dict[str, int], int]:
        """Self time (ns) per layer inside ops, and the total op time.

        A span's self time is its duration minus the time its child spans
        cover. Spans outside any op (checks, set-up) are left out.
        """
        child_ns: dict[int, int] = defaultdict(int)
        for (_, _, parent, _, start, end) in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        layer_ns = {layer: 0 for layer in LAYERS}
        op_total = 0
        for (_, span_id, parent, name, start, end) in self.spans:
            if name == OP:
                op_total += end - start
            elif parent is not None:
                layer = name.split(".", 1)[0]
                layer_ns[layer] = layer_ns.get(layer, 0) + (end - start) - child_ns[span_id]
        return layer_ns, op_total

    def write(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines: a field header, then one array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["op", "id", "parent", "name", "start_ns", "end_ns"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")

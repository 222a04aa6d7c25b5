"""Span tracing from outside the program, for the benchmark's traced run.

The benchmark owns every object whose public calls bound a layer (the
``Network`` it builds, the session it opens, the service and daemon it
drives), so it records spans by wrapping those calls on the instances —
nothing inside the program changes.  A span carries a name, start, end,
parent span and operation id; spans stay in memory and are written as
JSONL when the run ends.

While a traced operation runs, a ``gc.callbacks`` hook charges each
collector pause to the innermost open span.  A span's *self time* is its
duration minus its children's durations minus the pauses charged to it,
so over one operation the self times plus the pauses add up exactly to
the operation's wall time.

Untraced operations go through :data:`NULL_TRACER`, whose spans and
wrappers do nothing, and the hook is not installed.
"""

from __future__ import annotations

import contextlib
import gc
import json
import statistics
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Span name of an operation's root.
OP = "op"


class Span:
    __slots__ = ("name", "op", "sid", "parent", "start", "end", "child", "gc")

    def __init__(self, name: str, op: str, sid: int, parent: Optional[int]) -> None:
        self.name = name
        self.op = op
        self.sid = sid
        self.parent = parent
        self.start = perf_counter()
        self.end = self.start
        self.child = 0.0  # summed durations of direct children
        self.gc = 0.0  # collector pauses while this was the innermost span

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child - self.gc

    def as_record(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "op": self.op,
            "id": self.sid,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "self": self.self_time,
            "gc": self.gc,
        }


def layer_of(name: str) -> str:
    """The layer a span belongs to: the first dotted component."""
    return name.split(".", 1)[0]


class Tracer:
    """Collects spans, per-operation counters and collector pauses."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, Dict[str, float]] = {}
        self.gc_pauses: List[Dict[str, Any]] = []
        self._stack: List[Span] = []
        self._op: Optional[str] = None
        self._gc_start = 0.0

    # -- operations ------------------------------------------------------
    @contextlib.contextmanager
    def operation(self, op: str):
        """Trace one operation: its root span, with the collector hook on."""
        self._op = op
        self.counters.setdefault(op, {})
        gc.callbacks.append(self._on_gc)
        try:
            with self.span(OP):
                yield
        finally:
            gc.callbacks.remove(self._on_gc)
            self._op = None

    @contextlib.contextmanager
    def span(self, name: str):
        """A child span of the innermost open one; a no-op between operations."""
        if self._op is None:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self._op, len(self.spans), parent.sid if parent else None)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child += span.duration

    def count(self, name: str, value: float) -> None:
        """Record a per-operation counter (last value wins)."""
        if self._op is not None:
            self.counters[self._op][name] = value

    def wrap(self, obj: Any, attr: str, name_of: Callable[..., str]) -> None:
        """Trace every call of ``obj.attr`` as a span named ``name_of(*args)``.

        The wrapper is set on the instance, so callers that reach the
        method through the instance — as the program's engines and
        services do — go through it.
        """
        method = getattr(obj, attr)

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name_of(*args, **kwargs)):
                return method(*args, **kwargs)

        setattr(obj, attr, traced)

    # -- the collector hook ------------------------------------------------
    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        now = perf_counter()
        if phase == "start":
            self._gc_start = now
            return
        pause = now - self._gc_start
        # The hook is installed only inside an operation, whose root span
        # stays open throughout, so some span is always innermost.
        owner = self._stack[-1]
        owner.gc += pause
        self.gc_pauses.append(
            {
                "op": self._op,
                "span": owner.sid,
                "layer": layer_of(owner.name),
                "generation": info["generation"],
                "seconds": pause,
            }
        )

    # -- export ----------------------------------------------------------
    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_record()) + "\n")
            for pause in self.gc_pauses:
                handle.write(json.dumps(dict(pause, name="gc")) + "\n")


class _NullTracer:
    """The tracer of untraced operations: every hook is a no-op."""

    enabled = False
    _null = contextlib.nullcontext()

    def operation(self, op: str):
        return self._null

    def span(self, name: str):
        return self._null

    def count(self, name: str, value: float) -> None:
        pass

    def wrap(self, obj: Any, attr: str, name_of: Callable[..., str]) -> None:
        pass


NULL_TRACER = _NullTracer()


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def op_breakdown(tracer: Tracer, ops: Iterable[str]) -> Dict[str, Dict[str, Any]]:
    """Per operation: wall time, self time by span name, total pauses."""
    wanted = set(ops)
    out: Dict[str, Dict[str, Any]] = {
        op: {"wall": 0.0, "self": {}, "gc": 0.0} for op in wanted
    }
    for span in tracer.spans:
        if span.op not in wanted:
            continue
        entry = out[span.op]
        if span.name == OP and span.parent is None:
            entry["wall"] = span.duration
        entry["self"][span.name] = entry["self"].get(span.name, 0.0) + span.self_time
        entry["gc"] += span.gc
    return out


def coverage(entry: Dict[str, Any]) -> float:
    """Share of an operation's wall time its layers' self times and pauses explain.

    The operation root's own self time — the benchmark's glue between the
    calls it wraps — is excluded, so this is how completely the wrapped
    layers account for the operation.
    """
    layers = sum(t for name, t in entry["self"].items() if name != OP)
    return (layers + entry["gc"]) / entry["wall"]


def layer_table(tracer: Tracer, ops: List[str], title: str) -> Tuple[List[str], float]:
    """The per-layer table of the traced *ops*.

    Returns the printable lines and the worst per-operation coverage (see
    :func:`coverage`).
    """
    breakdown = op_breakdown(tracer, ops)
    count = len(ops)
    wall = sum(entry["wall"] for entry in breakdown.values()) / count
    selfs: Dict[str, float] = {}
    pauses = 0.0
    for entry in breakdown.values():
        for name, seconds in entry["self"].items():
            selfs[name] = selfs.get(name, 0.0) + seconds / count
        pauses += entry["gc"] / count
    rows = sorted(
        ((name, t) for name, t in selfs.items() if name != OP),
        key=lambda item: -item[1],
    )
    lines = [title, "  %-34s %10s %8s" % ("layer (self time)", "s/op", "share")]
    for name, seconds in rows:
        lines.append("  %-34s %10.4f %7.1f%%" % (name, seconds, 100.0 * seconds / wall))
    lines.append("  %-34s %10.4f %7.1f%%" % ("gc pauses (all layers)", pauses, 100.0 * pauses / wall))
    glue = selfs.get(OP, 0.0)
    lines.append("  %-34s %10.4f %7.1f%%" % ("unattributed (benchmark glue)", glue, 100.0 * glue / wall))
    lines.append("  %-34s %10.4f %7.1f%%" % ("operation wall", wall, 100.0))
    worst = min(coverage(entry) for entry in breakdown.values())
    largest, seconds = rows[0]
    lines.append(
        "  headline: largest layer %s, %.1f%% of the operation" % (largest, 100.0 * seconds / wall)
    )
    lines.append(
        "  layers + gc cover %.1f%% of the wall time in the worst operation (%s within 5%%)"
        % (100.0 * worst, "ok" if abs(1.0 - worst) <= 0.05 else "NOT")
    )
    return lines, worst


def layer_values(
    tracer: Tracer,
    timed_ops: List[str],
    setup_ops: List[str],
    metric_of: Callable[[str], str],
) -> Dict[str, float]:
    """Per-layer metric values of a traced run.

    A span name's self time (as ``metric_of(span name)``), its span count
    (as ``<span name>_calls``) and each counter are averaged over the
    timed operations in which they occur; one that occurs only during
    set-up (the serve workload's service construction, say) is averaged
    over the set-up operations instead.  Collector figures are per timed
    operation: ``runtime.gc_s``, ``runtime.gc_collections``,
    ``runtime.gc_gen2`` and ``<layer>.gc_s``.
    """
    def per_op(ops: List[str]) -> Dict[str, Dict[str, float]]:
        wanted = set(ops)
        table: Dict[str, Dict[str, float]] = {}
        for span in tracer.spans:
            if span.op in wanted:
                name = metric_of(span.name)
                row = table.setdefault(name, {})
                row[span.op] = row.get(span.op, 0.0) + span.self_time
                calls = table.setdefault(span.name + "_calls", {})
                calls[span.op] = calls.get(span.op, 0.0) + 1
        for op in ops:
            for name, value in tracer.counters.get(op, {}).items():
                table.setdefault(name, {})[op] = value
        return table

    values: Dict[str, float] = {}
    for table in (per_op(setup_ops), per_op(timed_ops)):  # timed ops win
        for name, row in table.items():
            values[name] = sum(row.values()) / len(row)

    timed = set(timed_ops)
    count = max(len(timed_ops), 1)
    pauses = [p for p in tracer.gc_pauses if p["op"] in timed]
    values["runtime.gc_s"] = sum(p["seconds"] for p in pauses) / count
    values["runtime.gc_collections"] = len(pauses) / count
    values["runtime.gc_gen2"] = sum(1 for p in pauses if p["generation"] == 2) / count
    for pause in pauses:
        key = pause["layer"] + ".gc_s"
        values[key] = values.get(key, 0.0) + pause["seconds"] / count
    return values


def median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0

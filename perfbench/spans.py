"""Span trees and the per-request latency ledger.

Spans are the program's own :class:`repro.obs.trace.SpanRecord`: the
server's ``/debug/trace`` and the campaign's flight recorder produce
them, and the benchmark records its own (an HTTP request, an in-process
replay, a campaign, an explorer query) into a private
:class:`~repro.obs.trace.FlightRecorder` with
:func:`~repro.obs.trace.record_complete`.  ``start`` is wall-clock
epoch seconds (the only clock shared by the server and its pool
workers); durations are taken with ``perf_counter``.

A span's *self time* is its duration minus the part of its interval
that its children cover; overlapping children are counted once.  The
ledger splits one request's client-observed latency into the self
times of every span in its tree.  When every child lies inside its
parent, the self times add up to the root's duration exactly, so the
residual (``ledger.unattributed_ms``) measures what the tree fails to
attribute: children that overlap or stick out of their parents, which
happens when clocks of different processes disagree.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.obs.trace import FlightRecorder, SpanRecord, TraceContext, record_complete


def end(span: SpanRecord) -> float:
    return span.start + span.duration


class Timed:
    """A benchmark span being timed: its context (children attach to
    it), and its duration once the ``with`` block has closed."""

    def __init__(self, context: TraceContext):
        self.context = context
        self.duration = 0.0


@contextmanager
def timed(recorder: FlightRecorder, name: str, parent: Optional[Timed] = None,
          trace_id: Optional[str] = None, **attrs: Any) -> Iterator[Timed]:
    """Time the block as one span recorded into ``recorder``; a span
    without a parent starts a trace (``trace_id``, or a new one)."""
    root = TraceContext.new_root(trace_id=trace_id) if parent is None else parent.context
    ctx = root.child()
    span = Timed(ctx)
    wall = time.time()
    started = time.perf_counter()
    try:
        yield span
    finally:
        span.duration = time.perf_counter() - started
        record_complete(name, ctx, wall, span.duration, recorder=recorder, **attrs)


def from_chrome(payload: Dict[str, Any]) -> List[SpanRecord]:
    """The program's ``/debug/trace`` (Chrome trace-event JSON) as span
    records, instant events (zero duration) included."""
    spans = []
    for event in payload.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args", {}))
        spans.append(SpanRecord(
            name=str(event["name"]),
            trace_id=str(args.pop("trace_id")),
            span_id=str(args.pop("span_id")),
            parent_id=args.pop("parent_id", None) or None,
            start=float(event["ts"]) / 1e6,
            duration=float(event.get("dur", 0.0)) / 1e6,
            attributes=args,
            pid=int(event.get("pid", 0)),
            tid=int(event.get("tid", 0)),
        ))
    return spans


def covered(start: float, stop: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, stop]`` covered by the union of ``intervals``
    (each clipped to ``[start, stop]`` first)."""
    clipped = sorted(
        (max(start, a), min(stop, b)) for a, b in intervals if b > start and a < stop
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None:
            cur_a, cur_b = a, b
        elif a <= cur_b:
            cur_b = max(cur_b, b)
        else:
            total += cur_b - cur_a
            cur_a, cur_b = a, b
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_time(span: SpanRecord, children: Iterable[SpanRecord]) -> float:
    return span.duration - covered(
        span.start, end(span), ((c.start, end(c)) for c in children)
    )


class SpanTree:
    """Parent → children index over one set of spans.

    :meth:`link` adds an edge that is not a parent id: a coalesced
    follower request waits on its leader's batch, which the program
    records only under the leader's request.
    """

    def __init__(self, spans: Iterable[SpanRecord]):
        self.spans = list(spans)
        self.by_id = {s.span_id: s for s in self.spans}
        self.children: Dict[str, List[SpanRecord]] = {}
        for s in self.spans:
            if s.parent_id is not None:
                self.children.setdefault(s.parent_id, []).append(s)

    def kids(self, span: SpanRecord) -> List[SpanRecord]:
        return self.children.get(span.span_id, [])

    def link(self, parent: SpanRecord, child: SpanRecord) -> None:
        self.children.setdefault(parent.span_id, []).append(child)

    def self_time(self, span: SpanRecord) -> float:
        return self_time(span, self.kids(span))

    def descendants(self, span: SpanRecord) -> Iterator[SpanRecord]:
        for child in self.kids(span):
            yield child
            yield from self.descendants(child)

    def named(self, name: str) -> List[SpanRecord]:
        return [s for s in self.spans if s.name == name]


def ledger(tree: SpanTree, root: SpanRecord, stage_of: Dict[str, str]) -> Dict[str, float]:
    """Split ``root``'s duration into named stages, in seconds.

    Each span in the tree contributes its self time to the stage its
    name maps to (``stage_of``; unmapped names go to ``"other"``).  The
    ``"unattributed"`` entry is what remains of the root's duration
    after all stages, so the entries always sum to the root duration.
    """
    stages: Dict[str, float] = {}
    for span in [root, *tree.descendants(root)]:
        stage = stage_of.get(span.name, "other")
        stages[stage] = stages.get(stage, 0.0) + tree.self_time(span)
    stages["unattributed"] = root.duration - sum(stages.values())
    return stages

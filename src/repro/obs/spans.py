"""Phase-span tracer: nested engine phases on two clocks at once.

Every engine phase — superstep, compute, flush, aggregate-merge,
master-compute, barrier, checkpoint, recovery, elastic-resize, repartition
— is recorded as a :class:`Span` carrying *both* timelines the reproduction
cares about:

* **host time** (``time.perf_counter``): where real CPU time goes in this
  Python process, the prerequisite for optimizing the engine itself;
* **simulated time**: the cloud model's seconds, the paper's currency.

Spans nest (a stack tracks the open span), so the export preserves the
phase hierarchy::

    job
      superstep 0
        compute | flush | aggregate-merge | master-compute | barrier
      superstep 1
        ...

Exports:

* :meth:`SpanTracer.to_dict` / :meth:`write_json` — plain JSON, stable
  field names, host times relative to the tracer's epoch;
* :meth:`SpanTracer.to_chrome_trace` / :meth:`write_chrome_trace` — Chrome
  ``trace_event`` format ("X" complete events, microsecond timestamps),
  loadable in ``chrome://tracing`` / Perfetto; simulated times ride along
  in each event's ``args``.

Besides spans, the tracer records **counter samples**
(:meth:`SpanTracer.counter`): named numeric series sampled at a point in
time — messages in flight, per-worker memory — exported as Chrome "C"
(counter) events, which the trace viewers render as stacked area tracks
under the phase rows.  Counter samples bumped the span dump to format
version 2; version-1 dumps (no ``counters`` key) stay readable.

The engines reach the tracer only through the span adapter of
:mod:`repro.bsp.telemetry`, installed when the job attached one.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

__all__ = ["Span", "SpanTracer"]

#: version 2 added the ``counters`` list; readers accept 1 and 2
SPAN_FORMAT_VERSION = 2


@dataclass
class Span:
    """One recorded phase: name + the two timelines + free-form attrs."""

    index: int
    name: str
    category: str
    host_start: float  # seconds since the tracer's epoch
    sim_start: float
    parent: int | None = None
    depth: int = 0
    host_end: float | None = None
    sim_end: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def host_duration(self) -> float:
        return (self.host_end - self.host_start) if self.host_end is not None else 0.0

    @property
    def sim_duration(self) -> float:
        return (self.sim_end - self.sim_start) if self.sim_end is not None else 0.0

    @property
    def closed(self) -> bool:
        return self.host_end is not None

    def set_sim_duration(self, seconds: float) -> None:
        """Attribute simulated seconds explicitly (phases the cost model
        prices in one lump rather than while they execute)."""
        self.sim_end = self.sim_start + float(seconds)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "name": self.name,
            "category": self.category,
            "parent": self.parent,
            "depth": self.depth,
            "host_start": self.host_start,
            "host_duration": self.host_duration,
            "sim_start": self.sim_start,
            "sim_duration": self.sim_duration,
            "attrs": self.attrs,
        }


class SpanTracer:
    """Records nested :class:`Span`\\ s; the engine's phase chronicle.

    ``start``/``end`` follow stack discipline (the engine's phases are
    strictly nested); ``record`` emits a leaf span in one call for phases
    whose cost is known only as a lump sum (e.g. the modeled barrier).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._epoch = clock()
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.counters: list[dict[str, Any]] = []
        #: optional :class:`repro.obs.FlightRecorder`; when set (the engine
        #: wires it when a job attaches both sinks), every start/end also
        #: emits a ``span-open``/``span-close`` flight event so the crash
        #: tail shows the phase that was in flight
        self.flight: Any = None

    # ------------------------------------------------------------------
    def _now(self) -> float:
        return self._clock() - self._epoch

    def now(self) -> float:
        """Current tracer time (seconds since epoch), for restamping."""
        return self._now()

    def start(self, name: str, sim: float = 0.0, category: str = "phase",
              **attrs: Any) -> Span:
        """Open a span; it becomes the parent of spans started before end."""
        parent = self._stack[-1] if self._stack else None
        span = Span(
            index=len(self.spans),
            name=name,
            category=category,
            host_start=self._now(),
            sim_start=float(sim),
            parent=parent.index if parent is not None else None,
            depth=len(self._stack),
            attrs=dict(attrs),
        )
        self.spans.append(span)
        self._stack.append(span)
        if self.flight is not None:
            self.flight.record(
                "span-open", sim=span.sim_start, name=span.name,
                superstep=int(span.attrs.get("superstep", -1)),
                depth=span.depth,
            )
        return span

    def end(self, span: Span, sim: float | None = None, **attrs: Any) -> Span:
        """Close ``span``; must be the innermost open span."""
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} is not the innermost open span"
            )
        self._stack.pop()
        span.host_end = self._now()
        if span.sim_end is None or sim is not None:
            # an explicit set_sim_duration() survives a bare end()
            span.sim_end = float(sim) if sim is not None else span.sim_start
        if attrs:
            span.attrs.update(attrs)
        if self.flight is not None:
            self.flight.record(
                "span-close", sim=span.sim_end, name=span.name,
                superstep=int(span.attrs.get("superstep", -1)),
                host_seconds=round(span.host_duration, 6),
            )
        return span

    def record(self, name: str, sim: float = 0.0, sim_duration: float = 0.0,
               host_duration: float = 0.0, category: str = "phase",
               host_end: float | None = None, **attrs: Any) -> Span:
        """Emit an already-complete leaf span (no stack interaction).

        By default the span ends *now* and extends ``host_duration``
        backwards.  Pass ``host_end`` (tracer time) to place it
        elsewhere — used when restamping remote work into this tracer's
        timebase after clock alignment.
        """
        parent = self._stack[-1] if self._stack else None
        now = self._now() if host_end is None else float(host_end)
        span = Span(
            index=len(self.spans),
            name=name,
            category=category,
            host_start=now - host_duration,
            sim_start=float(sim),
            parent=parent.index if parent is not None else None,
            depth=len(self._stack),
            host_end=now,
            sim_end=float(sim) + float(sim_duration),
            attrs=dict(attrs),
        )
        self.spans.append(span)
        return span

    def counter(self, name: str, sim: float = 0.0, **values: float) -> None:
        """Sample a named counter track at this instant.

        ``values`` are the track's series (a Chrome "C" event draws one
        stacked area per key) — e.g. ``counter("worker-memory", sim=t,
        w0=..., w1=...)``.  Samples are ordered by recording time.
        """
        self.counters.append(
            {
                "name": name,
                "host": self._now(),
                "sim": float(sim),
                "values": {k: float(v) for k, v in values.items()},
            }
        )

    def unwind(self, span: Span | None = None, sim: float | None = None) -> int:
        """Abort-close spans left open above ``span``; returns the count.

        The abnormal-end path breaks stack discipline: a compute phase
        that raises leaves its span open, and closing the enclosing
        superstep span would then fail — masking the original error.
        ``unwind(span)`` repairs the stack by closing (``aborted: true``)
        everything opened inside ``span``, leaving ``span`` itself as the
        innermost open span for a normal :meth:`end`.  With ``span`` None
        every open span is aborted (final job teardown).
        """
        if span is not None and span not in self._stack:
            return 0
        n = 0
        while self._stack and self._stack[-1] is not span:
            self.end(self._stack[-1], sim=sim, aborted=True)
            n += 1
        return n

    # ------------------------------------------------------------------
    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total_sim(self, name: str) -> float:
        """Sum of simulated durations over all spans called ``name``."""
        return sum(s.sim_duration for s in self.named(name))

    def total_host(self, name: str) -> float:
        return sum(s.host_duration for s in self.named(name))

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "version": SPAN_FORMAT_VERSION,
            "clock": "perf_counter",
            "spans": [s.to_dict() for s in self.spans],
            "counters": [dict(c) for c in self.counters],
        }

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1))

    def to_chrome_trace(self) -> dict:
        """Chrome ``trace_event`` JSON (open in chrome://tracing/Perfetto)."""
        events = []
        for s in self.spans:
            events.append(
                {
                    "name": s.name,
                    "cat": s.category,
                    "ph": "X",
                    "ts": s.host_start * 1e6,
                    "dur": s.host_duration * 1e6,
                    "pid": 0,
                    "tid": 0,
                    "args": {
                        "sim_start": s.sim_start,
                        "sim_duration": s.sim_duration,
                        **s.attrs,
                    },
                }
            )
        for c in self.counters:
            events.append(
                {
                    "name": c["name"],
                    "cat": "counter",
                    "ph": "C",
                    "ts": c["host"] * 1e6,
                    "pid": 0,
                    "args": {**c["values"]},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_chrome_trace()))

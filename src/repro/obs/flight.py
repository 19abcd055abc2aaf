"""Flight recorder: an always-on, bounded ring buffer of structured events.

Every artifact the observability layer produced so far — spans, metrics,
timelines — is written *after* a run completes.  A hung superstep, a
SIGKILLed worker, or a mid-run OOM therefore left nothing to inspect,
exactly the failure modes the paper's swath/memory analysis (§VI) is
about.  The flight recorder closes that gap the way avionics do: a small,
fixed-cost ring of recent structured events that is *always* capturing,
can be tailed live (``/events`` on :class:`~repro.obs.live.LiveTelemetryServer`),
and is dumped wholesale into a crash bundle by
:mod:`repro.obs.postmortem` when a run ends abnormally.

Design:

* **Bounded, drop-oldest.**  ``capacity`` caps memory; when full, the
  oldest event is evicted (``dropped`` counts evictions).  Sequence
  numbers are global and never reused, so a reader's ``since=`` cursor
  stays monotonic across wraps — events lost to eviction are simply
  absent from the reply, never re-ordered.
* **Thread-safe.**  One lock guards the ring: the engine records from the
  superstep loop (and the threaded engine's pool), the live HTTP server
  reads from its own thread, and the process engine's heartbeat threads
  record child-side.
* **Cross-process.**  Each worker process keeps a private recorder;
  :mod:`repro.dist.worker_proc` ships the fresh tail at every barrier and
  the coordinator folds it in with :meth:`FlightRecorder.merge_remote`,
  preserving each child's per-worker event order (re-stamped with
  coordinator sequence numbers; the child's own ``seq``/``host`` ride
  along as ``worker_seq``/``worker_host`` attrs).
* **Optional NDJSON sink.**  :meth:`attach_sink` tees every recorded
  event to an append-only newline-delimited-JSON log (``repro run
  --events-out``) for unbounded capture; ``repro trace summarize``
  understands the format.

Event vocabulary (the engines emit these; anything goes):

``job-start/job-end``, ``superstep-open/superstep-commit``,
``barrier-enter/barrier-exit``, ``span-open/span-close``,
``checkpoint``, ``recovery``, ``memory-sample``, ``message-batch``,
``heartbeat-send``, ``heartbeat-miss``, ``worker-lost``,
``worker-respawn``, ``worker-compute``, ``straggler``,
``sanitizer-violation``, ``abort``.

Like every sink in :mod:`repro.obs`, the recorder attaches through the
job spec (``JobSpec(flight=FlightRecorder())``); the engines feed it
through the flight adapter of :mod:`repro.bsp.telemetry`, installed only
when one is attached (``benchmarks/bench_flight.py`` bounds the overhead).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

__all__ = [
    "FLIGHT_FORMAT_VERSION",
    "FlightEvent",
    "FlightRecorder",
    "read_event_log",
]

FLIGHT_FORMAT_VERSION = 1

#: worker id used for coordinator-originated events
COORDINATOR = -1


@dataclass
class FlightEvent:
    """One structured event in the ring.

    ``seq`` is globally monotonic per recorder (never reused, so it doubles
    as the tail cursor); ``worker`` is :data:`COORDINATOR` (-1) for
    coordinator-side events; ``superstep`` is -1 when the event is not
    step-scoped; ``host`` is seconds since the recorder's epoch and ``sim``
    the simulated clock when the emitter knew it.
    """

    seq: int
    kind: str
    superstep: int = -1
    worker: int = COORDINATOR
    host: float = 0.0
    sim: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "superstep": self.superstep,
            "worker": self.worker,
            "host": self.host,
            "sim": self.sim,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FlightEvent":
        return cls(
            seq=int(data["seq"]),
            kind=str(data["kind"]),
            superstep=int(data.get("superstep", -1)),
            worker=int(data.get("worker", COORDINATOR)),
            host=float(data.get("host", 0.0)),
            sim=float(data.get("sim", 0.0)),
            attrs=dict(data.get("attrs", {})),
        )


class FlightRecorder:
    """Bounded drop-oldest ring of :class:`FlightEvent` (see module docs)."""

    def __init__(
        self,
        capacity: int = 4096,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._clock = clock
        self._epoch = clock()
        self._ring: deque[FlightEvent] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._next_seq = 0
        self.dropped = 0
        self._sink = None
        self._sink_path: Path | None = None
        self._sink_pending = 0
        self._dropped_counter = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return self._clock() - self._epoch

    @property
    def epoch(self) -> float:
        """The clock reading all ``host`` stamps are relative to."""
        return self._epoch

    def now(self) -> float:
        """Current recorder time (seconds since epoch), for anchoring."""
        return self._now()

    def bind_dropped_counter(self, counter: Any) -> None:
        """Mirror ring evictions into a metrics counter (``.inc()``).

        Lets ``repro_flight_dropped_total`` expose eviction pressure on
        the live scrape surface without the recorder importing metrics.
        """
        self._dropped_counter = counter

    def record(
        self,
        kind: str,
        superstep: int = -1,
        worker: int = COORDINATOR,
        sim: float = 0.0,
        **attrs: Any,
    ) -> FlightEvent:
        """Append one event to the ring (and the sink, when attached)."""
        with self._lock:
            event = FlightEvent(
                seq=self._next_seq,
                kind=kind,
                superstep=int(superstep),
                worker=int(worker),
                host=self._now(),
                sim=float(sim),
                attrs=dict(attrs),
            )
            self._next_seq += 1
            self._append(event)
            return event

    def _append(self, event: FlightEvent) -> None:
        """Ring + sink append; caller holds the lock."""
        if len(self._ring) == self.capacity:
            self.dropped += 1
            if self._dropped_counter is not None:
                self._dropped_counter.inc()
        self._ring.append(event)
        if self._sink is not None:
            self._sink.write(json.dumps(event.to_dict()) + "\n")
            self._sink_pending += 1
            if self._sink_pending >= 64:
                self._sink.flush()
                self._sink_pending = 0

    def merge_remote(
        self,
        worker: int,
        events: Iterable[Mapping[str, Any]],
        restamp: Callable[[float], float] | None = None,
    ) -> int:
        """Fold a child process's shipped event dicts into this ring.

        Events are appended in the order given (the child sends its own
        recording order, so per-worker order is preserved); each gets a
        fresh coordinator ``seq``, with the child's own ``seq``/``host``
        preserved as ``worker_seq``/``worker_host`` attrs.

        Without ``restamp`` the coordinator stamps merge time (arrival
        order — fine on one host, where all clocks agree).  With it,
        each event's ``host`` becomes ``restamp(child_host)``: the
        caller maps the child's recorder time into this recorder's
        timebase (see :class:`~repro.obs.cluster.ClockSync`), so a
        multi-host trace is monotonic in one clock.  Returns the number
        of events merged.
        """
        n = 0
        with self._lock:
            for d in events:
                worker_host = float(d.get("host", 0.0))
                event = FlightEvent(
                    seq=self._next_seq,
                    kind=str(d["kind"]),
                    superstep=int(d.get("superstep", -1)),
                    worker=int(worker),
                    host=(
                        self._now() if restamp is None
                        else restamp(worker_host)
                    ),
                    sim=float(d.get("sim", 0.0)),
                    attrs={
                        **dict(d.get("attrs", {})),
                        "worker_seq": int(d["seq"]),
                        "worker_host": worker_host,
                    },
                )
                self._next_seq += 1
                self._append(event)
                n += 1
        return n

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    @property
    def last_seq(self) -> int:
        """Highest sequence number recorded so far (-1 when empty ring)."""
        return self._next_seq - 1

    def snapshot(self) -> list[FlightEvent]:
        """The ring's current contents, oldest first."""
        with self._lock:
            return list(self._ring)

    def events_since(
        self, cursor: int = -1, mark_gaps: bool = False
    ) -> tuple[list[FlightEvent], int]:
        """Tail the ring: events with ``seq > cursor`` plus the new cursor.

        The cursor is the last ``seq`` the reader has seen (-1 = from the
        beginning).  It stays monotonic across ring wraps: events evicted
        before the reader caught up are skipped, never replayed out of
        order.  With ``mark_gaps`` a wrap between polls is reported
        explicitly: when the oldest fresh event is not ``cursor + 1``, a
        synthetic ``gap`` event (not stored in the ring) is prepended
        with ``attrs["missed"]`` counting the evicted events.  Returns
        ``(events, next_cursor)`` where ``next_cursor`` is the argument
        unchanged when nothing is new.
        """
        cursor = int(cursor)
        with self._lock:
            fresh = [e for e in self._ring if e.seq > cursor]
        if (
            mark_gaps
            and fresh
            and cursor >= 0
            and fresh[0].seq > cursor + 1
        ):
            missed = fresh[0].seq - cursor - 1
            fresh.insert(0, FlightEvent(
                seq=fresh[0].seq - 1,
                kind="gap",
                host=fresh[0].host,
                attrs={"missed": missed},
            ))
        return fresh, (fresh[-1].seq if fresh else cursor)

    def by_worker(self) -> dict[int, list[FlightEvent]]:
        """Ring contents grouped by worker id, each oldest first."""
        out: dict[int, list[FlightEvent]] = {}
        for e in self.snapshot():
            out.setdefault(e.worker, []).append(e)
        return out

    # ------------------------------------------------------------------
    # NDJSON sink
    # ------------------------------------------------------------------
    def attach_sink(self, path: str | Path) -> None:
        """Tee every subsequent event to an NDJSON log at ``path``.

        Events already in the ring are written out first, so the log is a
        complete record from recorder construction when attached early.
        """
        with self._lock:
            if self._sink is not None:
                raise RuntimeError("a sink is already attached")
            self._sink_path = Path(path)
            self._sink = open(self._sink_path, "w")
            for e in self._ring:
                self._sink.write(json.dumps(e.to_dict()) + "\n")
            self._sink.flush()
            self._sink_pending = 0

    @property
    def sink_path(self) -> Path | None:
        return self._sink_path

    def flush(self) -> None:
        with self._lock:
            if self._sink is not None:
                self._sink.flush()
                self._sink_pending = 0

    def close(self) -> None:
        """Flush and detach the sink (idempotent; the ring stays usable)."""
        with self._lock:
            if self._sink is not None:
                self._sink.flush()
                self._sink.close()
                self._sink = None
                self._sink_pending = 0

    # ------------------------------------------------------------------
    # Serialization (postmortem bundles)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        with self._lock:
            return {
                "version": FLIGHT_FORMAT_VERSION,
                "capacity": self.capacity,
                "dropped": self.dropped,
                "next_seq": self._next_seq,
                "events": [e.to_dict() for e in self._ring],
            }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FlightRecorder":
        version = data.get("version")
        if version != FLIGHT_FORMAT_VERSION:
            raise ValueError(f"unsupported flight format version {version!r}")
        rec = cls(capacity=int(data.get("capacity", 4096)))
        with rec._lock:
            for d in data.get("events", ()):
                rec._ring.append(FlightEvent.from_dict(d))
            rec.dropped = int(data.get("dropped", 0))
            rec._next_seq = int(
                data.get(
                    "next_seq",
                    (rec._ring[-1].seq + 1) if rec._ring else 0,
                )
            )
        return rec


def read_event_log(path: str | Path) -> list[FlightEvent]:
    """Parse an NDJSON event log written by :meth:`FlightRecorder.attach_sink`."""
    events = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not NDJSON ({exc})"
                ) from exc
            if not isinstance(data, dict) or "kind" not in data:
                raise ValueError(
                    f"{path}:{lineno}: not a flight event (no 'kind')"
                )
            try:
                events.append(FlightEvent.from_dict(data))
            except (KeyError, TypeError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed flight event ({exc!r})"
                ) from exc
    return events

"""RunTimeline: the structured per-(superstep, worker) attribution record.

The paper's core analyses (§V-§VII, Figs. 9-14) are all per-superstep,
per-worker measurements — worker utilization under barrier skew, load
imbalance inside supersteps, message/memory phase behavior.  The engines
already *compute* every one of those quantities while accounting a
superstep; this module records them as first-class rows instead of leaving
them to offline trace reconstruction.

One :class:`TimelineRow` per superstep x worker, carrying only
*deterministic simulated* quantities (no host clocks), so the recorded
timeline is **byte-identical across execution backends** — sim, process,
tcp and dense-ref runs of the same job on the same seed serialize to the
same JSON (tests assert it).  Alongside the rows:

* one :class:`StepMeta` per superstep — cluster-level quantities (barrier
  time, restart/checkpoint/recovery overhead, active counts);
* free-form :meth:`RunTimeline.annotate` events (swath initiations, etc.).

Recording is engine-driven through the same duck-typed slot pattern as the
tracer/metrics sinks: ``JobSpec(timeline=RunTimeline())``, one ``is None``
guard per site, zero cost when unattached.  Failure recovery calls
:meth:`RunTimeline.rollback` so rows from a killed epoch are discarded with
the checkpoint — the final timeline of a failed-and-recovered run equals
that of an undisturbed run (tests assert this for the process engine's
real kill/respawn path too).

On top of the rows, :mod:`repro.obs.diagnose` runs straggler/skew
attribution and critical-path analysis, and ``repro perf`` renders and
diffs saved timelines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "TIMELINE_FORMAT_VERSION",
    "TimelineRow",
    "StepMeta",
    "RunTimeline",
    "timeline_to_dict",
    "timeline_from_dict",
    "read_timeline",
]

TIMELINE_FORMAT_VERSION = 1


@dataclass
class TimelineRow:
    """One worker's attribution row for one superstep (simulated clock only)."""

    superstep: int
    worker: int
    compute_calls: int = 0
    msgs_in: int = 0
    msgs_out_local: int = 0
    msgs_out_remote: int = 0
    bytes_in: float = 0.0
    bytes_out: float = 0.0
    #: messages buffered for the next superstep at the barrier
    queue_depth: int = 0
    compute_time: float = 0.0
    serialize_time: float = 0.0
    network_time: float = 0.0
    disk_time: float = 0.0
    memory_bytes: float = 0.0
    mem_slowdown: float = 1.0
    #: injected multi-tenant jitter multiplier (1.0 = none)
    jitter_factor: float = 1.0
    restarted: bool = False

    # ---- derived (not serialized; recomputed on load) --------------------
    @property
    def comm_time(self) -> float:
        """Data-plane time: serialization + network + disk buffering."""
        return self.serialize_time + self.network_time + self.disk_time

    @property
    def busy_time(self) -> float:
        return self.compute_time + self.comm_time

    @property
    def elapsed(self) -> float:
        """Worker wall time including spill penalty and tenant jitter."""
        return self.busy_time * self.mem_slowdown * self.jitter_factor

    @property
    def msgs_out(self) -> int:
        return self.msgs_out_local + self.msgs_out_remote


@dataclass
class StepMeta:
    """Cluster-level quantities of one superstep."""

    superstep: int
    num_workers: int
    active_begin: int = 0
    active_end: int = 0
    injected: int = 0
    barrier_time: float = 0.0
    restart_time: float = 0.0
    #: checkpoint writes / recovery restores / elastic stalls charged to
    #: this superstep beyond the slowest worker + barrier + restarts
    overhead_time: float = 0.0
    elapsed: float = 0.0
    #: worker VM-seconds billed beyond ``num_workers x elapsed`` (a
    #: scale-out's booting VMs); 0.0 in dumps that predate the field
    extra_vm_seconds: float = 0.0
    sim_time_end: float = 0.0


_ROW_FIELDS = [f.name for f in fields(TimelineRow)]
_STEP_FIELDS = [f.name for f in fields(StepMeta)]


class RunTimeline:
    """Recorder + container for one run's attribution rows.

    Attach through the job spec (``JobSpec(timeline=...)`` or
    ``RunConfig(timeline=...)``); the engine calls
    :meth:`record_superstep` once per *committed* superstep — aborted
    epochs (worker death mid-superstep) never record, and scheduled
    failures roll their rows back via :meth:`rollback`.
    """

    def __init__(self) -> None:
        self.rows: list[TimelineRow] = []
        self.steps: list[StepMeta] = []
        #: free-form annotations: {"superstep", "kind", ...attrs}
        self.events: list[dict[str, Any]] = []
        #: rows discarded by failure rollbacks (diagnostic counter)
        self.rolled_back_rows = 0

    # ------------------------------------------------------------------
    # Recording (engine-facing)
    # ------------------------------------------------------------------
    def record_superstep(self, stats) -> None:
        """Append one step's meta + per-worker rows from its
        :class:`~repro.bsp.superstep.SuperstepStats` (duck-typed)."""
        slowest = max((w.elapsed for w in stats.workers), default=0.0)
        overhead = stats.elapsed - slowest - stats.barrier_time - stats.restart_time
        self.steps.append(
            StepMeta(
                superstep=stats.index,
                num_workers=stats.num_workers,
                active_begin=stats.active_begin,
                active_end=stats.active_end,
                injected=stats.injected,
                barrier_time=stats.barrier_time,
                restart_time=stats.restart_time,
                overhead_time=max(0.0, overhead),
                elapsed=stats.elapsed,
                extra_vm_seconds=stats.extra_vm_seconds,
                sim_time_end=stats.sim_time_end,
            )
        )
        for w in stats.workers:
            self.rows.append(
                TimelineRow(
                    superstep=stats.index,
                    worker=w.worker,
                    compute_calls=w.compute_calls,
                    msgs_in=w.msgs_in,
                    msgs_out_local=w.msgs_out_local,
                    msgs_out_remote=w.msgs_out_remote,
                    bytes_in=w.bytes_in,
                    bytes_out=w.bytes_out,
                    queue_depth=w.queue_depth,
                    compute_time=w.compute_time,
                    serialize_time=w.serialize_time,
                    network_time=w.network_time,
                    disk_time=w.disk_time,
                    memory_bytes=w.memory_bytes,
                    mem_slowdown=w.mem_slowdown,
                    jitter_factor=w.jitter_factor,
                    restarted=w.restarted,
                )
            )

    def annotate(self, superstep: int, kind: str, **attrs: Any) -> None:
        """Attach a control-plane event (swath start, policy decision...)."""
        self.events.append({"superstep": int(superstep), "kind": kind, **attrs})

    def rollback(self, resume_from: int) -> None:
        """Discard everything recorded for supersteps >= ``resume_from``.

        Called by the engine's coordinated rollback so a killed epoch's
        rows vanish with the checkpoint; the replayed supersteps re-record.
        Annotations made before the rolled-back range survive.
        """
        kept = [r for r in self.rows if r.superstep < resume_from]
        self.rolled_back_rows += len(self.rows) - len(kept)
        self.rows = kept
        self.steps = [s for s in self.steps if s.superstep < resume_from]
        self.events = [e for e in self.events if e["superstep"] < resume_from]

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.steps)

    @property
    def num_workers(self) -> int:
        """Widest fleet seen (elastic runs vary per step)."""
        return max((s.num_workers for s in self.steps), default=0)

    @property
    def total_time(self) -> float:
        return sum(s.elapsed for s in self.steps)

    @property
    def total_messages(self) -> int:
        return sum(r.msgs_out for r in self.rows)

    def rows_of_step(self, superstep: int) -> list[TimelineRow]:
        return [r for r in self.rows if r.superstep == superstep]

    def rows_of_worker(self, worker: int) -> list[TimelineRow]:
        return [r for r in self.rows if r.worker == worker]

    def matrix(self, field_name: str) -> np.ndarray:
        """(steps x workers) matrix of one row field/property.

        Rows are zero-padded on the right when worker counts differ across
        supersteps (elastic runs); step order follows the recorded order.
        """
        if not self.steps:
            return np.zeros((0, 0))
        width = self.num_workers
        out = np.zeros((len(self.steps), width))
        index = {s.superstep: i for i, s in enumerate(self.steps)}
        for r in self.rows:
            out[index[r.superstep], r.worker] = getattr(r, field_name)
        return out

    def per_worker_total(self, field_name: str) -> np.ndarray:
        """Sum of one row field/property per worker id."""
        out = np.zeros(self.num_workers)
        for r in self.rows:
            out[r.worker] += getattr(r, field_name)
        return out

    # ------------------------------------------------------------------
    # Serialization (deterministic: fixed key order, raw fields only)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return timeline_to_dict(self)

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1))


def timeline_to_dict(timeline: RunTimeline) -> dict:
    """Plain-data representation (JSON-serializable, deterministic order)."""
    return {
        "version": TIMELINE_FORMAT_VERSION,
        "steps": [
            {f: getattr(s, f) for f in _STEP_FIELDS} for s in timeline.steps
        ],
        "rows": [
            {f: getattr(r, f) for f in _ROW_FIELDS} for r in timeline.rows
        ],
        "events": list(timeline.events),
    }


def timeline_from_dict(data: dict) -> RunTimeline:
    """Inverse of :func:`timeline_to_dict`."""
    version = data.get("version")
    if version != TIMELINE_FORMAT_VERSION:
        raise ValueError(f"unsupported timeline version {version!r}")
    if "rows" not in data or "steps" not in data:
        raise ValueError(
            "not a timeline dump: missing 'rows'/'steps' "
            "(is this a trace or spans file?)"
        )
    tl = RunTimeline()
    tl.steps = [
        StepMeta(**{f: s[f] for f in _STEP_FIELDS if f in s})
        for s in data["steps"]
    ]
    tl.rows = [
        TimelineRow(**{f: r[f] for f in _ROW_FIELDS if f in r})
        for r in data["rows"]
    ]
    tl.events = [dict(e) for e in data.get("events", ())]
    return tl


def read_timeline(path: str | Path) -> RunTimeline:
    return timeline_from_dict(json.loads(Path(path).read_text()))

"""The run file: a run's per-superstep rows and its annotations, as JSON.

The paper's core analyses (§V-§VII, Figs. 9-14) are per-superstep,
per-worker tables.  The engines account every one of those quantities in
the :class:`~repro.bsp.superstep.SuperstepStats` (one
:class:`~repro.bsp.superstep.WorkerStepStats` row per worker) they append
to the run's :class:`~repro.bsp.superstep.JobTrace`.  A
:class:`RunTimeline` attached to the job (``JobSpec(timeline=...)``, or
``repro run --trace-out``) collects every step as it closes — those very
objects, no copy — plus free-form :meth:`RunTimeline.annotate` events
(swath initiations, elastic resizes, repartitions).  :func:`write_json`
persists it as the one run file that ``repro trace summarize|report|diff``
read.  The rows carry only deterministic simulated quantities (no host
clocks), so a run file is byte-identical across the sim, process, tcp and
dense-ref engines on the same seed (CI compares them).

A recovery replays supersteps, so a file can hold an index more than
once.  :func:`committed` derives the steps the run kept: a row is
committed unless a later row has an index <= its own.  Critical path,
straggler flags and report cost read that view; the totals of ``trace
summarize`` read every row, as ``JobResult.cost`` prices them.  A
superstep aborted by a worker death closes no row; an
``aborted-superstep`` event records it, so :func:`rolled_back_rows`
counts from the file alone.

Format history: version 2 added ``disk_time`` and ``jitter_factor`` to
worker rows and ``injected`` to step rows; version 3 added ``queue_depth``
(messages buffered for the next superstep, measured at the barrier) to
worker rows; version 4 added ``extra_vm_seconds`` (worker VM-seconds a
step bills beyond ``num_workers x elapsed``: a scale-out's booting VMs)
to step rows.  :func:`trace_from_dict` still reads version-1 to -3
files; the missing fields take their dataclass defaults (no disk I/O, no
jitter, no injections, empty queues, no extra VM-seconds), so an old
trace prices as it did.  A file without ``"events"`` reads with none.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..bsp.superstep import JobTrace, SuperstepStats, WorkerStepStats

__all__ = [
    "ABORTED_SUPERSTEP",
    "TRACE_FORMAT_VERSION",
    "RunTimeline",
    "committed",
    "rolled_back_rows",
    "trace_to_dict",
    "trace_from_dict",
    "write_json",
    "read_json",
]

TRACE_FORMAT_VERSION = 4

#: the event kind the process and tcp engines annotate when a worker dies
#: mid-superstep, the attempt leaving no row (see :func:`rolled_back_rows`)
ABORTED_SUPERSTEP = "aborted-superstep"

_WORKER_FIELDS = [
    "worker",
    "compute_calls",
    "msgs_in",
    "msgs_out_local",
    "msgs_out_remote",
    "bytes_out",
    "bytes_in",
    "peers_out",
    "peers_in",
    "queue_depth",
    "compute_time",
    "serialize_time",
    "network_time",
    "disk_time",
    "memory_bytes",
    "mem_slowdown",
    "jitter_factor",
    "restarted",
]

_STEP_FIELDS = [
    "index",
    "num_workers",
    "active_begin",
    "active_end",
    "injected",
    "barrier_time",
    "restart_time",
    "elapsed",
    "extra_vm_seconds",
    "sim_time_end",
]


@dataclass
class RunTimeline(JobTrace):
    """Every closed step of one run and its control-plane events.

    Attach through the job spec (``JobSpec(timeline=...)`` or
    ``RunConfig(timeline=...)``); the engine appends each step once every
    cost charged to it has landed.  A recovery keeps the lost epoch's
    rows (:func:`committed` drops them) and calls :meth:`rollback`,
    which discards that epoch's annotations.
    """

    #: free-form annotations: {"superstep", "kind", ...attrs}
    events: list[dict[str, Any]] = field(default_factory=list)

    def annotate(self, superstep: int, kind: str, **attrs: Any) -> None:
        """Attach a control-plane event (swath start, policy decision...)."""
        self.events.append({"superstep": int(superstep), "kind": kind, **attrs})

    def rollback(self, resume_from: int) -> None:
        """Discard the events of supersteps >= ``resume_from``; the replayed
        supersteps annotate again.  An ``aborted-superstep`` event stays:
        it marks rows that stay in the file."""
        self.events = [
            e for e in self.events
            if e["superstep"] < resume_from
            or e["kind"] == ABORTED_SUPERSTEP
        ]


def committed(trace: JobTrace) -> JobTrace:
    """The steps a run kept: each row no later row's index undercuts.

    A recovery resumes at a checkpoint index at or below the failing step,
    so every row recorded since that index (the failing one included) is
    superseded by its replay.
    """
    kept, low = [], math.inf
    for s in reversed(trace.steps):
        if s.index < low:
            kept.append(s)
            low = s.index
    return JobTrace(kept[::-1])


def rolled_back_rows(trace: JobTrace) -> int:
    """Worker rows a recovery discarded after they had committed.

    These are the rows outside :func:`committed` less each failing step's
    own — the row right before the index falls back, which recovery
    replaces before it ever counts as kept.  A worker death mid-superstep
    leaves no row for the aborted attempt: its ``aborted-superstep``
    event's ``rows_before`` (the rows closed before it) marks the row
    before that fall-back as a kept one.
    """
    kept = {id(s) for s in committed(trace)}
    aborted = {
        e["rows_before"] for e in getattr(trace, "events", ())
        if e["kind"] == ABORTED_SUPERSTEP
    }
    steps = trace.steps
    return sum(
        len(s.workers) for i, (s, nxt) in enumerate(zip(steps, steps[1:]))
        if id(s) not in kept and (nxt.index > s.index or i + 1 in aborted)
    )


def trace_to_dict(trace: JobTrace) -> dict:
    """Plain-data representation of a trace (JSON-serializable)."""
    return {
        "version": TRACE_FORMAT_VERSION,
        "steps": [
            {
                **{f: getattr(s, f) for f in _STEP_FIELDS},
                "workers": [
                    {f: getattr(w, f) for f in _WORKER_FIELDS} for w in s.workers
                ],
            }
            for s in trace
        ],
        "events": list(getattr(trace, "events", ())),
    }


def trace_from_dict(data: dict) -> RunTimeline:
    """Inverse of :func:`trace_to_dict`; reads format versions 1 to 4."""
    version = data.get("version")
    if version not in (1, 2, 3, TRACE_FORMAT_VERSION):
        raise ValueError(f"unsupported trace version {version!r}")
    if "steps" not in data:
        raise ValueError("not a trace dump: no 'steps' key (is this a spans file?)")
    if "rows" in data:
        raise ValueError("retired timeline row format (top-level 'rows')")
    trace = RunTimeline(events=[dict(e) for e in data.get("events", ())])
    try:
        for sd in data["steps"]:
            stats = SuperstepStats(
                **{f: sd[f] for f in _STEP_FIELDS if f in sd},
            )
            for wd in sd["workers"]:
                stats.workers.append(
                    WorkerStepStats(**{f: wd[f] for f in _WORKER_FIELDS if f in wd})
                )
            trace.append(stats)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed trace dump: {exc!r}") from exc
    return trace


def write_json(trace: JobTrace, path: str | Path) -> None:
    Path(path).write_text(json.dumps(trace_to_dict(trace), indent=1))


def read_json(path: str | Path) -> RunTimeline:
    return trace_from_dict(json.loads(Path(path).read_text()))

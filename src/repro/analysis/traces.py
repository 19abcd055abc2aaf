"""Trace export: persist per-superstep statistics for external analysis.

The paper's figures are all per-superstep series; this module serializes a
:class:`~repro.bsp.superstep.JobTrace` to JSON or CSV so traces can be
archived next to bench output, plotted with any tool, or diffed across
cost-model revisions.  JSON round-trips losslessly (tests assert it,
including disk-buffered and jittered runs).

Format history: version 2 added ``disk_time`` and ``jitter_factor`` to
worker rows and ``injected`` to step rows; version 3 added ``queue_depth``
(messages buffered for the next superstep, measured at the barrier) to
worker rows; version 4 added ``extra_vm_seconds`` (worker VM-seconds a
step bills beyond ``num_workers x elapsed``: a scale-out's booting VMs)
to step rows.  :func:`trace_from_dict` still reads version-1 to -3
files; the missing fields take their dataclass defaults (no disk I/O, no
jitter, no injections, empty queues, no extra VM-seconds), so an old
trace prices as it did.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from ..bsp.superstep import JobTrace, SuperstepStats, WorkerStepStats

__all__ = [
    "TRACE_FORMAT_VERSION",
    "trace_to_dict",
    "trace_from_dict",
    "write_json",
    "read_json",
    "write_csv",
    "to_csv_text",
]

TRACE_FORMAT_VERSION = 4

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
    }


def trace_from_dict(data: dict) -> JobTrace:
    """Inverse of :func:`trace_to_dict`; reads format versions 1 to 4."""
    version = data.get("version")
    if version not in (1, 2, 3, TRACE_FORMAT_VERSION):
        raise ValueError(f"unsupported trace version {version!r}")
    if "steps" not in data:
        raise ValueError("not a trace dump: no 'steps' key (is this a spans file?)")
    trace = JobTrace()
    for sd in data["steps"]:
        stats = SuperstepStats(
            **{f: sd[f] for f in _STEP_FIELDS if f in sd},
        )
        for wd in sd["workers"]:
            stats.workers.append(
                WorkerStepStats(**{f: wd[f] for f in _WORKER_FIELDS if f in wd})
            )
        trace.append(stats)
    return trace


def write_json(trace: JobTrace, path: str | Path) -> None:
    Path(path).write_text(json.dumps(trace_to_dict(trace), indent=1))


def read_json(path: str | Path) -> JobTrace:
    return trace_from_dict(json.loads(Path(path).read_text()))


def write_csv(trace: JobTrace, path: str | Path) -> None:
    """Flat per-(superstep, worker) rows — convenient for spreadsheets/plots.

    Superstep-level fields repeat on each of its worker rows.
    """
    Path(path).write_text(to_csv_text(trace))


def to_csv_text(trace: JobTrace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_STEP_FIELDS + _WORKER_FIELDS)
    for s in trace:
        step_part = [getattr(s, f) for f in _STEP_FIELDS]
        if not s.workers:
            writer.writerow(step_part + [""] * len(_WORKER_FIELDS))
        for w in s.workers:
            writer.writerow(step_part + [getattr(w, f) for f in _WORKER_FIELDS])
    return buf.getvalue()

"""Crash postmortem bundles: capture on abnormal end, render as a report.

When a run dies — a worker SIGKILLed past its respawn budget, an uncaught
``compute()`` exception, a :class:`~repro.dist.engine.ProgramSafetyError`,
a ``KeyboardInterrupt`` — the engines dump one self-contained JSON bundle
(conventional suffix ``.postmortem``) holding everything a person needs to
reconstruct the incident without re-running:

* the **flight recorder** contents (:mod:`repro.obs.flight`) — the last N
  structured events per worker, including heartbeat misses and kills;
* the per-superstep rows recorded up to the failure, with the
  :class:`~repro.obs.RunTimeline`'s annotations, in the run-file format
  (:mod:`repro.analysis.traces`);
* a **metrics snapshot** of the registry at death;
* the **last-committed-superstep marker** plus the checkpoint the next
  attempt would resume from;
* an **environment/config manifest** (python, platform, program, graph,
  fleet, cost model) so the bundle is interpretable months later.

The engine never imports this module: ``JobSpec(postmortem=...)`` carries
a duck-typed writer (anything with ``dump(engine, error)``), following the
same sink pattern as the tracer/metrics/timeline slots.
:class:`PostmortemWriter` is the standard implementation; ``repro
postmortem <bundle>`` renders :func:`render_incident_report` — suspect
worker (via the flight log's ``worker-lost`` events and
:mod:`repro.obs.diagnose` cause attribution), progress markers, the
critical-path-so-far breakdown, and each worker's final events.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import sys
import time
import traceback as tb_mod
from pathlib import Path
from typing import Any, Mapping

from ..analysis.tables import table
from ..analysis.traces import committed, trace_from_dict, trace_to_dict
from .diagnose import (
    DiagnosticMonitor,
    attribute_run,
    critical_path,
    dominant_cause,
)
from .export import to_json_dict
from .flight import FlightEvent

__all__ = [
    "POSTMORTEM_FORMAT_VERSION",
    "BUNDLE_SUFFIX",
    "PostmortemWriter",
    "build_bundle",
    "write_postmortem",
    "load_postmortem",
    "render_incident_report",
]

POSTMORTEM_FORMAT_VERSION = 1
BUNDLE_SUFFIX = ".postmortem"


def _plain(obj: Any) -> Any:
    """Best-effort JSON-safe rendering of config objects."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        try:
            return {
                f.name: _plain(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            }
        except Exception:
            return repr(obj)
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    if isinstance(obj, Mapping):
        return {str(k): _plain(v) for k, v in obj.items()}
    return repr(obj)


def _host() -> dict:
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "argv": list(sys.argv),
    }


def _manifest(engine: Any) -> dict:
    job = engine.job
    graph = engine.graph
    return {
        **_host(),
        "engine": type(engine).__name__,
        "program": type(job.program).__name__,
        "graph": {
            "vertices": int(graph.num_vertices),
            "edges": int(graph.num_edges),
        },
        "num_workers": int(engine.num_workers),
        "checkpoint_interval": int(job.checkpoint_interval),
        "max_supersteps": int(job.max_supersteps),
        "vm_spec": _plain(job.vm_spec),
        "perf_model": _plain(job.perf_model),
    }


def _observer_flags(engine: Any) -> list[dict]:
    """Straggler flags from any DiagnosticMonitor riding the job."""
    for obs in getattr(engine, "_observers", ()):
        if isinstance(obs, DiagnosticMonitor):
            return [
                {
                    "superstep": f.superstep,
                    "worker": f.worker,
                    "ratio": f.ratio,
                    "cause": f.cause,
                    "detail": f.detail,
                }
                for f in obs.flags
            ]
    return []


def build_bundle(engine: Any, error: BaseException,
                 job: Mapping[str, Any] | None = None) -> dict:
    """Assemble the bundle dict from a (possibly broken) engine.

    Every section is collected defensively: a failure mid-superstep can
    leave sinks half-written, and a postmortem that crashes while being
    captured would mask the original error.  With no engine (a gate
    refused the job before one was built) the bundle is the ``reason`` and
    a manifest of ``job``, the summary the caller has: program, graph
    size, workers, requested engine.
    """
    bundle: dict[str, Any] = {
        "version": POSTMORTEM_FORMAT_VERSION,
        "created_unix": time.time(),
        "reason": {
            "type": type(error).__name__,
            "message": str(error),
            "traceback": "".join(
                tb_mod.format_exception(type(error), error, error.__traceback__)
            ),
        },
    }

    if engine is None:
        bundle["manifest"] = {**_host(), **_plain(dict(job or {}))}
        return bundle

    def section(name: str, build) -> None:
        try:
            bundle[name] = build()
        except Exception as exc:  # never mask the original failure
            bundle[name] = {"error": f"{type(exc).__name__}: {exc}"}

    section("manifest", lambda: _manifest(engine))

    def _progress():
        committed = list(engine.trace)
        return {
            "last_committed_superstep": (
                int(committed[-1].index) if committed else -1
            ),
            "supersteps_committed": len(committed),
            "current_superstep": int(engine.superstep),
            "checkpoint_superstep": (
                int(engine._checkpoint["superstep"])
                if getattr(engine, "_checkpoint", None) is not None
                else -1
            ),
            "sim_time": float(engine.sim_time),
            "recoveries": [
                _plain(r) for r in getattr(engine, "recoveries", ())
            ],
        }

    section("progress", _progress)
    section(
        "flight",
        lambda: engine.flight.to_dict() if engine.flight is not None else None,
    )
    section(
        "metrics",
        lambda: (
            to_json_dict(engine.metrics) if engine.metrics is not None else None
        ),
    )
    section("straggler_flags", lambda: _observer_flags(engine))

    def _cost():
        # Dollar attribution over whatever committed before the crash —
        # the abandoned allocation is exactly what a postmortem should
        # price.  Uses the engine's own VM flavors.
        from ..cloud.costmeter import attribute_cost

        if not len(engine.trace):
            return None
        return attribute_cost(
            engine.trace,
            worker_vm=engine.vm_spec,
            manager_vm=engine.job.manager_vm,
        ).to_dict()

    section("cost", _cost)

    def _trace():
        data = trace_to_dict(engine.trace)
        if engine.timeline is not None:
            data["events"] = list(engine.timeline.events)
        return data

    section("trace", _trace)
    return bundle


def write_postmortem(
    path: str | Path, engine: Any, error: BaseException,
    job: Mapping[str, Any] | None = None,
) -> Path:
    """Build and write a bundle; returns the path written."""
    path = Path(path)
    if path.suffix != BUNDLE_SUFFIX:
        path = path.with_suffix(path.suffix + BUNDLE_SUFFIX)
    bundle = build_bundle(engine, error, job)
    path.write_text(json.dumps(bundle, indent=1, default=repr))
    return path


class PostmortemWriter:
    """The duck-typed ``JobSpec.postmortem`` sink (see module docs).

    ``path`` is where the bundle lands (suffix ``.postmortem`` appended
    when missing); :attr:`written` holds the path after a dump.  ``dump``
    is idempotent per writer — the first failure wins, re-entrant dumps
    (an engine whose cleanup fails too) are ignored.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.written: Path | None = None

    def dump(self, engine: Any, error: BaseException,
             job: Mapping[str, Any] | None = None) -> Path | None:
        if self.written is not None:
            return self.written
        self.written = write_postmortem(self.path, engine, error, job)
        return self.written


def load_postmortem(path: str | Path) -> dict:
    """Read a bundle back; validates the format version."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or "reason" not in data:
        raise ValueError(f"{path}: not a postmortem bundle (no 'reason')")
    version = data.get("version")
    if version != POSTMORTEM_FORMAT_VERSION:
        raise ValueError(f"unsupported postmortem version {version!r}")
    return data


# ----------------------------------------------------------------------
# Incident report rendering (`repro postmortem <bundle>`)
# ----------------------------------------------------------------------
def _committed_rows(bundle: dict):
    """The committed steps of the bundle's ``"trace"`` section, or None
    when it is missing or unreadable."""
    data = bundle.get("trace")
    try:
        return committed(trace_from_dict(data)) if data else None
    except ValueError:
        return None


def _suspects(bundle: dict) -> list[str]:
    """Who is to blame, most direct evidence first."""
    lines: list[str] = []
    flight = bundle.get("flight") or {}
    events = [FlightEvent.from_dict(d) for d in flight.get("events", ())]
    for e in events:
        if e.kind == "worker-lost":
            reason = e.attrs.get("reason", "unknown cause")
            lines.append(
                f"worker {e.attrs.get('lost_worker', e.worker)} lost at "
                f"superstep {e.superstep} ({reason})"
            )
        elif e.kind == "heartbeat-miss":
            lines.append(
                f"worker {e.attrs.get('lost_worker', e.worker)} heartbeat "
                f"miss at superstep {e.superstep} "
                f"(age {e.attrs.get('age_seconds', '?')}s)"
            )
    rows = _committed_rows(bundle)
    if rows is not None:
        flags = attribute_run(rows)
        dom = dominant_cause(flags)
        if dom is not None:
            worst = max(flags, key=lambda f: f.ratio)
            lines.append(
                f"straggler attribution: dominant cause '{dom[0]}' "
                f"({dom[1]} flags); worst w{worst.worker} x{worst.ratio:.2f} "
                f"at s{worst.superstep} ({worst.detail})"
            )
    saved = bundle.get("straggler_flags") or []
    if saved and rows is None:
        worst = max(saved, key=lambda f: f["ratio"])
        lines.append(
            f"live monitor: {len(saved)} straggler flags, worst "
            f"w{worst['worker']} x{worst['ratio']:.2f} ({worst['cause']})"
        )
    return lines or ["no direct evidence recorded (flight log empty?)"]


def _event_line(e: FlightEvent) -> str:
    extra = ", ".join(
        f"{k}={v}" for k, v in e.attrs.items()
        if k not in ("worker_seq", "worker_host")
    )
    step = f"s{e.superstep}" if e.superstep >= 0 else "--"
    return (
        f"#{e.seq:<6d} {e.host:9.3f}s {step:>5} {e.kind}"
        + (f" [{extra}]" if extra else "")
    )


def render_incident_report(bundle: dict, last_events: int = 8) -> str:
    """Human-readable incident report of a loaded bundle."""
    reason = bundle.get("reason", {})
    manifest = bundle.get("manifest", {})
    progress = bundle.get("progress", {})
    sections: list[str] = []

    graph = manifest.get("graph", {})
    head = [
        ["failure", f"{reason.get('type')}: {reason.get('message', '')[:90]}"],
        ["engine", manifest.get("engine", "?")],
        ["program", manifest.get("program", "?")],
        ["graph",
         f"{graph.get('vertices', '?')} vertices / "
         f"{graph.get('edges', '?')} edges"],
        ["workers", manifest.get("num_workers", "?")],
        ["python / platform",
         f"{manifest.get('python', '?')} / {manifest.get('platform', '?')}"],
    ]
    sections.append(table(["field", "value"], head, title="incident"))

    if progress:  # none when a gate refused the job before it ran
        prog_rows = [
            ["last committed superstep",
             progress.get("last_committed_superstep")],
            ["supersteps committed", progress.get("supersteps_committed")],
            ["failing superstep", progress.get("current_superstep")],
            ["resume checkpoint", progress.get("checkpoint_superstep")],
            ["simulated time (s)", progress.get("sim_time")],
            ["recoveries before failure",
             len(progress.get("recoveries", []))],
        ]
        sections.append(table(["marker", "value"], prog_rows, title="progress"))

    sections.append(
        "suspects\n" + "\n".join(f"  - {s}" for s in _suspects(bundle))
    )

    steps = _committed_rows(bundle)
    if steps is not None:
        cp = critical_path(steps)
        if cp["total"] > 0:
            rows = [
                [k, cp[k], f"{cp[k] / cp['total']:.1%}"]
                for k in ("compute", "comm", "barrier", "overhead")
            ]
            rows.append(["total", cp["total"], "100.0%"])
            sections.append(
                table(
                    ["phase", "sim s", "share"], rows,
                    title="critical path so far "
                          f"(utilization {cp['utilization']:.1%})",
                )
            )

    flight = bundle.get("flight") or {}
    events = [FlightEvent.from_dict(d) for d in flight.get("events", ())]
    if events:
        by_worker: dict[int, list[FlightEvent]] = {}
        for e in events:
            by_worker.setdefault(e.worker, []).append(e)
        parts = []
        for w in sorted(by_worker):
            who = "coordinator" if w < 0 else f"worker {w}"
            tail = by_worker[w][-last_events:]
            parts.append(
                f"{who} (last {len(tail)} of {len(by_worker[w])} events):\n"
                + "\n".join(f"  {_event_line(e)}" for e in tail)
            )
        dropped = flight.get("dropped", 0)
        header = f"flight recorder ({len(events)} events"
        header += f", {dropped} dropped)" if dropped else ")"
        sections.append(header + "\n" + "\n".join(parts))

    tb = reason.get("traceback")
    if tb:
        sections.append("traceback\n" + tb.rstrip())
    return "\n\n".join(sections)

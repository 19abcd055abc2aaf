"""RunTimeline: the committed supersteps of one run, plus its annotations.

The paper's core analyses (§V-§VII, Figs. 9-14) are all per-superstep,
per-worker measurements — worker utilization under barrier skew, load
imbalance inside supersteps, message/memory phase behavior.  The engines
already account every one of those quantities in the
:class:`~repro.bsp.superstep.SuperstepStats` (one
:class:`~repro.bsp.superstep.WorkerStepStats` row per worker) they append
to the run's :class:`~repro.bsp.superstep.JobTrace`.  A timeline is a
``JobTrace`` of the *committed* ones among those very objects — no copy —
plus free-form :meth:`RunTimeline.annotate` events (swath initiations,
elastic resizes).

The rows carry only *deterministic simulated* quantities (no host
clocks), so a timeline is **byte-identical across execution backends** —
sim, process, tcp and dense-ref runs of the same job on the same seed
serialize to the same JSON (tests assert it).  A dump is the trace format
(:func:`repro.analysis.traces.trace_to_dict`) of the committed steps plus
an ``"events"`` key: one serializer, one version.

Recording is engine-driven through the telemetry spine:
``JobSpec(timeline=RunTimeline())``.  Failure recovery calls
:meth:`RunTimeline.rollback` so steps of a killed epoch are discarded with
the checkpoint — the final timeline of a failed-and-recovered run equals
that of an undisturbed run (tests assert this for the process engine's
real kill/respawn path too).

On top of it, :mod:`repro.obs.diagnose` runs straggler/skew attribution
and critical-path analysis, and ``repro perf`` renders and diffs saved
timelines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..analysis.traces import trace_from_dict, trace_to_dict
from ..bsp.superstep import JobTrace

__all__ = ["RunTimeline", "timeline_from_dict", "read_timeline"]


@dataclass
class RunTimeline(JobTrace):
    """The committed steps of one run and its control-plane events.

    Attach through the job spec (``JobSpec(timeline=...)`` or
    ``RunConfig(timeline=...)``); the engine calls
    :meth:`record_superstep` once per *committed* superstep — aborted
    epochs (worker death mid-superstep) never record, and scheduled
    failures roll their steps back via :meth:`rollback`.
    """

    #: free-form annotations: {"superstep", "kind", ...attrs}
    events: list[dict[str, Any]] = field(default_factory=list)
    #: worker rows discarded by failure rollbacks (diagnostic counter)
    rolled_back_rows: int = 0

    def record_superstep(self, stats) -> None:
        """Append a committed step: the engine's own ``SuperstepStats``."""
        self.steps.append(stats)

    def annotate(self, superstep: int, kind: str, **attrs: Any) -> None:
        """Attach a control-plane event (swath start, policy decision...)."""
        self.events.append({"superstep": int(superstep), "kind": kind, **attrs})

    def rollback(self, resume_from: int) -> None:
        """Discard everything recorded for supersteps >= ``resume_from``.

        Called by the engine's coordinated rollback so a killed epoch's
        steps vanish with the checkpoint; the replayed supersteps
        re-record.  Annotations made before the rolled-back range survive.
        """
        kept = [s for s in self.steps if s.index < resume_from]
        self.rolled_back_rows += sum(
            len(s.workers) for s in self.steps if s.index >= resume_from
        )
        self.steps = kept
        self.events = [e for e in self.events if e["superstep"] < resume_from]

    def to_dict(self) -> dict:
        """The trace dump of the committed steps plus ``"events"``."""
        return {**trace_to_dict(self), "events": list(self.events)}

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1))


def timeline_from_dict(data: dict) -> RunTimeline:
    """Inverse of :meth:`RunTimeline.to_dict`."""
    if "rows" in data:
        raise ValueError(
            "timeline dump in the retired row format (top-level 'rows'); "
            "re-record it with `repro run --timeline-out`"
        )
    return RunTimeline(
        steps=trace_from_dict(data).steps,
        events=[dict(e) for e in data.get("events", ())],
    )


def read_timeline(path: str | Path) -> RunTimeline:
    return timeline_from_dict(json.loads(Path(path).read_text()))

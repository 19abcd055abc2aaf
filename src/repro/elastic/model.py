"""Extrapolation model for elastic scaling (§VIII, Figs. 15-16).

The paper's methodology, reproduced exactly: run the same job (fixed swath
size and initiation interval, so the superstep sequence is identical) at
both fleet sizes, align the two traces superstep-by-superstep, then

* Fig. 15 — per-superstep speedup ``t_low / t_high`` against the active-
  vertex profile (superlinear spikes at activity peaks, speed-*down* in the
  tail);
* Fig. 16 — for each scaling policy, total time = sum over supersteps of
  the measured time at the chosen size, and cost = sum of
  ``chosen_workers x chosen_time`` VM-seconds — the paper's "pro-rata
  normalized cost per VM-second".

With no ``perf_model`` (the default) nothing is charged for a fleet
change, as in the paper ("these projections do not yet consider the
overheads of scaling").  With one, every change is priced by the
:class:`~repro.cloud.provisioner.ElasticProvisioner` a live
:class:`~repro.elastic.live.ElasticResizer` run uses, which quantifies how
much of the projected win survives realistic scaling costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bsp.superstep import JobTrace
from ..cloud.costmodel import PerfModel
from ..cloud.provisioner import ElasticProvisioner
from ..cloud.specs import LARGE_VM, VMSpec
from .policies import ScalingContext, ScalingPolicy

__all__ = ["AlignedTraces", "ElasticOutcome", "ElasticityModel"]


@dataclass(frozen=True)
class AlignedTraces:
    """Per-superstep series from the low- and high-fleet runs."""

    low: int
    high: int
    time_low: np.ndarray
    time_high: np.ndarray
    active: np.ndarray
    num_graph_vertices: int

    def __post_init__(self) -> None:
        if not (len(self.time_low) == len(self.time_high) == len(self.active)):
            raise ValueError("aligned series must have equal length")
        if self.low >= self.high:
            raise ValueError("low fleet size must be < high fleet size")

    @property
    def num_steps(self) -> int:
        return len(self.time_low)

    @classmethod
    def from_traces(
        cls,
        trace_low: JobTrace,
        trace_high: JobTrace,
        low: int,
        high: int,
        num_graph_vertices: int,
    ) -> "AlignedTraces":
        """Align two runs of the same superstep sequence.

        The engine is deterministic, so with fixed swath parameters the two
        runs have the same superstep count ("the number of workers does not
        impact the number of supersteps"); a mismatch signals misuse and
        raises rather than silently truncating.
        """
        if len(trace_low) != len(trace_high):
            raise ValueError(
                f"trace lengths differ ({len(trace_low)} vs {len(trace_high)}): "
                "elastic extrapolation needs identical superstep sequences"
            )
        return cls(
            low=low,
            high=high,
            time_low=trace_low.series_elapsed(),
            time_high=trace_high.series_elapsed(),
            active=trace_low.series_active_vertices(),
            num_graph_vertices=num_graph_vertices,
        )


@dataclass
class ElasticOutcome:
    """A policy's projected run: per-step choices, total time and cost."""

    policy_label: str
    workers: np.ndarray
    step_times: np.ndarray
    scaling_overhead: float
    overhead_vm_seconds: float  # billed during the scaling overheads
    vm_spec: VMSpec

    @property
    def total_time(self) -> float:
        return float(self.step_times.sum() + self.scaling_overhead)

    @property
    def vm_seconds(self) -> float:
        return float((self.workers * self.step_times).sum()) + self.overhead_vm_seconds

    @property
    def cost(self) -> float:
        return self.vm_seconds * self.vm_spec.price_per_second

    @property
    def num_scale_events(self) -> int:
        return int(np.count_nonzero(np.diff(self.workers)))


@dataclass
class ElasticityModel:
    """Evaluates scaling policies over a pair of aligned traces; a
    ``perf_model`` prices each fleet change (None: free, as the paper)."""

    traces: AlignedTraces
    vm_spec: VMSpec = LARGE_VM
    perf_model: PerfModel | None = None

    # ------------------------------------------------------------------
    def speedup_series(self) -> np.ndarray:
        """Fig. 15 bottom: per-superstep speedup of high vs low fleet."""
        with np.errstate(divide="ignore", invalid="ignore"):
            s = self.traces.time_low / self.traces.time_high
        return np.nan_to_num(s, nan=1.0, posinf=1.0)

    def active_series(self) -> np.ndarray:
        """Fig. 15 top: active vertices per superstep."""
        return self.traces.active

    # ------------------------------------------------------------------
    def evaluate(self, policy: ScalingPolicy) -> ElasticOutcome:
        """Project total runtime and cost for one policy.  Before the
        first step the context's fleet is ``low``; the first choice is free."""
        t = self.traces
        max_active = int(t.active.max()) if t.num_steps else 0
        chosen: list[int] = []
        changed_at: int | None = None
        for i in range(t.num_steps):
            w = policy.choose(ScalingContext(
                step=i, active_vertices=int(t.active[i]), max_active=max_active,
                num_graph_vertices=t.num_graph_vertices, low=t.low, high=t.high,
                workers=chosen[-1] if chosen else t.low,
                steps_since_change=None if changed_at is None else i - changed_at,
                time_low=float(t.time_low[i]), time_high=float(t.time_high[i]),
            ))
            if w not in (t.low, t.high):
                raise ValueError(f"policy chose unmeasured fleet size {w}")
            if chosen and w != chosen[-1]:
                changed_at = i
            chosen.append(w)
        workers = np.array(chosen, dtype=np.int64)

        overhead = overhead_vm_s = 0.0
        if self.perf_model is not None and chosen:
            prov = ElasticProvisioner(self.perf_model, workers=chosen[0])
            for i, w in enumerate(chosen):
                prov.scale_to(w, superstep=i)
            # The stall bills the old fleet plus the VMs a scale-out boots.
            for e in prov.events:
                overhead += e.overhead_seconds
                overhead_vm_s += (
                    e.old_workers * e.overhead_seconds + e.extra_vm_seconds)
        return ElasticOutcome(
            policy_label=policy.label,
            workers=workers,
            step_times=np.where(workers == t.low, t.time_low, t.time_high),
            scaling_overhead=overhead,
            overhead_vm_seconds=overhead_vm_s,
            vm_spec=self.vm_spec,
        )

    def evaluate_all(self, policies) -> list[ElasticOutcome]:
        return [self.evaluate(p) for p in policies]

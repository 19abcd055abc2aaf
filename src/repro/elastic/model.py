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

``include_scaling_overheads=False`` matches the paper ("these projections do
not yet consider the overheads of scaling"); setting it True additionally
charges provisioning/drain delays per fleet change, quantifying how much of
the projected win survives realistic scaling costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bsp.superstep import JobTrace
from ..cloud.costmodel import DEFAULT_PERF_MODEL, PerfModel
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
    vm_spec: VMSpec

    @property
    def total_time(self) -> float:
        return float(self.step_times.sum() + self.scaling_overhead)

    @property
    def vm_seconds(self) -> float:
        # During scaling overhead the larger fleet of each transition bills.
        return float((self.workers * self.step_times).sum()) + self._overhead_vm_s

    _overhead_vm_s: float = 0.0

    @property
    def cost(self) -> float:
        return self.vm_seconds * self.vm_spec.price_per_second

    @property
    def num_scale_events(self) -> int:
        return int(np.count_nonzero(np.diff(self.workers)))


@dataclass
class ElasticityModel:
    """Evaluates scaling policies over a pair of aligned traces."""

    traces: AlignedTraces
    vm_spec: VMSpec = LARGE_VM
    perf_model: PerfModel = DEFAULT_PERF_MODEL
    include_scaling_overheads: bool = False

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
    def _context(self, i: int, max_active: int) -> ScalingContext:
        t = self.traces
        return ScalingContext(
            step=i,
            active_vertices=int(t.active[i]),
            max_active=max_active,
            num_graph_vertices=t.num_graph_vertices,
            time_low=float(t.time_low[i]),
            time_high=float(t.time_high[i]),
            low=t.low,
            high=t.high,
        )

    def evaluate(self, policy: ScalingPolicy) -> ElasticOutcome:
        """Project total runtime and cost for one policy."""
        t = self.traces
        n = t.num_steps
        max_active = int(t.active.max()) if n else 0
        workers = np.zeros(n, dtype=np.int64)
        times = np.zeros(n)
        for i in range(n):
            w = policy.choose(self._context(i, max_active))
            if w not in (t.low, t.high):
                raise ValueError(f"policy chose unmeasured fleet size {w}")
            workers[i] = w
            times[i] = t.time_low[i] if w == t.low else t.time_high[i]

        overhead = 0.0
        overhead_vm_s = 0.0
        if self.include_scaling_overheads and n:
            m = self.perf_model
            for i in range(1, n):
                if workers[i] > workers[i - 1]:
                    overhead += m.provision_delay
                    overhead_vm_s += m.provision_delay * workers[i]
                elif workers[i] < workers[i - 1]:
                    overhead += m.release_delay
                    overhead_vm_s += m.release_delay * workers[i - 1]
        out = ElasticOutcome(
            policy_label=policy.label,
            workers=workers,
            step_times=times,
            scaling_overhead=overhead,
            vm_spec=self.vm_spec,
        )
        out._overhead_vm_s = overhead_vm_s
        return out

    def evaluate_all(self, policies) -> list[ElasticOutcome]:
        return [self.evaluate(p) for p in policies]

"""Job specification and result types for the BSP engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from ..cloud.costmodel import DEFAULT_PERF_MODEL, PerfModel
from ..cloud.specs import LARGE_VM, SMALL_VM, VMSpec
from ..graph.csr import CSRGraph
from ..partition.base import Partition, Partitioner
from ..partition.hashing import HashPartitioner
from .api import VertexProgram
from .superstep import JobTrace

__all__ = ["JobSpec", "JobResult", "RecoveryEvent"]


@dataclass
class JobSpec:
    """Everything needed to run one BSP job on the simulated cloud.

    Mirrors the paper's job-submission request (§III): the graph
    application, the graph, the number of partition workers, and the
    partitioning scheme; plus the simulation's VM flavor and cost model.

    ``initially_active`` follows Pregel's convention (all vertices active in
    superstep 0) by default; message-driven programs (BC, APSP under swath
    scheduling) pass ``False`` and wake vertices with ``initial_messages`` or
    observer injections instead.
    """

    program: VertexProgram
    graph: CSRGraph
    num_workers: int
    partitioner: Partitioner = field(default_factory=HashPartitioner)
    partition: Partition | None = None
    vm_spec: VMSpec = LARGE_VM
    manager_vm: VMSpec = SMALL_VM
    perf_model: PerfModel = DEFAULT_PERF_MODEL
    initially_active: bool | Iterable[int] = True
    initial_messages: Sequence[tuple[int, Any]] = ()
    max_supersteps: int = 10_000
    checkpoint_interval: int = 0
    failure_schedule: dict[int, int] = field(default_factory=dict)
    observers: Sequence[Any] = ()
    #: optional :class:`repro.obs.SpanTracer` recording engine phase spans
    tracer: Any = None
    #: optional :class:`repro.obs.MetricsRegistry` the engine reports into
    metrics: Any = None
    #: optional :class:`repro.obs.RunTimeline` recording one attribution row
    #: per superstep x worker (committed supersteps only)
    timeline: Any = None
    #: optional :class:`repro.obs.FlightRecorder` — the always-on bounded
    #: ring of structured events the live endpoint tails and postmortem
    #: bundles capture
    flight: Any = None
    #: optional postmortem sink (duck-typed: ``dump(engine, error)``,
    #: e.g. :class:`repro.obs.PostmortemWriter`) invoked by the engine on
    #: any abnormal end before the exception propagates
    postmortem: Any = None

    def __post_init__(self) -> None:
        if self.num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if self.max_supersteps <= 0:
            raise ValueError("max_supersteps must be positive")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0")
        if self.failure_schedule and self.checkpoint_interval == 0:
            raise ValueError(
                "failure injection requires checkpointing "
                "(set checkpoint_interval > 0)"
            )
        if self.partition is not None:
            if self.partition.num_parts != self.num_workers:
                raise ValueError(
                    "explicit partition's num_parts must equal num_workers"
                )
            if self.partition.num_vertices != self.graph.num_vertices:
                raise ValueError("partition does not cover the graph")

    def resolve_partition(self) -> Partition:
        if self.partition is not None:
            return self.partition
        return self.partitioner.partition(self.graph, self.num_workers)

    def initial_active_ids(self) -> np.ndarray | None:
        """None = all active; else the explicit array of active ids."""
        if self.initially_active is True:
            return None
        if self.initially_active is False:
            return np.empty(0, dtype=np.int64)
        return np.asarray(sorted(int(v) for v in self.initially_active))


@dataclass(frozen=True)
class RecoveryEvent:
    """One injected worker failure and the rollback that handled it."""

    failed_superstep: int
    failed_worker: int
    resumed_from: int
    recovery_seconds: float


@dataclass
class JobResult:
    """Outcome of a BSP job run."""

    values: dict[int, Any]
    trace: JobTrace
    supersteps: int
    halted: bool
    aggregates: dict[str, Any] = field(default_factory=dict)
    recoveries: list[RecoveryEvent] = field(default_factory=list)
    #: static :class:`~repro.check.costmodel.ProgramProfile` of the program,
    #: when the runner auto-profiled it (None otherwise)
    profile: Any = None
    #: static :class:`~repro.check.vectorize.KernelPlan` the program lifted
    #: to, when the runner auto-attached one (None when refused / disabled)
    kernel_plan: Any = None
    #: :class:`~repro.analysis.engine_select.EngineDecision` recorded when
    #: the job ran under ``--engine auto`` (None for explicit engines)
    engine_decision: Any = None
    #: :class:`~repro.cloud.costmeter.CostReport` with per-superstep and
    #: per-worker dollar attribution (set by the engine at job end)
    cost: Any = None

    @property
    def total_time(self) -> float:
        """Simulated wall-clock seconds."""
        return self.trace.total_time

    @property
    def total_cost(self) -> float:
        """Simulated instance dollars (workers + manager, pro-rata; no
        egress), the instance part of :attr:`cost`."""
        return self.cost.compute + self.cost.manager

    def values_array(self, dtype=float) -> np.ndarray:
        """Dense result vector indexed by vertex id (for numeric programs)."""
        n = max(self.values) + 1 if self.values else 0
        out = np.zeros(n, dtype=dtype)
        for v, val in self.values.items():
            out[v] = val
        return out

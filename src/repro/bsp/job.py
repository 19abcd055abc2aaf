"""Job specification and result types for the BSP engine."""

from __future__ import annotations

import operator
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..cloud.costmodel import DEFAULT_PERF_MODEL, PerfModel
from ..cloud.specs import LARGE_VM, SMALL_VM, VMSpec
from ..graph.csr import CSRGraph
from ..partition.base import Partition, Partitioner
from ..partition.hashing import HashPartitioner
from .api import VertexProgram
from .superstep import JobTrace

__all__ = ["JobSpec", "JobResult", "RecoveryEvent", "VertexValues",
           "extract_columns"]


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


class VertexValues(Mapping):
    """A job's result, read-only: vertex id -> value, held as an id column
    (``ids``) and a value column (``array``, numeric or objects), worker by
    worker.  ``values[v]`` is ``array.item(i)``, the Python scalar or object
    ``tolist()`` gives, found by an index built on the first lookup."""

    def __init__(self, ids: np.ndarray, array: np.ndarray) -> None:
        self.ids, self.array, self._pos = ids, array, None

    @classmethod
    def concat(cls, columns: Iterable[tuple]) -> VertexValues:
        """One mapping from per-worker ``(ids, values)`` columns, in order."""
        ids, vals = zip(*columns)
        return cls(np.concatenate(ids), np.concatenate(vals))

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids.tolist())

    def __getitem__(self, v: Any) -> Any:
        if self._pos is None:
            self._pos = np.full(int(self.ids.max(initial=-1)) + 1, -1, np.intp)
            self._pos[self.ids] = np.arange(len(self.ids))
        try:
            i = self._pos[operator.index(v)] if v >= 0 else -1
        except (TypeError, IndexError):
            i = -1
        if i < 0:
            raise KeyError(v)
        return self.array.item(i)

    def __eq__(self, other: Any) -> bool:
        """``Mapping`` equality; between two results, over the columns.

        Both id columns are sorted and matched, then the values compared
        per id: as arrays when both are numbers of one kind, else item by
        item with the dict rule ``a is b or a == b`` (so a float NaN is
        unequal to itself, as two dicts of ``tolist()`` values find)."""
        if not isinstance(other, VertexValues):
            return super().__eq__(other)
        mine, theirs = np.argsort(self.ids), np.argsort(other.ids)
        ids, other_ids = self.ids[mine], other.ids[theirs]
        if (ids[1:] == ids[:-1]).any() or (other_ids[1:] == other_ids[:-1]).any():
            return super().__eq__(other)  # repeated ids: Mapping's dict rule
        if not np.array_equal(ids, other_ids):
            return False
        a, b = self.array[mine], other.array[theirs]
        kinds = {a.dtype.kind, b.dtype.kind}
        if len(kinds) == 1 and kinds <= set("biuf"):
            return bool((a == b).all())
        return all(x is y or x == y for x, y in zip(a.tolist(), b.tolist()))

    def __repr__(self) -> str:
        return f"VertexValues({dict(self)!r})"


def extract_columns(worker: Any) -> tuple:
    """A worker's ``(ids, values)`` result columns: its final states,
    through its program's ``extract`` (into objects) when that is overridden."""
    ids, states = worker.columns()
    program = worker.program
    if type(program).extract is VertexProgram.extract:
        return ids, states
    out = map(program.extract, ids.tolist(), states.tolist())
    return ids, np.fromiter(out, dtype=object, count=len(ids))


@dataclass
class JobResult:
    """Outcome of a BSP job run; ``values`` is a read-only
    :class:`VertexValues` mapping over the id and value columns (``.ids``,
    ``.array``) concatenated from the workers'."""

    values: VertexValues
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
        ids = self.values.ids
        out = np.zeros(int(ids.max(initial=-1)) + 1, dtype=dtype)
        out[ids] = self.values.array
        return out

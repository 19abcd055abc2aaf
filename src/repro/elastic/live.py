"""Live elastic scaling — executing what §VIII only extrapolates.

The paper projects elastic-scaling benefits from statically-provisioned
runs ("these projections do not yet consider the overheads of scaling").
This module *implements* the mechanism: a :class:`LiveElasticEngine` that,
at each superstep boundary, consults a :class:`LivePolicy` and actually
resizes the worker fleet — repartitioning the graph, migrating vertex
state and buffered messages, and charging provisioning/drain/migration
time through the elastic provisioner.

Correctness is unaffected by construction (tests assert bit-equal results
with and without scaling): vertex state and undelivered messages move
wholesale; only *where* a vertex computes changes.

The default repartitioning strategy is hash-based per fleet size, matching
how Pregel.NET assigns partitions when workers join.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..bsp.engine import BSPEngine
from ..bsp.job import JobResult, JobSpec
from ..bsp.superstep import SuperstepStats
from ..bsp.worker import PartitionWorker
from ..cloud.provisioner import ElasticProvisioner
from ..partition.base import Partition
from ..partition.hashing import HashPartitioner

__all__ = [
    "LivePolicy",
    "LiveActiveFraction",
    "LiveFixed",
    "LiveSkewGuard",
    "LiveHealthGuard",
    "LiveFleetGuard",
    "LiveElasticEngine",
]


class LivePolicy:
    """Decides the fleet size for the *next* superstep from live stats."""

    def decide(self, engine: "LiveElasticEngine", stats: SuperstepStats) -> int:
        raise NotImplementedError

    @property
    def label(self) -> str:
        return type(self).__name__


@dataclass
class LiveFixed(LivePolicy):
    """Never scales (control case)."""

    workers: int

    def decide(self, engine, stats) -> int:
        return self.workers

    @property
    def label(self) -> str:
        return f"LiveFixed-{self.workers}"


@dataclass
class LiveActiveFraction(LivePolicy):
    """The paper's 50%-threshold heuristic, applied online.

    Scales to ``high`` workers when active vertices exceed ``threshold`` of
    the *peak seen so far* (an online stand-in for Fig. 15's peak), else to
    ``low``.  A short cool-down suppresses thrash around the threshold.
    """

    low: int = 4
    high: int = 8
    threshold: float = 0.5
    cooldown: int = 2
    _peak: int = field(default=0, repr=False)
    _last_change: int = field(default=-(10**9), repr=False)

    def decide(self, engine, stats) -> int:
        self._peak = max(self._peak, stats.active_end)
        if stats.index - self._last_change < self.cooldown:
            return engine.num_workers
        frac = stats.active_end / self._peak if self._peak else 0.0
        want = self.high if frac >= self.threshold else self.low
        if want != engine.num_workers:
            self._last_change = stats.index
        return want

    @property
    def label(self) -> str:
        return f"LiveDynamic({self.threshold:.0%}, {self.low}<->{self.high})"


@dataclass
class LiveSkewGuard(LivePolicy):
    """Wrap a policy; veto scale-*in* while the fleet is skewed.

    Consumes the straggler signal of a
    :class:`repro.obs.diagnose.DiagnosticMonitor` (duck-typed: anything
    with a ``skew_signal() -> float``).  Scaling in during a straggler
    episode concentrates the hot partition's load on fewer workers and
    lengthens the barrier-dominated tail the scale-in was meant to trim —
    so while ``skew_signal()`` exceeds ``threshold``, requests for a
    smaller fleet hold at the current size.  Scale-*out* always passes.
    """

    inner: LivePolicy
    monitor: "object"
    threshold: float = 1.5
    vetoes: int = field(default=0, repr=False)

    def decide(self, engine, stats) -> int:
        want = int(self.inner.decide(engine, stats))
        if want < engine.num_workers and (
            self.monitor.skew_signal() > self.threshold
        ):
            self.vetoes += 1
            return engine.num_workers
        return want

    @property
    def label(self) -> str:
        return f"SkewGuard({self.inner.label}, >{self.threshold:g})"


@dataclass
class LiveHealthGuard(LivePolicy):
    """Wrap a policy; veto *any* resize while run health is degraded.

    Consumes the same liveness truth the ``/healthz`` endpoint serves: a
    :class:`repro.obs.live.EngineHealth` (duck-typed: anything with a
    ``snapshot() -> dict`` carrying ``ok``/``workers_alive``/
    ``worker_liveness``).  Resizing while a worker is dead or the engine
    has stopped crossing barriers would migrate state onto (or off of) a
    fleet that is mid-recovery — so while the snapshot reports unhealthy,
    requests for a different size hold at the current one.  External
    scrapers and in-process policies thus act on one signal.
    """

    inner: LivePolicy
    health: "object"
    vetoes: int = field(default=0, repr=False)

    def decide(self, engine, stats) -> int:
        want = int(self.inner.decide(engine, stats))
        if want != engine.num_workers:
            snap = self.health.snapshot()
            alive = snap.get("workers_alive", snap.get("workers", 0))
            degraded = not snap.get("ok", True) or (
                snap.get("worker_liveness") and alive < snap.get("workers", 0)
            )
            if degraded:
                self.vetoes += 1
                return engine.num_workers
        return want

    @property
    def label(self) -> str:
        return f"HealthGuard({self.inner.label})"


@dataclass
class LiveFleetGuard(LivePolicy):
    """Wrap a policy; cap scale-*out* at a remote fleet's live capacity.

    Consumes a :class:`repro.net.WorkerFleet` (duck-typed: anything with
    a ``capacity() -> int``), which probes ``repro worker`` daemons and
    sums their advertised session slots.  On a real cluster a scale-out
    decision is only as good as the machines backing it — asking for 16
    workers when the reachable daemons can host 8 sessions would stall
    the resize (or land every extra worker on an overloaded host).  A
    request beyond capacity is *clamped* to it, never below the current
    size; scale-in always passes.  Capacity is probed only when the
    inner policy actually asks to grow, so steady state costs nothing.
    """

    inner: LivePolicy
    fleet: "object"
    vetoes: int = field(default=0, repr=False)

    def decide(self, engine, stats) -> int:
        want = int(self.inner.decide(engine, stats))
        if want > engine.num_workers:
            cap = int(self.fleet.capacity())
            if want > cap:
                self.vetoes += 1
                return max(engine.num_workers, cap)
        return want

    @property
    def label(self) -> str:
        return f"FleetGuard({self.inner.label})"


class LiveElasticEngine(BSPEngine):
    """A BSP engine whose fleet resizes at superstep boundaries.

    Parameters
    ----------
    job:
        Standard job spec; ``job.num_workers`` is the initial fleet.
        Failure injection cannot be combined with live scaling.
    policy:
        The :class:`LivePolicy` consulted after every superstep.
    partition_for:
        ``fleet size -> Partition`` factory (default: salted hash, stable
        per size so repeated visits to a size reuse the same layout).
    """

    def __init__(
        self,
        job: JobSpec,
        policy: LivePolicy,
        partition_for: Callable[[int], Partition] | None = None,
    ) -> None:
        if job.failure_schedule:
            raise ValueError(
                "live elastic scaling cannot be combined with failure injection"
            )
        super().__init__(job)
        self.policy = policy
        self._partition_for = partition_for or (
            lambda k: HashPartitioner().partition(job.graph, k)
        )
        self.provisioner = ElasticProvisioner(
            spec=job.vm_spec, model=job.perf_model, workers=job.num_workers,
            meter=self.meter,
        )
        self.scale_overhead_total = 0.0

    # ------------------------------------------------------------------
    def _post_superstep(self, stats: SuperstepStats) -> None:
        want = int(self.policy.decide(self, stats))
        if want <= 0:
            raise ValueError(f"policy requested invalid fleet size {want}")
        if want == self.num_workers:
            return
        tel = self.telemetry
        direction = "up" if want > self.num_workers else "down"
        resize = {"from_workers": self.num_workers, "to_workers": want}
        with tel.phase("elastic-resize", **resize) as closing:
            moved = closing["vertices_moved"] = self._resize_fleet(want)
            # Scaling stalls the job: everyone waits for boots, drains and
            # migration; the provisioner bills the resizing fleet itself.
            overhead = self.provisioner.scale_to(
                want, superstep=self.superstep, vertices_moved=moved
            )
            self._stall(
                stats, overhead, f"scale@{self.superstep}", fleet_billed=True
            )
        self.scale_overhead_total += overhead
        # The resize happens between supersteps; its overhead lands in the
        # *current* step's row (recorded right after this hook).
        tel.annotate(stats.index, "elastic-resize", **resize, vertices_moved=moved)
        tel.stall(
            "elastic-resize", overhead, vertices_moved=moved, direction=direction
        )

    def _resize_fleet(self, new_count: int) -> int:
        """Repartition and migrate vertex data; returns vertices moved."""
        old_partition = self.partition
        old_workers = self.workers
        new_partition = self._partition_for(new_count)
        if new_partition.num_parts != new_count:
            raise ValueError("partition_for returned wrong part count")
        if new_partition.num_vertices != self.graph.num_vertices:
            raise ValueError("partition_for does not cover the graph")

        new_workers = [
            PartitionWorker(
                worker_id=w,
                graph=self.graph,
                vertex_ids=new_partition.vertices_of(w),
                program=self.job.program,
                model=self.model,
                assignment=new_partition.assignment,
                initially_active=False,
            )
            for w in range(new_count)
        ]
        moved = int(
            np.count_nonzero(old_partition.assignment != new_partition.assignment)
        )
        for ow in old_workers:
            # Flush queued edge mutations into the overlay before export so
            # they migrate (they'd otherwise apply at the next superstep,
            # which happens on the new worker).
            ow._apply_mutations()
            for v in list(ow.states.keys()):
                state, halted, pending, overlay = ow.export_vertex(v)
                nw = new_workers[int(new_partition.assignment[v])]
                nw.import_vertex(v, state, halted, pending, overlay)

        self.partition = new_partition
        self.workers = new_workers
        self.num_workers = new_count
        return moved

    # ------------------------------------------------------------------
    @property
    def scale_events(self):
        return self.provisioner.events


def run_live(job: JobSpec, policy: LivePolicy, **kwargs) -> JobResult:
    """Convenience wrapper mirroring :func:`repro.bsp.engine.run_job`."""
    return LiveElasticEngine(job, policy, **kwargs).run()

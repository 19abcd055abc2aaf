"""Live elastic scaling — executing what §VIII only extrapolates.

The paper projects elastic-scaling benefits from statically-provisioned
runs ("these projections do not yet consider the overheads of scaling").
This module *implements* the mechanism: an :class:`ElasticResizer`
observer that, at each superstep boundary, asks the same
:class:`~repro.elastic.policies.ScalingPolicy` the projection uses for a
fleet size and actually resizes the worker fleet — repartitioning the
graph, moving vertex state and buffered messages with
:meth:`~repro.bsp.engine.BSPEngine.migrate`, and charging
provisioning/drain/migration time from the elastic provisioner to the
step's trace row.

Correctness is unaffected by construction (tests assert bit-equal results
with and without scaling): vertex state and undelivered messages move
wholesale; only *where* a vertex computes changes.

Each fleet size is hash-partitioned, matching how Pregel.NET assigns
partitions when workers join.
"""

from __future__ import annotations

from ..bsp.engine import BSPEngine, MigrationPolicy
from ..bsp.superstep import SuperstepStats
from ..cloud.provisioner import ElasticProvisioner
from ..partition.hashing import HashPartitioner
from .policies import ScalingContext, ScalingPolicy

__all__ = ["ElasticResizer"]


class ElasticResizer(MigrationPolicy):
    """Resizes the worker fleet between ``low`` and ``high`` at superstep
    boundaries, as ``policy`` chooses.

    Attach it to ``job.observers``; ``job.num_workers`` is the initial
    fleet.  Failure injection cannot be combined with live scaling.  The
    policy sees the activity of the step just run against the peak so far,
    the running fleet and the steps since the last resize; a live run has
    no measured times, so :class:`~repro.elastic.policies.OraclePolicy`
    is refused.
    """

    def __init__(self, policy: ScalingPolicy, low: int, high: int) -> None:
        if not 0 < low < high:
            raise ValueError("fleet sizes must satisfy 0 < low < high")
        self.policy = policy
        self.low = low
        self.high = high

    def on_job_start(self, engine: BSPEngine) -> None:
        self.provisioner = ElasticProvisioner(
            model=engine.model, workers=engine.num_workers
        )
        self._peak = 0
        self._resized_at: int | None = None  # first step of the current fleet

    def at_boundary(self, engine: BSPEngine, stats: SuperstepStats) -> None:
        self._peak = max(self._peak, stats.active_end)
        step = stats.index + 1
        want = self.policy.choose(ScalingContext(
            step=step, active_vertices=stats.active_end, max_active=self._peak,
            num_graph_vertices=engine.graph.num_vertices,
            low=self.low, high=self.high, workers=engine.num_workers,
            steps_since_change=(
                None if self._resized_at is None else step - self._resized_at),
        ))
        if want not in (self.low, self.high):
            raise ValueError(
                f"policy chose fleet size {want} outside ({self.low}, {self.high})")
        if want == engine.num_workers:
            return
        self._resized_at = step
        tel = engine.telemetry
        direction = "up" if want > engine.num_workers else "down"
        resize = {"from_workers": engine.num_workers, "to_workers": want}
        with tel.phase("elastic-resize", **resize) as closing:
            partition = HashPartitioner().partition(engine.graph, want)
            moved = closing["vertices_moved"] = engine.migrate(partition)
            # Scaling stalls the job: everyone waits for boots, drains and
            # migration, and the row bills the VMs booting beyond its fleet.
            overhead = self.provisioner.scale_to(
                want, superstep=engine.superstep, vertices_moved=moved
            )
            engine.stall(stats, overhead)
            stats.extra_vm_seconds += self.scale_events[-1].extra_vm_seconds
        # The resize happens between supersteps; its overhead lands in the
        # *current* step's row (recorded right after this hook).
        tel.annotate(stats.index, "elastic-resize", **resize, vertices_moved=moved)
        tel.stall(
            "elastic-resize", overhead, vertices_moved=moved, direction=direction
        )

    @property
    def scale_events(self):
        return self.provisioner.events

    @property
    def scale_overhead_total(self) -> float:
        return sum(e.overhead_seconds for e in self.provisioner.events)

"""Live elastic scaling — executing what §VIII only extrapolates.

The paper projects elastic-scaling benefits from statically-provisioned
runs ("these projections do not yet consider the overheads of scaling").
This module *implements* the mechanism: an :class:`ElasticResizer`
observer that, at each superstep boundary, consults a :class:`LivePolicy`
and actually resizes the worker fleet — repartitioning the graph, moving
vertex state and buffered messages with
:meth:`~repro.bsp.engine.BSPEngine.migrate`, and charging
provisioning/drain/migration time from the elastic provisioner to the
step's trace row.

Correctness is unaffected by construction (tests assert bit-equal results
with and without scaling): vertex state and undelivered messages move
wholesale; only *where* a vertex computes changes.

The default repartitioning strategy is hash-based per fleet size, matching
how Pregel.NET assigns partitions when workers join.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..bsp.engine import BSPEngine, MigrationPolicy
from ..bsp.superstep import SuperstepStats
from ..cloud.provisioner import ElasticProvisioner
from ..partition.base import Partition
from ..partition.hashing import HashPartitioner

__all__ = [
    "LivePolicy",
    "LiveActiveFraction",
    "LiveFixed",
    "ElasticResizer",
]


class LivePolicy:
    """Decides the fleet size for the *next* superstep from live stats."""

    def decide(self, engine: BSPEngine, stats: SuperstepStats) -> int:
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


class ElasticResizer(MigrationPolicy):
    """Resizes the worker fleet at superstep boundaries.

    Attach it to ``job.observers``; ``job.num_workers`` is the initial
    fleet.  Failure injection cannot be combined with live scaling.

    Parameters
    ----------
    policy:
        The :class:`LivePolicy` consulted after every superstep.
    partition_for:
        ``fleet size -> Partition`` factory (default: salted hash, stable
        per size so repeated visits to a size reuse the same layout).
    """

    def __init__(
        self,
        policy: LivePolicy,
        partition_for: Callable[[int], Partition] | None = None,
    ) -> None:
        self.policy = policy
        self.partition_for = partition_for
        self.scale_overhead_total = 0.0

    def on_job_start(self, engine: BSPEngine) -> None:
        self.provisioner = ElasticProvisioner(
            model=engine.model, workers=engine.num_workers
        )

    def at_boundary(self, engine: BSPEngine, stats: SuperstepStats) -> None:
        want = int(self.policy.decide(engine, stats))
        if want <= 0:
            raise ValueError(f"policy requested invalid fleet size {want}")
        if want == engine.num_workers:
            return
        tel = engine.telemetry
        direction = "up" if want > engine.num_workers else "down"
        resize = {"from_workers": engine.num_workers, "to_workers": want}
        with tel.phase("elastic-resize", **resize) as closing:
            partition = (
                self.partition_for(want) if self.partition_for
                else HashPartitioner().partition(engine.graph, want)
            )
            if partition.num_parts != want:
                raise ValueError("partition_for returned wrong part count")
            moved = closing["vertices_moved"] = engine.migrate(partition)
            # Scaling stalls the job: everyone waits for boots, drains and
            # migration, and the row bills the VMs booting beyond its fleet.
            overhead = self.provisioner.scale_to(
                want, superstep=engine.superstep, vertices_moved=moved
            )
            engine.stall(stats, overhead)
            stats.extra_vm_seconds += self.scale_events[-1].extra_vm_seconds
        self.scale_overhead_total += overhead
        # The resize happens between supersteps; its overhead lands in the
        # *current* step's row (recorded right after this hook).
        tel.annotate(stats.index, "elastic-resize", **resize, vertices_moved=moved)
        tel.stall(
            "elastic-resize", overhead, vertices_moved=moved, direction=direction
        )

    @property
    def scale_events(self):
        return self.provisioner.events

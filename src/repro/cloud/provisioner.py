"""Elastic VM provisioning with scaling overheads.

§VIII's elasticity analysis assumes worker counts can change at superstep
boundaries.  The provisioner tracks the fleet and charges *time* for scale
events:

* scale-out pays :attr:`~repro.cloud.costmodel.PerfModel.provision_delay`
  (VM boot + role warmup) once per scaling step (boots overlap);
* scale-in pays :attr:`~repro.cloud.costmodel.PerfModel.release_delay`;
* both pay migration time proportional to the vertices whose partition
  moved (``migrate_per_vertex``).

The job stalls for the overhead, so the engine bills it on the step's
trace row like any other second; :attr:`ScaleEvent.extra_vm_seconds` adds
what the old fleet does not cover.  The paper's own projections "do not
yet consider the overheads of scaling"; setting the three coefficients to
zero reproduces that idealized analysis, and the elastic benches report
both variants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .costmodel import PerfModel

__all__ = ["ElasticProvisioner", "ScaleEvent"]


@dataclass(frozen=True)
class ScaleEvent:
    """A fleet-size change applied at a superstep boundary."""

    superstep: int
    old_workers: int
    new_workers: int
    overhead_seconds: float

    @property
    def extra_vm_seconds(self) -> float:
        """Worker VM-seconds billed during the stall beyond the old fleet.

        New VMs bill from acquisition, so a scale-out holds the new fleet
        through its overhead; leaving VMs bill until drained, which the
        old fleet already covers.
        """
        grown = max(0, self.new_workers - self.old_workers)
        return grown * self.overhead_seconds


@dataclass
class ElasticProvisioner:
    """Tracks fleet size and scaling overheads across a run."""

    model: PerfModel
    workers: int
    events: list[ScaleEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError("initial worker count must be positive")

    def scale_to(
        self, new_workers: int, superstep: int, vertices_moved: int = 0
    ) -> float:
        """Change the fleet size; returns the overhead seconds incurred."""
        if new_workers <= 0:
            raise ValueError("new_workers must be positive")
        if new_workers == self.workers:
            return 0.0
        m = self.model
        overhead = m.migrate_per_vertex * max(0, vertices_moved)
        if new_workers > self.workers:
            overhead += m.provision_delay
        else:
            overhead += m.release_delay
        self.events.append(
            ScaleEvent(superstep, self.workers, new_workers, overhead)
        )
        self.workers = new_workers
        return overhead

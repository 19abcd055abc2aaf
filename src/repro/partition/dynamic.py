"""Runtime dynamic re-partitioning — the GPS feature the paper contrasts.

§II: GPS "explores partitioning effects on BSP performance while
introducing certain dynamic re-partitioning approaches."  This module
implements the idea on our engine: while a job runs, periodically migrate
the most *misplaced* vertices (those with the largest majority of neighbors
on another worker) toward their neighborhoods, under a balance guard — an
online, incremental version of min-cut refinement that needs no offline
partitioning pass.

The mechanics reuse the live-elastic migration path (export/import of
state, pending messages and mutation overlays), so correctness is
preserved by construction; the engine charges migration time per vertex
moved.  Tests assert results are bit-equal to static runs and that the
remote-message fraction falls over time; the bench compares it against
static hash and offline METIS on the paper's graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..bsp.engine import BSPEngine
from ..bsp.job import JobSpec
from ..bsp.superstep import SuperstepStats
from ..bsp.worker import PartitionWorker
from .base import Partition

__all__ = ["MigrationEvent", "DynamicRepartitioningEngine", "run_repartitioned"]


@dataclass(frozen=True)
class MigrationEvent:
    """One re-partitioning round."""

    superstep: int
    vertices_moved: int
    remote_fraction_before: float
    remote_fraction_after: float
    overhead_seconds: float


class DynamicRepartitioningEngine(BSPEngine):
    """BSP engine that migrates misplaced vertices every ``interval`` steps.

    Parameters
    ----------
    interval:
        Superstep period between migration rounds.
    batch_fraction:
        At most this fraction of vertices moves per round (migration has a
        per-vertex cost; GPS likewise bounds churn).
    min_gain:
        A vertex moves only when its destination hosts at least this many
        more of its neighbors than its current worker.
    slack:
        Balance guard: no worker may grow past ``slack * n / k`` vertices.
    """

    def __init__(
        self,
        job: JobSpec,
        interval: int = 4,
        batch_fraction: float = 0.05,
        min_gain: int = 1,
        slack: float = 1.15,
    ) -> None:
        if job.failure_schedule:
            raise ValueError(
                "dynamic re-partitioning cannot be combined with failure "
                "injection"
            )
        if interval < 1:
            raise ValueError("interval must be >= 1")
        if not 0 < batch_fraction <= 1:
            raise ValueError("batch_fraction must be in (0, 1]")
        if min_gain < 1:
            raise ValueError("min_gain must be >= 1")
        if slack < 1.0:
            raise ValueError("slack must be >= 1.0")
        super().__init__(job)
        self.interval = interval
        self.batch_fraction = batch_fraction
        self.min_gain = min_gain
        self.slack = slack
        self.migrations: list[MigrationEvent] = []

    # ------------------------------------------------------------------
    def _remote_fraction(self, assignment: np.ndarray) -> float:
        g = self.graph
        if g.num_arcs == 0:
            return 0.0
        src_parts = np.repeat(assignment, np.diff(g.indptr))
        dst_parts = assignment[g.indices]
        return float(np.count_nonzero(src_parts != dst_parts) / g.num_arcs)

    def _plan_moves(self) -> list[tuple[int, int]]:
        """Pick (vertex, destination) moves: largest neighbor-majority gain
        first, respecting the balance guard."""
        g = self.graph
        assignment = self.partition.assignment
        k = self.num_workers
        sizes = np.bincount(assignment, minlength=k).astype(np.int64)
        capacity = self.slack * g.num_vertices / k
        budget = max(1, int(self.batch_fraction * g.num_vertices))

        candidates: list[tuple[int, int, int]] = []  # (-gain, vertex, dest)
        for v in range(g.num_vertices):
            nbrs = g.neighbors(v)
            if len(nbrs) == 0:
                continue
            counts = np.bincount(assignment[nbrs], minlength=k)
            here = int(assignment[v])
            best = int(np.argmax(counts))
            gain = int(counts[best]) - int(counts[here])
            if best != here and gain >= self.min_gain:
                candidates.append((-gain, v, best))
        candidates.sort()

        moves: list[tuple[int, int]] = []
        for _, v, dest in candidates:
            if len(moves) >= budget:
                break
            here = int(assignment[v])
            if sizes[dest] + 1 > capacity:
                continue
            moves.append((v, dest))
            sizes[here] -= 1
            sizes[dest] += 1
        return moves

    def _apply_moves(self, moves: list[tuple[int, int]]) -> None:
        assignment = self.partition.assignment.copy()
        for v, dest in moves:
            src_worker = self.workers[int(assignment[v])]
            src_worker._apply_mutations()
            state, halted, pending, overlay = src_worker.export_vertex(v)
            self.workers[dest].import_vertex(v, state, halted, pending, overlay)
            assignment[v] = dest
        new_partition = Partition(self.num_workers, assignment)
        self.partition = new_partition
        for w in self.workers:
            w.assignment = new_partition.assignment
            w.vertex_ids = np.array(sorted(w.states.keys()), dtype=np.int64)
            w.refresh_partition_footprint()

    # ------------------------------------------------------------------
    def _post_superstep(self, stats: SuperstepStats) -> None:
        if (self.superstep + 1) % self.interval != 0:
            return
        before = self._remote_fraction(self.partition.assignment)
        moves = self._plan_moves()
        if not moves:
            return
        self._apply_moves(moves)
        after = self._remote_fraction(self.partition.assignment)
        overhead = self.model.migrate_per_vertex * len(moves)
        self._stall(stats, overhead, f"repartition@{self.superstep}")
        self.migrations.append(
            MigrationEvent(
                superstep=self.superstep,
                vertices_moved=len(moves),
                remote_fraction_before=before,
                remote_fraction_after=after,
                overhead_seconds=overhead,
            )
        )

    @property
    def total_moved(self) -> int:
        return sum(m.vertices_moved for m in self.migrations)


def run_repartitioned(job: JobSpec, **kwargs):
    """Convenience wrapper mirroring :func:`repro.bsp.engine.run_job`."""
    return DynamicRepartitioningEngine(job, **kwargs).run()

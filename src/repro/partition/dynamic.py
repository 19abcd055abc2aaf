"""Runtime dynamic re-partitioning — the GPS feature the paper contrasts.

§II: GPS "explores partitioning effects on BSP performance while
introducing certain dynamic re-partitioning approaches."  This module
implements the idea on our engine: while a job runs, periodically migrate
the most *misplaced* vertices (those with the largest majority of neighbors
on another worker) toward their neighborhoods, under a balance guard — an
online, incremental version of min-cut refinement that needs no offline
partitioning pass.

A :class:`DynamicRepartitioner` observer plans the moves and hands the new
partition to :meth:`~repro.bsp.engine.BSPEngine.migrate`, the path live
elastic scaling uses too (export/import of state, pending messages and
mutation overlays), so correctness is preserved by construction; each
round is a ``repartition`` phase charging migration time per vertex moved.
Tests assert results are bit-equal to static runs and that the
remote-message fraction falls over time; the bench compares it against
static hash and offline METIS on the paper's graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bsp.engine import BSPEngine, MigrationPolicy
from ..bsp.superstep import SuperstepStats
from .base import Partition
from .metrics import remote_edge_fraction

__all__ = ["MigrationEvent", "DynamicRepartitioner"]


@dataclass(frozen=True)
class MigrationEvent:
    """One re-partitioning round."""

    superstep: int
    vertices_moved: int
    remote_fraction_before: float
    remote_fraction_after: float
    overhead_seconds: float


class DynamicRepartitioner(MigrationPolicy):
    """Migrates misplaced vertices every ``interval`` supersteps.

    Attach it to ``job.observers``.  Failure injection cannot be combined
    with it.

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
        interval: int = 4,
        batch_fraction: float = 0.05,
        min_gain: int = 1,
        slack: float = 1.15,
    ) -> None:
        if interval < 1:
            raise ValueError("interval must be >= 1")
        if not 0 < batch_fraction <= 1:
            raise ValueError("batch_fraction must be in (0, 1]")
        if min_gain < 1:
            raise ValueError("min_gain must be >= 1")
        if slack < 1.0:
            raise ValueError("slack must be >= 1.0")
        self.interval = interval
        self.batch_fraction = batch_fraction
        self.min_gain = min_gain
        self.slack = slack
        self.migrations: list[MigrationEvent] = []

    # ------------------------------------------------------------------
    def _plan_moves(self, engine: BSPEngine) -> list[tuple[int, int]]:
        """Pick (vertex, destination) moves: largest neighbor-majority gain
        first, respecting the balance guard."""
        g = engine.graph
        assignment = engine.partition.assignment
        k = engine.num_workers
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

    # ------------------------------------------------------------------
    def at_boundary(self, engine: BSPEngine, stats: SuperstepStats) -> None:
        if (engine.superstep + 1) % self.interval != 0:
            return
        before = remote_edge_fraction(engine.graph, engine.partition)
        moves = self._plan_moves(engine)
        if not moves:
            return
        assignment = engine.partition.assignment.copy()
        for v, dest in moves:
            assignment[v] = dest
        tel = engine.telemetry
        with tel.phase("repartition") as closing:
            moved = closing["vertices_moved"] = engine.migrate(
                Partition(engine.num_workers, assignment)
            )
            overhead = engine.model.migrate_per_vertex * moved
            engine.stall(stats, overhead)
        self.migrations.append(
            MigrationEvent(
                superstep=engine.superstep,
                vertices_moved=moved,
                remote_fraction_before=before,
                remote_fraction_after=remote_edge_fraction(
                    engine.graph, engine.partition),
                overhead_seconds=overhead,
            )
        )
        tel.annotate(stats.index, "repartition", vertices_moved=moved)
        tel.stall("repartition", overhead, vertices_moved=moved)

    @property
    def total_moved(self) -> int:
        return sum(m.vertices_moved for m in self.migrations)

"""Per-superstep execution statistics and the job trace.

Everything the paper plots comes out of this module: messages per worker per
superstep (Figs. 3, 7, 10-14), memory over time (Fig. 5), compute+I/O vs
barrier-wait breakdown and utilization (Figs. 9, 12), active vertices and
per-superstep times at different worker counts (Figs. 15-16).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["WorkerStepStats", "SuperstepStats", "JobTrace"]


@dataclass
class WorkerStepStats:
    """One worker's resource activity in one superstep."""

    worker: int
    compute_calls: int = 0
    msgs_in: int = 0
    msgs_out_local: int = 0
    msgs_out_remote: int = 0
    bytes_out: float = 0.0
    bytes_in: float = 0.0
    peers_out: int = 0
    peers_in: int = 0
    #: messages buffered for the next superstep, measured at the barrier
    queue_depth: int = 0
    compute_time: float = 0.0
    serialize_time: float = 0.0
    network_time: float = 0.0
    disk_time: float = 0.0
    memory_bytes: float = 0.0
    mem_slowdown: float = 1.0
    jitter_factor: float = 1.0
    restarted: bool = False

    @property
    def msgs_out(self) -> int:
        return self.msgs_out_local + self.msgs_out_remote

    @property
    def comm_time(self) -> float:
        """Data-plane time: serialization + network + disk buffering."""
        return self.serialize_time + self.network_time + self.disk_time

    @property
    def busy_time(self) -> float:
        """Compute + I/O time (the paper's 'Compute+I/O' component)."""
        return (
            self.compute_time
            + self.serialize_time
            + self.network_time
            + self.disk_time
        )

    @property
    def elapsed(self) -> float:
        """Worker wall time including spill penalty and tenant jitter."""
        return self.busy_time * self.mem_slowdown * self.jitter_factor


@dataclass
class SuperstepStats:
    """Cluster-wide view of one superstep."""

    index: int
    num_workers: int
    workers: list[WorkerStepStats] = field(default_factory=list)
    active_begin: int = 0
    active_end: int = 0
    #: control-plane messages injected at the boundary before this superstep
    injected: int = 0
    barrier_time: float = 0.0
    restart_time: float = 0.0
    elapsed: float = 0.0
    #: worker VM-seconds billed beyond ``num_workers x elapsed`` (the VMs a
    #: scale-out at this boundary holds while they boot)
    extra_vm_seconds: float = 0.0
    sim_time_end: float = 0.0

    # ---- aggregates over workers --------------------------------------
    @property
    def total_messages(self) -> int:
        return sum(w.msgs_out for w in self.workers)

    @property
    def remote_messages(self) -> int:
        return sum(w.msgs_out_remote for w in self.workers)

    @property
    def messages_per_worker(self) -> np.ndarray:
        return np.array([w.msgs_out for w in self.workers], dtype=np.int64)

    @property
    def peak_memory(self) -> float:
        return max((w.memory_bytes for w in self.workers), default=0.0)

    @property
    def slowest_busy(self) -> float:
        return max((w.elapsed for w in self.workers), default=0.0)

    @property
    def overhead_time(self) -> float:
        """Time charged beyond slowest worker + barrier + restarts:
        checkpoint writes, recovery restores, elastic stalls."""
        return max(
            0.0,
            self.elapsed - self.slowest_busy - self.barrier_time
            - self.restart_time,
        )

    @property
    def compute_calls(self) -> int:
        return sum(w.compute_calls for w in self.workers)

    @property
    def message_imbalance(self) -> float:
        """max/mean of per-worker emitted messages (1.0 = perfectly even)."""
        per = self.messages_per_worker
        mean = per.mean() if len(per) else 0.0
        return float(per.max() / mean) if mean > 0 else 1.0

    @property
    def any_restart(self) -> bool:
        return any(w.restarted for w in self.workers)


@dataclass
class JobTrace:
    """The full per-superstep history of a job run."""

    steps: list[SuperstepStats] = field(default_factory=list)

    def append(self, stats: SuperstepStats) -> None:
        self.steps.append(stats)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __getitem__(self, i):
        return self.steps[i]

    # ---- headline scalars ----------------------------------------------
    @property
    def total_time(self) -> float:
        """Simulated wall-clock time of the whole job."""
        return sum(s.elapsed for s in self.steps)

    @property
    def total_messages(self) -> int:
        return sum(s.total_messages for s in self.steps)

    @property
    def peak_memory(self) -> float:
        return max((s.peak_memory for s in self.steps), default=0.0)

    @property
    def num_workers(self) -> int:
        """Widest fleet seen (elastic runs vary per step)."""
        return max((s.num_workers for s in self.steps), default=0)

    @property
    def total_barrier_time(self) -> float:
        return sum(s.barrier_time for s in self.steps)

    @property
    def num_restarts(self) -> int:
        return sum(
            sum(1 for w in s.workers if w.restarted) for s in self.steps
        )

    # ---- series for the paper's figures ----------------------------------
    def series_messages(self) -> np.ndarray:
        """Total messages emitted per superstep (Figs. 3, 7)."""
        return np.array([s.total_messages for s in self.steps], dtype=np.int64)

    def matrix(self, name: str) -> np.ndarray:
        """(supersteps x workers) matrix of one worker-row field or
        property, e.g. ``matrix("msgs_out")`` (Figs. 10-14).

        Rows are zero-padded on the right when worker counts differ across
        supersteps (elastic runs).
        """
        out = np.zeros((len(self.steps), self.num_workers))
        for i, s in enumerate(self.steps):
            for w in s.workers:
                out[i, w.worker] = getattr(w, name)
        return out

    def per_worker_total(self, name: str) -> np.ndarray:
        """Sum of one worker-row field or property per worker id."""
        return self.matrix(name).sum(axis=0)

    def series_peak_memory(self) -> np.ndarray:
        """Max per-worker memory per superstep (Fig. 5)."""
        return np.array([s.peak_memory for s in self.steps])

    def series_active_vertices(self) -> np.ndarray:
        """Active vertices at end of each superstep (Fig. 15 top)."""
        return np.array([s.active_end for s in self.steps], dtype=np.int64)

    def series_elapsed(self) -> np.ndarray:
        """Wall time per superstep (feeds the elastic model)."""
        return np.array([s.elapsed for s in self.steps])

    def series_sim_time(self) -> np.ndarray:
        """Cumulative simulated time at the end of each superstep."""
        return np.array([s.sim_time_end for s in self.steps])

    # ---- utilization breakdown (Figs. 9, 12) ------------------------------
    def busy_time_total(self) -> float:
        """Sum over supersteps of the *slowest* worker's busy time."""
        return sum(s.slowest_busy for s in self.steps)

    def utilization(self) -> float:
        """Mean worker utilization: busy time / allocated wall time.

        The paper's 'VM utilization %' — time spent in compute and I/O
        against total elapsed (including barrier waits).
        """
        allocated = 0.0
        busy = 0.0
        for s in self.steps:
            allocated += s.elapsed * s.num_workers
            busy += sum(w.elapsed for w in s.workers)
        return busy / allocated if allocated > 0 else 0.0

    def breakdown(self) -> dict[str, float]:
        """Compute+I/O vs barrier-wait split of total runtime."""
        total = self.total_time
        compute_io = self.busy_time_total()
        return {
            "compute_io": compute_io,
            "barrier_wait": total - compute_io,
            "total": total,
            "utilization": self.utilization(),
        }

"""Threaded execution of the compute phase (real concurrency).

The simulated engine executes workers sequentially and *models* parallel
time.  For credibility (and as the seed of a real deployment), this module
provides :class:`ThreadedBSPEngine`, which runs each superstep's per-worker
``compute()`` loops on a thread pool.  The BSP structure makes this safe
with zero locks:

* during the compute phase a worker touches only its own state, its own
  ``in_cur``/``in_next`` buffers, and its own per-destination ``out_remote``
  buckets (the shared graph/assignment arrays are read-only);
* all cross-worker movement (the flush phase) stays single-threaded at the
  barrier, exactly like the model's bulk transfer.

Results are bit-identical to the sequential engine: within a worker the
vertex order is unchanged, and the flush phase iterates workers in id
order, so message delivery order is deterministic (tests assert equality).
CPython's GIL limits the wall-clock win for pure-Python compute, but any
NumPy-heavy ``compute()`` releases the GIL and genuinely scales.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

from .engine import BSPEngine
from .job import JobSpec

__all__ = ["ThreadedBSPEngine", "default_pool_size"]


def default_pool_size(num_workers: int) -> int:
    """Thread-pool size when the caller does not pin one.

    Capped by the host's core count (more threads than cores only adds
    context-switch overhead for CPU-bound compute) and by 32, the same
    ceiling ``ThreadPoolExecutor`` applies to its own default.
    """
    return max(1, min(32, os.cpu_count() or 1, num_workers))


class ThreadedBSPEngine(BSPEngine):
    """BSPEngine whose compute phases run on a thread pool."""

    def __init__(self, job: JobSpec, max_threads: int | None = None) -> None:
        super().__init__(job)
        if max_threads is not None and max_threads < 1:
            raise ValueError("max_threads must be >= 1")
        pool_size = max_threads or default_pool_size(self.num_workers)
        self._pool = ThreadPoolExecutor(
            max_workers=pool_size,
            thread_name_prefix="bsp-worker",
        )
        # Real-concurrency profiling: per-worker host time inside the pooled
        # compute phase, the number the simulated clock cannot show.
        if self.metrics is not None:
            self.metrics.gauge(
                "bsp_compute_pool_threads", help="Compute thread-pool size"
            ).set(pool_size)
            self._m_task_host = self.metrics.histogram(
                "bsp_worker_compute_host_seconds",
                help="Host wall time of each worker's pooled compute task",
            )
        else:
            self._m_task_host = None

    def _run_compute(self) -> None:
        if self._m_task_host is None:
            futures = [self._pool.submit(w.run_compute) for w in self.workers]
            for f in futures:
                f.result()  # propagate worker exceptions
            return

        def timed(worker) -> None:
            t0 = perf_counter()
            worker.run_compute()
            # Histogram mutation is lock-protected, so observing from the
            # pooled task itself is safe (no observe-after-join detour).
            self._m_task_host.observe(perf_counter() - t0)

        futures = [self._pool.submit(timed, w) for w in self.workers]
        for f in futures:
            f.result()  # propagate worker exceptions

    def run(self):
        try:
            return super().run()
        finally:
            self._pool.shutdown(wait=True)

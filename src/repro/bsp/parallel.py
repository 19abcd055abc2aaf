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
        self.telemetry.pool(pool_size)

    def _run_compute(self) -> None:
        # Real-concurrency profiling: per-worker host time inside the pooled
        # compute phase, the number the simulated clock cannot show.
        def timed(worker) -> tuple[float, float]:
            t0 = perf_counter()
            worker.run_compute()
            t1 = perf_counter()
            return t1 - t0, t1

        futures = [self._pool.submit(timed, w) for w in self.workers]
        for w, f in zip(self.workers, futures):
            host, ended = f.result()  # propagates worker exceptions
            # Emitted from this thread, not the pooled task: one writer.
            self.telemetry.worker_compute(
                w.worker_id, host, perf_counter() - ended
            )

    def run(self):
        try:
            return super().run()
        finally:
            self._pool.shutdown(wait=True)

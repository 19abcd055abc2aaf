"""A shard session is sent its slice of the arc layout, and only that.

When the program lifts, a process or tcp session's ``WorkerInit`` carries
its :class:`~repro.bsp.dense_shard.ShardSlice` — rows, grouped ``dst``,
source runs, rows per worker — and no ``CSRGraph`` and no assignment.
Whatever the sessions host, the coordinator seeds its view of each from
the report the session sends and keeps no worker of its own.
"""

from __future__ import annotations

import gc
import io
import pickle
import tracemalloc

import numpy as np

from repro.algorithms import BCProgram, PageRankProgram
from repro.algorithms.bc import start_messages
from repro.bsp import JobSpec, run_job
from repro.bsp.dense_shard import ShardSlice
from repro.dist import ProcessBSPEngine
from repro.dist.engine import _WorkerView
from repro.graph import CSRGraph
from repro.graph import generators as gen
from repro.partition import HashPartitioner

WORKERS = 4


def _job(scale: int = 12, program=None, **kwargs):
    g = gen.rmat(scale, 8, seed=3)
    return JobSpec(program or PageRankProgram(8), g, num_workers=WORKERS,
                   partition=HashPartitioner().partition(g, WORKERS), **kwargs)


def _bc_job(scale: int = 12):
    """A per-vertex job: BC does not lift, so its sessions host
    PartitionWorkers."""
    return _job(scale, BCProgram(), initially_active=False,
                initial_messages=start_messages([0, 5]))


def _built(job) -> tuple[ProcessBSPEngine, int]:
    """An engine for ``job`` and the bytes its construction left allocated
    in this process (the coordinator)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        engine = ProcessBSPEngine(job)
        gc.collect()
        return engine, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class _Recorder(pickle.Pickler):
    """Notes the type of every object it pickles and the bytes of every
    array among them."""

    def __init__(self, file):
        super().__init__(file, protocol=5)
        self.types: set[type] = set()
        self.array_bytes = 0

    def persistent_id(self, obj):
        self.types.add(type(obj))
        if isinstance(obj, np.ndarray):
            self.array_bytes += obj.nbytes
        return None


def test_shard_init_carries_its_slice_and_no_graph():
    job = _job()
    engine = ProcessBSPEngine(job)
    try:
        assert engine._plan is not None
        for w in range(WORKERS):
            init = engine._host_init((w,))
            assert init.graph is None and init.assignment is None
            assert init.vertex_ids is None and init.active_ids is None
            (part,) = init.shards
            assert isinstance(part, ShardSlice) and part.worker_id == w
            rec = _Recorder(io.BytesIO())
            rec.dump(init)
            assert CSRGraph not in rec.types
            m, n = len(part.dst), len(part.rows)
            assert rec.array_bytes <= 1.2 * (8 * m + 16 * n), (
                rec.array_bytes, m, n)
    finally:
        engine.shutdown()


def test_coordinator_keeps_counts_not_arcs():
    # The engine's fixed cost (telemetry, channels, process handles: ~27 kB)
    # alone is over a tenth of this graph's 246 kB, so the bound is on
    # what construction keeps beyond a 16-vertex job's.
    for make_job, shards in ((_job, True), (_bc_job, False)):
        ProcessBSPEngine(make_job(4)).shutdown()  # imports and memoised lifts
        engine, fixed = _built(make_job(4))
        engine.shutdown()
        job = make_job()
        engine, growth = _built(job)
        try:
            assert (engine._plan is not None) == shards
            # the fleet is the sessions' reports, never a worker
            assert len(engine.workers) == WORKERS
            assert all(type(view) is _WorkerView for view in engine.workers)
            g = job.graph
            graph_bytes = g.indptr.nbytes + g.indices.nbytes
            assert growth - fixed < 0.1 * graph_bytes, (
                make_job.__name__, growth, fixed, graph_bytes)
            res = engine.run()
        finally:
            engine.shutdown()
        assert res.values == run_job(make_job(), "sim").values

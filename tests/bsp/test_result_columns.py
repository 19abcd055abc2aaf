"""``JobResult.values`` is one read-only column mapping on every engine.

Each engine concatenates its workers' ``(ids, values)`` columns into a
:class:`~repro.bsp.job.VertexValues`; a value reads back as the Python
object the sim's per-vertex dict held, exact by type and repr, in the
same worker-by-worker order.
"""

from __future__ import annotations

import pickle
import tracemalloc
from collections.abc import Mapping
from functools import cache

import numpy as np
import pytest

from repro.algorithms import (
    BCProgram,
    ConnectedComponentsProgram,
    PageRankProgram,
    WCCProgram,
)
from repro.algorithms.bc import start_messages
from repro.bsp import JobSpec, run_job
from repro.bsp.dense_ref import DenseRefEngine, shard_plan
from repro.bsp.dense_shard import DenseLayout, DenseShard
from repro.bsp.job import VertexValues
from repro.check.vectorize import lift_of
from repro.graph import generators as gen
from repro.graph.builder import GraphBuilder
from repro.net import WorkerInit, WorkerSession
from repro.net.codec import pack_frame

ENGINES = ["sim", "dense-ref", "process", "tcp"]
WORKERS = 3


class TupleExtract(PageRankProgram):
    def extract(self, vertex_id, state):
        return (vertex_id, state * 2)


def _graph():
    return gen.rmat(scale=7, edge_factor=6, seed=1, undirected=False)


PROGRAMS = {
    "pagerank": (lambda: PageRankProgram(6), {}),
    "cc": (ConnectedComponentsProgram, {}),
    "wcc": (WCCProgram, {}),
    "bc": (BCProgram, {"initially_active": False,
                       "initial_messages": start_messages([0, 5])}),
    "tuple": (lambda: TupleExtract(4), {}),
}


def _job(program):
    make, extra = PROGRAMS[program]
    return JobSpec(make(), _graph(), num_workers=WORKERS, **extra)


@cache
def _result(program, engine):
    kwargs = {}
    if engine == "dense-ref" and program == "tuple":
        kwargs["plan"] = lift_of(PageRankProgram).plan
    elif engine == "tcp":
        kwargs["auto_daemons"] = 1
    return run_job(_job(program), engine, **kwargs)


def _cases():
    for program in PROGRAMS:
        for engine in ENGINES:
            if engine == "dense-ref" and program == "bc":
                continue  # does not lift
            yield program, engine


@pytest.mark.parametrize("program,engine", list(_cases()))
def test_values_read_back_exactly_as_the_sims(program, engine):
    sim, res = _result(program, "sim"), _result(program, engine)
    values = res.values
    assert type(values) is VertexValues and isinstance(values, Mapping)
    assert len(values.ids) == len(values.array) == len(values)
    # the parent's dict order: worker by worker, each in its vertex order
    part = _job(program).resolve_partition()
    order = [int(v) for w in range(WORKERS) for v in part.vertices_of(w)]
    assert list(values) == list(sim.values) == order
    for v, theirs in sim.values.items():
        ours = values[v]
        assert (type(ours), repr(ours)) == (type(theirs), repr(theirs)), v
    if program != "tuple":
        ours, theirs = res.values_array(), sim.values_array()
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("engine", ENGINES)
def test_mapping_behaviour(engine):
    values = _result("cc", engine).values
    n = _graph().num_vertices
    as_dict = dict(values)
    assert len(values) == len(as_dict) == n
    assert 0 in values and np.int64(n - 1) in values
    assert n not in values and -1 not in values and "0" not in values
    for missing in (n, -1, "0", 1.5):
        with pytest.raises(KeyError):
            values[missing]
    assert values.get(n) is None and values.get(n, "x") == "x"
    assert values.get(3) == as_dict[3]
    assert list(values.items()) == list(as_dict.items())
    assert list(values.values()) == list(as_dict.values())
    assert list(values.keys()) == list(as_dict)
    assert (3, as_dict[3]) in values.items()
    assert values == as_dict and as_dict == values
    assert values == _result("cc", "sim").values
    assert values != {**as_dict, 0: -1}
    assert pickle.loads(pickle.dumps(values)) == values


def test_empty_graph():
    job = JobSpec(PageRankProgram(2), GraphBuilder(0).build(), num_workers=1)
    res = run_job(job, "dense-ref")
    assert len(res.values) == 0 and dict(res.values) == {}
    assert 0 not in res.values and res.values_array().shape == (0,)


def test_extract_grows_memory_by_the_two_columns_only():
    g = gen.rmat(14, 8, seed=3)
    engine = DenseRefEngine(JobSpec(PageRankProgram(2), g, num_workers=4))
    engine.run()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        values = engine._extract_values()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = g.num_vertices
    assert len(values) == n
    # an int64 id and a float64 value per vertex; a dict was ~100 B
    assert peak - before <= 1.2 * 16 * n, (peak - before) / n


def test_shard_extract_frame_carries_its_columns_out_of_band():
    g = _graph()
    program = PageRankProgram(3)
    job = JobSpec(program, g, num_workers=2)
    plan = shard_plan(program)
    layout = DenseLayout(g, job.resolve_partition().assignment, 2, plan)
    session = WorkerSession(WorkerInit(0, program, job.perf_model, 0.1, False,
                                       plan=plan, shard=layout.slice(0)))
    assert isinstance(session.worker, DenseShard)
    kind, _epoch, (ids, vals) = session.handle("extract", 0, None)
    assert kind == "extracted" and ids.dtype == np.int64
    assert vals.dtype == np.float64 and len(ids) == len(vals) > 50
    frame = pack_frame(session.handle("extract", 0, None))
    n_buffers = int.from_bytes(frame[:4], "little")
    pickle_len = int.from_bytes(frame[4:12], "little")
    assert n_buffers == 2  # the id and the value column
    # metadata only: a per-vertex object would cost bytes per row
    assert pickle_len < 400, pickle_len

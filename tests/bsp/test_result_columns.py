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
    session = WorkerSession(WorkerInit((0,), program, job.perf_model, 0.1,
                                       False, plan=plan,
                                       shards=[layout.slice(0)]))
    assert isinstance(session.workers[0], DenseShard)
    kind, _epoch, [(ids, vals)] = session.handle("extract", 0, None)
    assert kind == "extracted" and ids.dtype == np.int64
    assert vals.dtype == np.float64 and len(ids) == len(vals) > 50
    frame = pack_frame(session.handle("extract", 0, None))
    n_buffers = int.from_bytes(frame[:4], "little")
    pickle_len = int.from_bytes(frame[4:12], "little")
    assert n_buffers == 2  # the id and the value column
    # metadata only: a per-vertex object would cost bytes per row
    assert pickle_len < 400, pickle_len


def _vv(ids, values, dtype=None) -> VertexValues:
    return VertexValues(np.asarray(ids, dtype=np.int64),
                        np.asarray(values, dtype=dtype))


def _obj(values) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


class TestEquality:
    """``==`` between results compares columns, with ``Mapping``'s answers."""

    def test_order_does_not_matter(self):
        a = _vv([0, 1, 2], [0.5, 1.5, 2.5])
        b = _vv([2, 0, 1], [2.5, 0.5, 1.5])
        assert a == b and b == a and not a != b
        assert dict(a) == dict(b)

    def test_different_ids_values_or_sizes_differ(self):
        a = _vv([0, 1, 2], [0.5, 1.5, 2.5])
        for other in (_vv([0, 1, 3], [0.5, 1.5, 2.5]),
                      _vv([0, 1, 2], [0.5, 1.5, 2.0]),
                      _vv([0, 1], [0.5, 1.5]),
                      _vv([], [], float)):
            assert a != other and other != a
            assert dict(a) != dict(other)

    def test_against_plain_dicts_and_other_types(self):
        a = _vv([3, 1], [7, 9])
        assert a == {1: 9, 3: 7} and {1: 9, 3: 7} == a
        assert a != {1: 9, 3: 8} and a != {1: 9}
        assert a != [(3, 7), (1, 9)] and a != "x"

    def test_nan_and_signed_zero_follow_the_dict_rule(self):
        nan_a, nan_b = _vv([0, 1], [np.nan, 1.0]), _vv([1, 0], [1.0, np.nan])
        assert (nan_a == nan_b) == (dict(nan_a) == dict(nan_b)) is False
        zeros = _vv([0], [0.0]), _vv([0], [-0.0])
        assert zeros[0] == zeros[1] and dict(zeros[0]) == dict(zeros[1])

    def test_object_columns_compare_item_by_item(self):
        nan = float("nan")
        shared = _vv([0, 1], _obj([(0, 1.0), nan]))
        same_objects = _vv([1, 0], _obj([nan, (0, 1.0)]))
        # the very same NaN object is equal to itself, as in a dict
        assert shared == same_objects and dict(shared) == dict(same_objects)
        fresh_nan = _vv([1, 0], _obj([float("nan"), (0, 1.0)]))
        assert shared != fresh_nan and dict(shared) != dict(fresh_nan)
        assert _vv([0], _obj([(1, 2)])) != _vv([0], _obj([(1, 3)]))

    def test_mixed_columns_compare_as_python_scalars(self):
        big = 2**53 + 1  # float64 cannot hold it: a numeric cast would match
        ints, floats = _vv([0], [big]), _vv([0], [float(big)])
        assert (ints == floats) == (dict(ints) == dict(floats)) is False
        assert _vv([0, 1], [1, 2]) == _vv([1, 0], [2.0, 1.0])
        assert _vv([0], [1], np.int32) == _vv([0], [1], np.int64)
        assert _vv([0], [True]) == _vv([0], [1])

    def test_repeated_ids_fall_back_to_the_mapping_rule(self):
        twice = _vv([0, 0, 1], [5.0, 5.0, 6.0])
        assert (twice == _vv([0, 1], [5.0, 6.0])) == (
            dict(twice) == {0: 5.0, 1: 6.0})

    def test_results_compare_without_a_per_vertex_dict(self):
        g = gen.rmat(12, 4, seed=5)
        a = run_job(JobSpec(PageRankProgram(2), g, num_workers=3), "dense-ref")
        b = run_job(JobSpec(PageRankProgram(2), g, num_workers=3), "dense-ref")
        n = len(a.values)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert a.values == b.values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two argsorts and the sorted columns; a dict is ~100 B per vertex
        assert peak - before <= 64 * n, (peak - before) / n

"""The job's arc layout against the per-shard constructor it replaced.

``dense_layout_reference.reference_arcs`` builds one worker's arcs as every
shard did before the layout was computed once per job: the whole graph's
vertex code again, an int64 ``src`` and ``dst`` per arc.  Each case slices
a :class:`DenseLayout` and builds a :class:`DenseShard` from every slice,
and compares with the oracle: rows, ``dst``, the source rows the runs
imply, group bounds, weights, awake rows, out-degrees, the combining
scatter's reached rows and a peel plan's arc keys.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import KCoreProgram, PageRankProgram, SSSPProgram
from repro.bsp.dense_ref import shard_plan
from repro.bsp.dense_shard import _ALL_ARCS, DenseLayout, DenseShard
from repro.cloud.costmodel import DEFAULT_PERF_MODEL
from repro.graph import CSRGraph, GraphBuilder
from repro.graph import generators as gen

from .dense_layout_reference import reference_arcs


def _weighted():
    rng = np.random.default_rng(11)
    b = GraphBuilder(90)
    b.add_edges(rng.integers(0, 90, 600), rng.integers(0, 90, 600),
                rng.random(600) * 10)
    return b.build()


def _multi_edge():
    # repeated arcs (and a self-loop), as a CSR the builder would dedupe
    rng = np.random.default_rng(12)
    deg = rng.integers(0, 9, 50)
    indices = np.concatenate([np.sort(rng.integers(0, 8, d)) * 6 + i % 6
                              for i, d in enumerate(deg)])
    return CSRGraph(50, np.concatenate(([0], np.cumsum(deg))), indices)


def _isolated():
    rng = np.random.default_rng(13)
    b = GraphBuilder(70, undirected=True)  # vertices 40..69 have no arc
    b.add_edges(rng.integers(0, 40, 150), rng.integers(0, 40, 150))
    return b.build()


GRAPHS = {
    "directed": lambda: gen.rmat(scale=7, edge_factor=6, seed=1, undirected=False),
    "undirected": lambda: gen.watts_strogatz(120, 6, 0.1, seed=5),
    "weighted": _weighted,
    "multi-edge": _multi_edge,
    "isolated": _isolated,
    "no-arcs": lambda: GraphBuilder(9).build(),
}
#: an all-arcs plan, one that reads edge weights, a peel plan
PROGRAMS = {
    "pagerank": lambda: PageRankProgram(3),
    "sssp": lambda: SSSPProgram(source=0),
    "kcore": lambda: KCoreProgram(k=3),
}


def _assignment(kind: str, nv: int, workers: int) -> np.ndarray:
    rng = np.random.default_rng(workers)
    if kind == "modulo":
        return np.arange(nv) % workers
    if kind == "random":
        return rng.integers(0, workers, nv)
    # the last worker owns no vertex
    return rng.integers(0, max(workers - 1, 1), nv)


def _check_layout(graph, assign, workers, program, active_ids):
    plan = shard_plan(program)
    layout = DenseLayout(graph, assign, workers, plan, active_ids)
    reads_weights = program.__class__ is SSSPProgram
    for w in range(workers):
        ref = reference_arcs(w, graph, np.flatnonzero(assign == w), assign,
                             workers, active_ids)
        part = layout.slice(w)
        assert part.rows.dtype == np.int64
        assert part.rows.tolist() == ref.rows.tolist()
        assert part.rows_of == np.bincount(assign, minlength=workers).tolist()
        assert part.dst.dtype == np.intp
        assert part.dst.tolist() == ref.dst.tolist()
        assert part.bounds == ref.bounds
        assert len(part.bounds) == workers + 1
        implied = np.repeat(part.run_rows, part.run_lens)
        assert implied.tolist() == ref.src.tolist()
        # runs stay inside a group, and are maximal there: a row has at
        # most one run per group
        assert (part.run_lens > 0).all()
        run_ends = np.cumsum(part.run_lens)
        inner = [b for b in part.bounds[:-1] if 0 < b < part.bounds[-1]]
        assert set(inner) <= set(run_ends.tolist())
        for u in range(workers):
            in_group = ((run_ends > part.bounds[u])
                        & (run_ends <= part.bounds[u + 1]))
            assert (np.diff(part.run_rows[in_group]) > 0).all()
        if active_ids is None:
            assert part.halted is None
        else:
            assert part.halted.tolist() == ref.halted.tolist()
        if reads_weights and graph.weights is not None:
            assert part.weights.tolist() == ref.weights.tolist()
        else:
            assert part.weights is None
        assert (part.nbr is not None) == plan.needs_prune

        shard = DenseShard(part, program, DEFAULT_PERF_MODEL, plan)
        assert shard.static_degree.tolist() == ref.static_degree.tolist()
        assert shard.halted.tolist() == ref.halted.tolist()
        assert shard.src.tolist() == ref.src.tolist()
        assert [r.tolist() for r in shard._reached] == [
            r.tolist() for r in ref.reached]
        if reads_weights:
            want = ref.weights if ref.weights is not None else np.ones(len(ref.dst))
            assert shard.weights.tolist() == want.tolist()
        if plan.needs_prune:
            assert shard._arc_order.tolist() == ref.arc_order.tolist()
            assert shard._arc_keys.tolist() == ref.arc_keys.tolist()


@pytest.mark.parametrize("assignment", ["modulo", "random", "tail-empty"])
@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize("graph", list(GRAPHS))
@pytest.mark.parametrize("program", list(PROGRAMS))
def test_slices_equal_the_per_shard_constructor(program, graph, workers,
                                                assignment):
    g = GRAPHS[graph]()
    assign = _assignment(assignment, g.num_vertices, workers)
    if assignment == "tail-empty" and workers > 1:
        assert not (assign == workers - 1).any()
    _check_layout(g, assign, workers, PROGRAMS[program](), None)


@pytest.mark.parametrize("program", list(PROGRAMS))
def test_a_run_never_crosses_a_group(program):
    # worker 0 owns only the hub, whose arcs run into both other workers:
    # consecutive arcs of one row, still one run per group
    g = gen.star(9)
    assign = np.array([0] + [1 + v % 2 for v in range(1, 9)])
    _check_layout(g, assign, 3, PROGRAMS[program](), None)
    part = DenseLayout(g, assign, 3, shard_plan(PROGRAMS[program]())).slice(0)
    assert part.run_rows.tolist() == [0, 0]
    assert part.run_lens.tolist() == [4, 4]


@pytest.mark.parametrize("workers", [1, 3])
def test_awake_rows_follow_the_active_ids(workers):
    g = GRAPHS["directed"]()
    assign = _assignment("random", g.num_vertices, workers)
    rng = np.random.default_rng(3)
    for active in (np.empty(0, dtype=np.int64),
                   np.sort(rng.choice(g.num_vertices, 20, replace=False)),
                   np.arange(g.num_vertices)):
        _check_layout(g, assign, workers, SSSPProgram(source=0), active)


def test_an_all_arcs_shard_holds_no_per_arc_source():
    g = GRAPHS["undirected"]()
    assign = _assignment("modulo", g.num_vertices, 3)
    program = PageRankProgram(3)
    plan = shard_plan(program)
    part = DenseLayout(g, assign, 3, plan).slice(1)
    ref = reference_arcs(1, g, np.flatnonzero(assign == 1), assign, 3)
    shard = DenseShard(part, program, DEFAULT_PERF_MODEL, plan)
    v = np.random.default_rng(0).random(shard.n)
    # every arc: each run's value repeated along it, no per-arc source
    assert shard._per_arc(_ALL_ARCS)(v).tolist() == v[ref.src].tolist()
    assert "src" not in vars(shard)
    some = np.arange(0, shard.m, 3)
    assert shard._per_arc(some)(v).tolist() == v[ref.src[some]].tolist()
    assert "src" in vars(shard)  # a selection reads it, built from the runs

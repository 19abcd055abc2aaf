"""``MultilevelPartitioner`` against its per-vertex NumPy predecessor.

``metis_reference`` keeps the partitioner as it was before refinement ran
on a connectivity matrix and a worklist.  Every graph, part count, vertex
weight and option set below must get the same assignment from both.
"""

import tracemalloc

import numpy as np
import pytest

from repro.analysis.scenarios import paper_partitioners
from repro.graph import datasets
from repro.graph import generators as gen
from repro.graph.builder import from_edges
from repro.partition import MultilevelPartitioner, metis

from .metis_reference import reference_partition

PAPER = paper_partitioners()["METIS"]
OPTIONS = {
    "default": {},
    "paper": {"imbalance": PAPER.imbalance, "refine_passes": PAPER.refine_passes},
}


def _directed():
    rng = np.random.default_rng(4)
    src, dst = rng.integers(0, 300, 1500), rng.integers(0, 300, 1500)
    return from_edges(300, np.column_stack([src, dst]), undirected=False)


def _disconnected():
    """Two rings, a path and 40 isolated vertices: region growing leaves
    stragglers."""
    ring_a = [(i, (i + 1) % 60) for i in range(60)]
    ring_b = [(60 + i, 60 + (i + 1) % 50) for i in range(50)]
    line = [(110 + i, 111 + i) for i in range(29)]
    return from_edges(180, ring_a + ring_b + line, undirected=True)


def _multigraph():
    """Parallel arcs and self-loops survive into the partitioner's CSR."""
    rng = np.random.default_rng(9)
    src, dst = rng.integers(0, 200, 900), rng.integers(0, 200, 900)
    src = np.concatenate([src, src[:150], np.arange(0, 200, 7)])
    dst = np.concatenate([dst, dst[:150], np.arange(0, 200, 7)])
    return from_edges(
        200, np.column_stack([src, dst]), undirected=True, dedupe=False,
        drop_self_loops=False,
    )


GRAPHS = {
    "WG": lambda: datasets.load("WG", scale=0.5, seed=3),
    "CP": lambda: datasets.load("CP", scale=0.3, seed=5),
    "watts_strogatz": lambda: gen.watts_strogatz(600, 8, 0.1, seed=1),
    "rmat": lambda: gen.rmat(9, 8, seed=1),
    "directed": _directed,
    "star": lambda: gen.star(400),
    "disconnected": _disconnected,
    "multigraph": _multigraph,
    "tiny": lambda: gen.path(3),
    "empty": lambda: from_edges(0, []),
}


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def graph(request):
    return GRAPHS[request.param]()


@pytest.mark.parametrize("option", sorted(OPTIONS))
@pytest.mark.parametrize("vertex_weight", ["unit", "degree"])
@pytest.mark.parametrize("k", [2, 3, 4, 8])
def test_same_assignment_as_reference(graph, k, vertex_weight, option):
    opts = dict(OPTIONS[option], vertex_weight=vertex_weight)
    want = reference_partition(graph, k, seed=k, **opts)
    got = MultilevelPartitioner(seed=k, **opts).partition(graph, k)
    assert got.assignment.dtype == np.int32
    np.testing.assert_array_equal(got.assignment, want)


def test_multigraph_keeps_parallel_arcs_and_self_loops():
    g = _multigraph()
    src = np.repeat(np.arange(g.num_vertices), np.diff(g.indptr))
    assert (src == g.indices).any()
    keys = src * g.num_vertices + g.indices
    assert len(np.unique(keys)) < len(keys)


def test_differential_covers_rebalance_moves(monkeypatch):
    """Rebalance evicts vertices here (40 moves), so its vectorised scoring
    and move order are compared against the reference too."""
    moved = []
    rebalance = metis._rebalance

    def counting(g, assign, num_parts, imbalance):
        before = assign.copy()
        after = rebalance(g, assign, num_parts, imbalance)
        moved.append(int((before != after).sum()))
        return after

    monkeypatch.setattr(metis, "_rebalance", counting)
    g = gen.rmat(10, 8, seed=1)
    got = MultilevelPartitioner(seed=2, vertex_weight="unit").partition(g, 4)
    want = reference_partition(g, 4, seed=2, vertex_weight="unit")
    np.testing.assert_array_equal(got.assignment, want)
    assert sum(moved) == 40


def test_traced_peak_per_arc_stays_at_the_reference():
    """The reference peaks at 118-123 B/arc on a 4-way partition of
    ``rmat(12, 8)`` (120.1 at this seed); the bound is 5 % over 121.4.
    Per-level Python adjacency lists would roughly quadruple it."""
    g = gen.rmat(12, 8, seed=1)
    part = MultilevelPartitioner()
    tracemalloc.start()
    try:
        part.partition(g, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / g.num_arcs <= 1.05 * 121.4

"""GraphBuilder: edge accumulation, dedupe, symmetrization."""

import numpy as np
import pytest

from repro.graph.builder import GraphBuilder, from_edges


class TestBasics:
    def test_single_edge_directed(self):
        b = GraphBuilder(3)
        b.add_edge(0, 2)
        g = b.build()
        assert sorted(g.iter_edges()) == [(0, 2)]
        assert not g.undirected

    def test_undirected_stores_both_arcs(self):
        g = from_edges(3, [(0, 1)], undirected=True)
        assert sorted(g.iter_edges()) == [(0, 1), (1, 0)]
        assert g.num_edges == 1

    def test_add_edge_iter(self):
        b = GraphBuilder(4)
        b.add_edge_iter([(0, 1), (2, 3)])
        assert b.pending_arcs == 2
        g = b.build()
        assert g.num_arcs == 2

    def test_empty_iter_is_noop(self):
        b = GraphBuilder(4)
        b.add_edge_iter([])
        assert b.pending_arcs == 0

    def test_negative_num_vertices_rejected(self):
        with pytest.raises(ValueError):
            GraphBuilder(-1)

    def test_more_vertices_than_int32_ids_rejected(self):
        # CSR indices are int32: an id past 2**31 - 1 would wrap silently
        with pytest.raises(ValueError, match="int32 CSR limit"):
            GraphBuilder(2**31)
        assert GraphBuilder(2**31 - 1).num_vertices == 2**31 - 1  # no arrays yet

    def test_name_is_attached(self):
        g = from_edges(2, [(0, 1)], name="toy")
        assert g.name == "toy"


class TestValidation:
    def test_out_of_range_src(self):
        b = GraphBuilder(3)
        with pytest.raises(ValueError, match="out of range"):
            b.add_edge(5, 0)

    def test_out_of_range_dst(self):
        b = GraphBuilder(3)
        with pytest.raises(ValueError, match="out of range"):
            b.add_edge(0, 3)

    def test_negative_vertex(self):
        b = GraphBuilder(3)
        with pytest.raises(ValueError, match="out of range"):
            b.add_edge(-1, 0)

    def test_mismatched_batch_lengths(self):
        b = GraphBuilder(3)
        with pytest.raises(ValueError, match="equal length"):
            b.add_edges([0, 1], [2])


class TestDedupe:
    def test_parallel_edges_removed_by_default(self):
        g = from_edges(2, [(0, 1), (0, 1), (0, 1)])
        assert g.num_arcs == 1

    def test_parallel_edges_kept_when_disabled(self):
        g = from_edges(2, [(0, 1), (0, 1)], dedupe=False)
        assert g.num_arcs == 2

    def test_self_loops_dropped_by_default(self):
        g = from_edges(2, [(0, 0), (0, 1)])
        assert sorted(g.iter_edges()) == [(0, 1)]

    def test_self_loops_kept_when_asked(self):
        g = from_edges(2, [(0, 0)], drop_self_loops=False)
        assert sorted(g.iter_edges()) == [(0, 0)]

    def test_undirected_duplicate_both_directions(self):
        # (0,1) and (1,0) given explicitly collapse to one undirected edge.
        g = from_edges(2, [(0, 1), (1, 0)], undirected=True)
        assert g.num_edges == 1

    def test_rows_sorted_within_vertex(self):
        g = from_edges(4, [(0, 3), (0, 1), (0, 2)])
        assert g.neighbors(0).tolist() == [1, 2, 3]


class TestBatching:
    def test_multiple_batches_concatenate(self):
        b = GraphBuilder(10)
        b.add_edges(np.arange(4), np.arange(4) + 1)
        b.add_edges(np.arange(5, 8), np.arange(5, 8) + 1)
        g = b.build()
        assert g.num_arcs == 7

    def test_build_twice_gives_same_graph(self):
        b = GraphBuilder(5, undirected=True)
        b.add_edges([0, 1], [1, 2])
        g1, g2 = b.build(), b.build()
        assert np.array_equal(g1.indptr, g2.indptr)
        assert np.array_equal(g1.indices, g2.indices)


def reference_csr(n, batches, undirected, dedupe, drop_self_loops):
    """Pure-Python CSR: arcs in the builder's input order, stably sorted by
    ``(src, dst)``, so the first weight added for an arc wins."""
    arcs = [
        (int(s), int(d), None if w is None else float(w[i]))
        for s_arr, d_arr, w in batches
        for i, (s, d) in enumerate(zip(s_arr, d_arr))
    ]
    if undirected:
        arcs += [(d, s, w) for s, d, w in arcs]
    if drop_self_loops:
        arcs = [a for a in arcs if a[0] != a[1]]
    arcs.sort(key=lambda a: (a[0], a[1]))
    if dedupe:
        arcs = [a for i, a in enumerate(arcs) if i == 0 or a[:2] != arcs[i - 1][:2]]
    indptr = np.zeros(n + 1, dtype=np.int64)
    for s, _, _ in arcs:
        indptr[s + 1] += 1
    indptr = np.cumsum(indptr)
    indices = np.array([d for _, d, _ in arcs], dtype=np.int32)
    weighted = batches[0][2] is not None
    weights = np.array([w for *_, w in arcs], dtype=np.float64) if weighted else None
    return indptr, indices, weights


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("num_batches", [1, 3])
@pytest.mark.parametrize("drop_self_loops", [True, False])
@pytest.mark.parametrize("dedupe", [True, False])
@pytest.mark.parametrize("undirected", [False, True])
def test_build_matches_reference(
    undirected, dedupe, drop_self_loops, num_batches, weighted, seed
):
    """Differential: CSR arrays and dtypes equal the pure-Python reference on
    random batches dense enough to carry duplicates and self-loops."""
    rng = np.random.default_rng(seed)
    n = 40
    b = GraphBuilder(n, undirected=undirected)
    batches = []
    for _ in range(num_batches):
        m = int(rng.integers(1, 300))
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        # Guarantee a self-loop and an exact duplicate arc in every batch.
        dst[0] = src[0]
        src[-1], dst[-1] = src[m // 2], dst[m // 2]
        w = rng.permutation(m).astype(np.float64) if weighted else None
        b.add_edges(src, dst, w)
        batches.append((src, dst, w))
    g = b.build(dedupe=dedupe, drop_self_loops=drop_self_loops)
    indptr, indices, weights = reference_csr(
        n, batches, undirected, dedupe, drop_self_loops
    )
    assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int32
    assert np.array_equal(g.indptr, indptr)
    assert np.array_equal(g.indices, indices)
    if weighted:
        assert g.weights.dtype == np.float64
        assert np.array_equal(g.weights, weights)
    else:
        assert g.weights is None

"""CSRGraph storage invariants and accessors."""

import numpy as np
import pytest

from repro.graph.builder import from_edges
from repro.graph.csr import CSRGraph


class TestConstruction:
    def test_empty_graph(self):
        g = CSRGraph(0, np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int32))
        assert g.num_vertices == 0
        assert g.num_arcs == 0

    def test_isolated_vertices(self):
        g = from_edges(5, [])
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert all(g.out_degree(v) == 0 for v in range(5))

    def test_indptr_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="indptr"):
            CSRGraph(3, np.zeros(3, dtype=np.int64), np.empty(0, dtype=np.int32))

    def test_decreasing_indptr_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CSRGraph(2, np.array([0, 2, 1]), np.array([0, 1, 0], dtype=np.int32))

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(ValueError, match="out-of-range"):
            CSRGraph(2, np.array([0, 1, 2]), np.array([0, 5], dtype=np.int32))

    def test_indices_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="indices length"):
            CSRGraph(2, np.array([0, 1, 2]), np.array([0], dtype=np.int32))

    def test_nonzero_indptr_start_rejected(self):
        with pytest.raises(ValueError, match="indptr\\[0\\]"):
            CSRGraph(2, np.array([1, 1, 2]), np.array([0, 1], dtype=np.int32))


class TestAccessors:
    def test_ring_degrees(self, ring10):
        assert ring10.num_vertices == 10
        assert ring10.num_edges == 10
        assert ring10.num_arcs == 20
        assert np.all(ring10.out_degrees() == 2)

    def test_neighbors_sorted_and_correct(self, ring10):
        assert sorted(ring10.neighbors(0).tolist()) == [1, 9]
        assert sorted(ring10.neighbors(5).tolist()) == [4, 6]

    def test_neighbors_view_is_readonly(self, ring10):
        view = ring10.neighbors(0)
        with pytest.raises(ValueError):
            view[0] = 99

    def test_star_degrees(self, star8):
        assert star8.out_degree(0) == 7
        assert all(star8.out_degree(v) == 1 for v in range(1, 8))

    def test_iter_edges_matches_edge_array(self, k5):
        it = sorted(k5.iter_edges())
        arr = sorted(map(tuple, k5.edge_array().tolist()))
        assert it == arr
        assert len(it) == 20  # K5: 10 undirected edges stored twice

    def test_vertices_range(self, path5):
        assert list(path5.vertices()) == [0, 1, 2, 3, 4]

    def test_directed_edge_count_not_halved(self):
        g = from_edges(3, [(0, 1), (1, 2)], undirected=False)
        assert g.num_edges == 2
        assert g.num_arcs == 2


class TestReverseAdjacency:
    def test_in_degrees_undirected_match_out(self, ring10):
        assert np.array_equal(ring10.in_degrees(), ring10.out_degrees())

    def test_directed_in_neighbors(self):
        g = from_edges(4, [(0, 1), (2, 1), (1, 3)], undirected=False)
        assert sorted(g.in_neighbors(1).tolist()) == [0, 2]
        assert g.in_degree(3) == 1
        assert g.in_degree(0) == 0

    def test_reversed_graph(self):
        g = from_edges(3, [(0, 1), (1, 2)], undirected=False)
        r = g.reversed()
        assert sorted(r.iter_edges()) == [(1, 0), (2, 1)]

    def test_reversed_twice_is_identity(self, ba_graph):
        rr = ba_graph.reversed().reversed()
        assert sorted(rr.iter_edges()) == sorted(ba_graph.iter_edges())

    def test_in_neighbors_view_readonly(self, ring10):
        view = ring10.in_neighbors(3)
        with pytest.raises(ValueError):
            view[0] = 1


class TestTransformations:
    def test_as_undirected_symmetrizes(self):
        g = from_edges(3, [(0, 1), (1, 2)], undirected=False)
        u = g.as_undirected()
        assert u.undirected
        assert u.num_edges == 2
        assert sorted(u.neighbors(1).tolist()) == [0, 2]

    def test_as_undirected_noop_on_undirected(self, ring10):
        assert ring10.as_undirected() is ring10

    def test_as_undirected_merges_antiparallel(self):
        g = from_edges(2, [(0, 1), (1, 0)], undirected=False)
        u = g.as_undirected()
        assert u.num_edges == 1

    def test_subgraph_arcs_keeps_selected(self):
        g = from_edges(3, [(0, 1), (0, 2), (1, 2)], undirected=False)
        mask = np.array([True, False, True])
        sub = g.subgraph_arcs(mask)
        assert sorted(sub.iter_edges()) == [(0, 1), (1, 2)]

    def test_subgraph_arcs_wrong_mask_length(self, ring10):
        with pytest.raises(ValueError, match="mask length"):
            ring10.subgraph_arcs(np.array([True]))


class TestMemory:
    def test_memory_bytes_grows_with_reverse(self, ring10):
        before = ring10.memory_bytes()
        ring10.in_degrees()  # forces reverse build
        assert ring10.memory_bytes() > before

    def test_memory_bytes_positive(self, k5):
        assert k5.memory_bytes() > 0

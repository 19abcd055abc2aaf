"""Graph statistics validated against networkx and hand computations."""

import networkx as nx
import numpy as np
import pytest

from repro.graph import generators as gen
from repro.graph.properties import (
    average_shortest_path,
    bfs_levels,
    clustering_coefficient,
    connected_components,
    degree_stats,
    distance_profile,
    effective_diameter,
    largest_component,
    summarize,
)
from tests.conftest import to_networkx


class TestBFS:
    def test_path_distances(self, path5):
        assert bfs_levels(path5, 0).tolist() == [0, 1, 2, 3, 4]

    def test_ring_distances(self, ring10):
        d = bfs_levels(ring10, 0)
        assert d[5] == 5
        assert d[9] == 1

    def test_unreachable_is_minus_one(self):
        g = gen.ring(6)
        from repro.graph.builder import from_edges
        g = from_edges(8, [(0, 1), (2, 3)], undirected=True)
        d = bfs_levels(g, 0)
        assert d[1] == 1
        assert d[2] == -1 and d[7] == -1

    def test_matches_networkx(self, small_world):
        nxg = to_networkx(small_world)
        for s in (0, 17, 42):
            ours = bfs_levels(small_world, s)
            theirs = nx.single_source_shortest_path_length(nxg, s)
            for v in range(small_world.num_vertices):
                assert ours[v] == theirs.get(v, -1)

    def test_invalid_source(self, ring10):
        with pytest.raises(ValueError):
            bfs_levels(ring10, 99)


class TestDistanceProfile:
    def test_path_profile(self, path5):
        # From all 5 sources of a path: distances 1..4 occur 8,6,4,2 times.
        counts = distance_profile(path5)
        assert counts.tolist() == [5, 8, 6, 4, 2]

    def test_sampling_subset(self, small_world):
        full = distance_profile(small_world)
        sub = distance_profile(small_world, sample=10, seed=1)
        assert sub.sum() < full.sum()

    def test_explicit_sources(self, ring10):
        counts = distance_profile(ring10, sources=np.array([0]))
        # ring of 10 from one source: two vertices at 1..4, one at 5
        assert counts.tolist() == [1, 2, 2, 2, 2, 1]


class TestEffectiveDiameter:
    def test_complete_graph_is_one(self, k5):
        assert effective_diameter(k5) <= 1.0

    def test_path_monotone_with_fraction(self, path5):
        lo = effective_diameter(path5, 0.5)
        hi = effective_diameter(path5, 0.99)
        assert lo < hi

    def test_at_most_true_diameter(self, ring10):
        assert effective_diameter(ring10, 0.9) <= 5.0

    def test_interpolation_is_fractional(self):
        g = gen.path(20)
        d = effective_diameter(g, 0.9)
        assert d != int(d)  # generically fractional

    def test_invalid_fraction(self, ring10):
        with pytest.raises(ValueError):
            effective_diameter(ring10, 0.0)

    def test_empty_profile(self):
        from repro.graph.builder import from_edges
        g = from_edges(3, [])
        assert effective_diameter(g) == 0.0


class TestAverageShortestPath:
    def test_matches_networkx(self, small_world):
        nxg = to_networkx(small_world)
        ours = average_shortest_path(small_world)
        theirs = nx.average_shortest_path_length(nxg)
        assert abs(ours - theirs) < 1e-9

    def test_complete_graph(self, k5):
        assert average_shortest_path(k5) == pytest.approx(1.0)


class TestClustering:
    def test_complete_graph_is_one(self, k5):
        assert clustering_coefficient(k5) == pytest.approx(1.0)

    def test_tree_is_zero(self, tree3):
        assert clustering_coefficient(tree3) == 0.0

    def test_matches_networkx(self, small_world):
        nxg = to_networkx(small_world)
        ours = clustering_coefficient(small_world)
        theirs = nx.average_clustering(nxg)
        assert abs(ours - theirs) < 1e-9

    def test_empty_graph(self):
        from repro.graph.builder import from_edges
        assert clustering_coefficient(from_edges(0, [])) == 0.0


class TestComponents:
    def test_connected_graph_single_label(self, ring10):
        assert len(set(connected_components(ring10))) == 1

    def test_two_components(self):
        from repro.graph.builder import from_edges
        g = from_edges(6, [(0, 1), (1, 2), (3, 4)], undirected=True)
        labels = connected_components(g)
        assert labels[0] == labels[2]
        assert labels[3] == labels[4]
        assert labels[0] != labels[3]
        assert len(set(labels)) == 3  # third is isolated vertex 5

    def test_largest_component(self):
        from repro.graph.builder import from_edges
        g = from_edges(7, [(0, 1), (1, 2), (2, 3), (4, 5)], undirected=True)
        assert largest_component(g).tolist() == [0, 1, 2, 3]

    def test_directed_uses_weak_connectivity(self):
        from repro.graph.builder import from_edges
        g = from_edges(3, [(0, 1), (2, 1)], undirected=False)
        assert len(set(connected_components(g))) == 1


def bfs_components(graph):
    """Reference labelling: one BFS per component, seeded in vertex order."""
    g = graph if graph.undirected else graph.as_undirected()
    labels = np.full(g.num_vertices, -1, dtype=np.int64)
    cur = 0
    for seed_v in range(g.num_vertices):
        if labels[seed_v] >= 0:
            continue
        labels[bfs_levels(g, seed_v) >= 0] = cur
        cur += 1
    return labels


class TestComponentsDifferential:
    """Min-hooking labels are bitwise the BFS reference's."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda s: gen.rmat(10, 1, seed=s),
            lambda s: gen.rmat(11, 4, seed=s),
            lambda s: gen.rmat(10, 2, seed=s, undirected=False),
            lambda s: gen.watts_strogatz(300, 4, 0.2, seed=s),
            lambda s: gen.erdos_renyi(400, 0.003, seed=s),
            lambda s: gen.erdos_renyi(300, 0.004, seed=s, directed=True),
        ],
        ids=["rmat-sparse", "rmat", "rmat-directed", "ws", "er", "er-directed"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_labels_equal_reference(self, make, seed):
        g = make(seed)
        labels = connected_components(g)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, bfs_components(g))

    def test_empty_and_isolated(self):
        from repro.graph.builder import from_edges
        assert connected_components(from_edges(0, [])).tolist() == []
        g = from_edges(5, [(4, 2)])
        assert connected_components(g).tolist() == [0, 1, 2, 3, 2]

    @pytest.mark.parametrize("scale", [0.05, 0.5, 2, 8])
    def test_livejournal_analogue_labels(self, scale, monkeypatch):
        """LJ wires its stragglers by component label: checking the labels
        it asks for keeps the generated graph bit-identical."""
        from repro.graph import datasets, properties

        checked = []

        def both(g):
            labels = connected_components(g)
            assert np.array_equal(labels, bfs_components(g))
            checked.append(len(np.unique(labels)))
            return labels

        monkeypatch.setattr(properties, "connected_components", both)
        datasets.livejournal_analogue(scale)
        assert len(checked) == 1 and checked[0] > 1


class TestDegreeStatsAndSummary:
    def test_degree_stats_fields(self, star8):
        s = degree_stats(star8)
        assert s["min"] == 1
        assert s["max"] == 7
        assert s["mean"] == pytest.approx(14 / 8)

    def test_degree_stats_empty(self):
        from repro.graph.builder import from_edges
        s = degree_stats(from_edges(0, []))
        assert s["max"] == 0

    def test_summary_row_renders(self, small_world):
        summ = summarize(small_world, sample=16)
        row = summ.row()
        assert "60" in row
        assert summ.num_edges == small_world.num_edges

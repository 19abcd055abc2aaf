"""Structural graph statistics.

Everything the paper's Table 1 and §IV analysis rely on: degree statistics,
clustering coefficient, BFS distance profiles, average shortest path length,
and the 90% *effective diameter* (the smallest distance d such that at least
90% of reachable ordered pairs are within distance d, with linear
interpolation between integer distances — the standard SNAP definition).

Exact all-pairs profiles are O(|V||E|); :func:`distance_profile` therefore
supports sampling a subset of source vertices, mirroring how the paper
extrapolates BC from a subset of roots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRGraph

__all__ = [
    "bfs_levels",
    "distance_profile",
    "effective_diameter",
    "average_shortest_path",
    "degree_stats",
    "clustering_coefficient",
    "connected_components",
    "largest_component",
    "GraphSummary",
    "summarize",
]


def bfs_levels(graph: CSRGraph, source: int) -> np.ndarray:
    """BFS distance from ``source`` to every vertex (-1 if unreachable).

    Frontier expansion is vectorized: each level gathers all neighbor slices
    of the frontier with one fancy-index per level.
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range")
    dist = np.full(n, -1, dtype=np.int32)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int32)
    level = 0
    indptr, indices = graph.indptr, graph.indices
    while len(frontier):
        level += 1
        # Gather all out-neighbors of the frontier.
        starts, ends = indptr[frontier], indptr[frontier + 1]
        total = int((ends - starts).sum())
        if total == 0:
            break
        out = np.empty(total, dtype=np.int64)
        pos = 0
        for s, e in zip(starts, ends):
            cnt = e - s
            out[pos : pos + cnt] = indices[s:e]
            pos += cnt
        cand = np.unique(out)
        new = cand[dist[cand] < 0]
        dist[new] = level
        frontier = new.astype(np.int32)
    return dist


def distance_profile(
    graph: CSRGraph,
    sources: np.ndarray | None = None,
    sample: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Histogram of BFS distances over (sampled) source vertices.

    Returns ``counts`` where ``counts[d]`` is the number of (source, target)
    ordered pairs at distance exactly ``d`` (d >= 1).  ``counts[0]`` counts
    sources themselves and is excluded from diameter statistics by callers.
    """
    n = graph.num_vertices
    if sources is None:
        if sample is not None and sample < n:
            rng = np.random.default_rng(seed)
            sources = rng.choice(n, size=sample, replace=False)
        else:
            sources = np.arange(n)
    sources = np.asarray(sources)
    hist = np.zeros(1, dtype=np.int64)
    for s in sources:
        dist = bfs_levels(graph, int(s))
        reached = dist[dist >= 0]
        if len(reached) == 0:
            continue
        bc = np.bincount(reached)
        if len(bc) > len(hist):
            hist = np.pad(hist, (0, len(bc) - len(hist)))
        hist[: len(bc)] += bc
    return hist


def effective_diameter(
    graph: CSRGraph,
    fraction: float = 0.9,
    sample: int | None = None,
    seed: int = 0,
) -> float:
    """SNAP-style effective diameter with linear interpolation.

    Smallest (fractional) d such that ``fraction`` of reachable ordered pairs
    (excluding self-pairs) lie within distance d.
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    counts = distance_profile(graph, sample=sample, seed=seed)
    if len(counts) <= 1:
        return 0.0
    pair_counts = counts.copy()
    pair_counts[0] = 0  # self-pairs excluded
    total = pair_counts.sum()
    if total == 0:
        return 0.0
    cum = np.cumsum(pair_counts)
    target = fraction * total
    d = int(np.searchsorted(cum, target))
    if d == 0:
        return 0.0
    prev = cum[d - 1]
    span = cum[d] - prev
    frac = (target - prev) / span if span > 0 else 0.0
    return float(d - 1 + frac) if span > 0 else float(d)


def average_shortest_path(
    graph: CSRGraph, sample: int | None = None, seed: int = 0
) -> float:
    """Mean distance over reachable ordered pairs (excluding self-pairs)."""
    counts = distance_profile(graph, sample=sample, seed=seed)
    if len(counts) <= 1:
        return 0.0
    d = np.arange(len(counts))
    pair_counts = counts.copy()
    pair_counts[0] = 0
    total = pair_counts.sum()
    if total == 0:
        return 0.0
    return float((d * pair_counts).sum() / total)


def degree_stats(graph: CSRGraph) -> dict:
    """Min/mean/max/std of out-degree, plus a power-law tail indicator."""
    deg = graph.out_degrees()
    if len(deg) == 0:
        return {"min": 0, "mean": 0.0, "max": 0, "std": 0.0, "p99_over_mean": 0.0}
    mean = float(deg.mean())
    p99 = float(np.percentile(deg, 99))
    return {
        "min": int(deg.min()),
        "mean": mean,
        "max": int(deg.max()),
        "std": float(deg.std()),
        "p99_over_mean": (p99 / mean) if mean > 0 else 0.0,
    }


def clustering_coefficient(
    graph: CSRGraph, sample: int | None = None, seed: int = 0
) -> float:
    """Mean local clustering coefficient (on the symmetrized graph).

    For each (sampled) vertex: fraction of neighbor pairs that are linked.
    Vertices of degree < 2 contribute 0, matching networkx's convention.
    """
    g = graph if graph.undirected else graph.as_undirected()
    n = g.num_vertices
    if n == 0:
        return 0.0
    if sample is not None and sample < n:
        rng = np.random.default_rng(seed)
        verts = rng.choice(n, size=sample, replace=False)
    else:
        verts = np.arange(n)
    neighbor_sets = None
    total = 0.0
    for v in verts:
        nbrs = g.neighbors(int(v))
        k = len(nbrs)
        if k < 2:
            continue
        nbr_set = set(int(x) for x in nbrs)
        links = 0
        for u in nbrs:
            # count edges among neighbors; each counted twice over unordered
            links += sum(1 for w in g.neighbors(int(u)) if int(w) in nbr_set)
        total += links / (k * (k - 1))
    del neighbor_sets
    return float(total / len(verts))


def connected_components(graph: CSRGraph) -> np.ndarray:
    """Component label per vertex (weakly connected for directed graphs).

    Components are numbered in order of their smallest vertex id.  Min-hooking
    with pointer jumping over the arc arrays: each round hooks every root onto
    the smallest root it shares an arc with, then jumps pointers until every
    vertex points at its root.  A parent is never larger than its vertex, so a
    component's root is its smallest vertex.
    """
    n = graph.num_vertices
    parent = np.arange(n, dtype=np.int64)
    src = np.repeat(np.arange(n), np.diff(graph.indptr))
    dst = graph.indices
    while True:
        ps, pd = parent[src], parent[dst]
        # An arc inside one tree stays inside it: drop it for good.
        live = ps != pd
        if not live.any():
            break
        src, dst, ps, pd = src[live], dst[live], ps[live], pd[live]
        np.minimum.at(parent, np.maximum(ps, pd), np.minimum(ps, pd))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    roots = parent == np.arange(n)
    return (np.cumsum(roots) - 1)[parent]


def largest_component(graph: CSRGraph) -> np.ndarray:
    """Vertex ids of the largest (weakly) connected component."""
    labels = connected_components(graph)
    if len(labels) == 0:
        return np.empty(0, dtype=np.int64)
    sizes = np.bincount(labels)
    return np.flatnonzero(labels == int(np.argmax(sizes)))


@dataclass(frozen=True)
class GraphSummary:
    """Table-1-style row for a dataset."""

    name: str
    num_vertices: int
    num_edges: int
    effective_diameter_90: float
    avg_degree: float
    clustering: float

    def row(self) -> str:
        return (
            f"{self.name:<24s} {self.num_vertices:>10,d} {self.num_edges:>12,d} "
            f"{self.effective_diameter_90:>8.1f} {self.avg_degree:>8.1f} "
            f"{self.clustering:>8.3f}"
        )


def summarize(
    graph: CSRGraph, sample: int | None = 64, seed: int = 0
) -> GraphSummary:
    """Compute the Table-1 analogue row for a graph (sampled for speed)."""
    stats = degree_stats(graph)
    return GraphSummary(
        name=graph.name or "(unnamed)",
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        effective_diameter_90=effective_diameter(graph, 0.9, sample=sample, seed=seed),
        avg_degree=stats["mean"],
        clustering=clustering_coefficient(
            graph, sample=min(sample or graph.num_vertices, 256), seed=seed
        ),
    )

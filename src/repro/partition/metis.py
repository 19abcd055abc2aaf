"""Multilevel k-way partitioner — from-scratch METIS stand-in.

The paper uses METIS [27] as the best-in-class in-place partitioner ("low
edge cut for both graphs": 18% remote edges on WG, 17% on CP vs 86-87% for
hashing).  We implement the same three-phase multilevel scheme METIS
popularized:

1. **Coarsening** — repeated heavy-edge matching: vertices are matched to
   the neighbor with the heaviest connecting edge; matched pairs collapse
   into a single coarse vertex, accumulating vertex and edge weights.
2. **Initial partitioning** — greedy BFS region growing on the coarsest
   graph: grow ``k`` regions from spread-out seeds until each reaches its
   weight target.
3. **Uncoarsening + refinement** — project the partition back level by
   level, each time running boundary refinement (Fiduccia–Mattheyses-style
   greedy gain moves under a balance constraint).

Refinement keeps each level's part connectivity as an ``n x k`` matrix and
visits only a worklist of vertices whose gain is positive.  That is exact
because a vertex's gain changes only when it or a neighbour moves, and every
move updates its neighbours' rows.

The result is deterministic for a fixed seed.  Only the sequential decisions
(matching, region growing, the moves themselves) run per vertex in Python;
everything else is whole-level NumPy.  A 4-way partition of the 3,500-vertex
WG analogue takes ~0.05 s, ``rmat(15, 8)`` (0.47 M arcs) ~1 s and
``rmat(17, 8)`` (1.9 M arcs) ~4 s on a 2-core VM, with a traced peak of
~160 bytes per arc.  On our scaled dataset analogues it reproduces the
paper's qualitative gap: an order-of-magnitude lower remote-edge fraction
than hashing, with near-ideal balance (tests assert both).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph
from .base import Partition, Partitioner

__all__ = ["MultilevelPartitioner"]


@dataclass
class _WGraph:
    """Internal weighted CSR used during coarsening."""

    indptr: np.ndarray
    indices: np.ndarray
    eweights: np.ndarray
    vweights: np.ndarray

    @property
    def n(self) -> int:
        return len(self.vweights)

    @classmethod
    def from_csr(cls, g: CSRGraph, vertex_weight: str = "unit") -> "_WGraph":
        if vertex_weight == "unit":
            vw = np.ones(g.num_vertices, dtype=np.int64)
        elif vertex_weight == "degree":
            # Balance on (degree + 1): per-worker *message* load is what the
            # BSP barrier exposes, and on small analogue graphs vertex-count
            # balance does not self-average into degree balance.
            vw = np.diff(g.indptr).astype(np.int64) + 1
        else:
            raise ValueError("vertex_weight must be 'unit' or 'degree'")
        return cls(
            indptr=g.indptr.astype(np.int64),
            indices=g.indices.astype(np.int64),
            eweights=np.ones(g.num_arcs, dtype=np.int64),
            vweights=vw,
        )


def _heavy_edge_matching(g: _WGraph, rng: np.random.Generator) -> np.ndarray:
    """Match each vertex to at most one neighbor, preferring heavy edges.

    Returns ``match`` where ``match[v]`` is v's partner (or v itself).
    Visit order is randomized (seeded) so star centers don't always match the
    same leaf across levels.  The pass is sequential by nature; it reads one
    adjacency slice per visited vertex as Python ints.
    """
    n = g.n
    match = [-1] * n
    ptr, indices, eweights = g.indptr.tolist(), g.indices, g.eweights
    for v in rng.permutation(n).tolist():
        if match[v] >= 0:
            continue
        s, e = ptr[v], ptr[v + 1]
        best, best_w = -1, -1
        for u, w in zip(indices[s:e].tolist(), eweights[s:e].tolist()):
            if u != v and match[u] < 0 and w > best_w:
                best, best_w = u, w
        if best >= 0:
            match[v] = best
            match[best] = v
        else:
            match[v] = v
    return np.array(match, dtype=np.int64)


def _coarsen(g: _WGraph, match: np.ndarray) -> tuple[_WGraph, np.ndarray]:
    """Collapse matched pairs; returns (coarse graph, fine->coarse map).

    Coarse ids number the pair leaders ``min(v, match[v])`` in ascending
    order.
    """
    n = g.n
    leader = np.minimum(np.arange(n), match)
    cmap = (np.cumsum(leader == np.arange(n)) - 1)[leader]
    cn = int(cmap.max()) + 1
    # Coarse vertex weights.
    cvw = np.zeros(cn, dtype=np.int64)
    np.add.at(cvw, cmap, g.vweights)
    # Coarse edges: map endpoints, drop collapsed self-loops, merge parallels.
    src = np.repeat(np.arange(n), np.diff(g.indptr))
    csrc, cdst = cmap[src], cmap[g.indices]
    keep = csrc != cdst
    csrc, cdst, cw = csrc[keep], cdst[keep], g.eweights[keep]
    if len(csrc):
        key = csrc * cn + cdst
        order = np.argsort(key, kind="stable")
        key, csrc, cdst, cw = key[order], csrc[order], cdst[order], cw[order]
        boundary = np.empty(len(key), dtype=bool)
        boundary[0] = True
        np.not_equal(key[1:], key[:-1], out=boundary[1:])
        group = np.cumsum(boundary) - 1
        merged_w = np.zeros(group[-1] + 1, dtype=np.int64)
        np.add.at(merged_w, group, cw)
        csrc, cdst, cw = csrc[boundary], cdst[boundary], merged_w
    counts = np.bincount(csrc, minlength=cn) if len(csrc) else np.zeros(cn, dtype=np.int64)
    indptr = np.zeros(cn + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return _WGraph(indptr, cdst.copy(), cw.copy(), cvw), cmap


def _initial_partition(
    g: _WGraph, num_parts: int, rng: np.random.Generator
) -> np.ndarray:
    """Greedy BFS region growing on the coarsest graph."""
    n = g.n
    vw = g.vweights.tolist()
    target = sum(vw) / num_parts
    assign = [-1] * n
    loads = [0] * num_parts
    order = rng.permutation(n).tolist()
    cursor = 0
    for p in range(num_parts):
        while cursor < n and assign[order[cursor]] >= 0:
            cursor += 1
        if cursor == n:
            break
        seed = order[cursor]
        frontier = deque([seed])
        assign[seed] = p
        loads[p] += vw[seed]
        while frontier and loads[p] < target:
            v = frontier.popleft()
            s, e = g.indptr[v : v + 2].tolist()
            for u in g.indices[s:e].tolist():
                if assign[u] < 0 and loads[p] < target:
                    assign[u] = p
                    loads[p] += vw[u]
                    frontier.append(u)
    # Any stragglers (disconnected remainder) go to the lightest part.
    for v in range(n):
        if assign[v] < 0:
            p = loads.index(min(loads))
            assign[v] = p
            loads[p] += vw[v]
    return np.array(assign, dtype=np.int32)


def _connectivity(g: _WGraph, assign: np.ndarray, num_parts: int) -> np.ndarray:
    """``conn[v, p]``: total weight of v's arcs into part ``p`` (``n x k``)."""
    conn = np.zeros(g.n * num_parts, dtype=np.int64)
    src = np.repeat(np.arange(g.n), np.diff(g.indptr))
    np.add.at(conn, src * num_parts + assign[g.indices], g.eweights)
    return conn.reshape(g.n, num_parts)


def _gains(conn: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """Cut reduction of moving each row's vertex to its best other part."""
    rows = np.arange(len(parts))
    other = conn.copy()
    other[rows, parts] = -1
    return other.max(axis=1) - conn[rows, parts]


def _loads(g: _WGraph, assign: np.ndarray, num_parts: int) -> list[int]:
    """Total vertex weight per part."""
    loads = np.zeros(num_parts, dtype=np.int64)
    np.add.at(loads, assign, g.vweights)
    return loads.tolist()


def _refine(
    g: _WGraph,
    assign: np.ndarray,
    num_parts: int,
    imbalance: float,
    passes: int,
) -> np.ndarray:
    """FM-style greedy boundary refinement.

    Each pass visits vertices in ascending id and applies a move to the best
    other part when it strictly reduces the cut without violating
    ``max_load <= imbalance * ideal``.  Only a worklist is visited: vertices
    with positive gain at pass start, plus later-id neighbours of a moved
    vertex whose gain turned positive; loads are checked at visit time.
    Adjacency is symmetric, so a move's own arcs name every row it changes.
    """
    loads = _loads(g, assign, num_parts)
    max_load = imbalance * sum(loads) / num_parts
    conn = _connectivity(g, assign, num_parts)
    flat = conn.reshape(-1)

    for _ in range(passes):
        moved = 0
        work = np.flatnonzero(_gains(conn, assign) > 0).tolist()
        last = -1
        while work:
            v = heapq.heappop(work)
            if v == last:  # queued twice: the copies pop back to back
                continue
            last = v
            row = conn[v].tolist()
            my = int(assign[v])
            internal = row[my]
            row[my] = -1
            best = max(row)
            if best <= internal:
                continue
            best_p = row.index(best)
            w = int(g.vweights[v])
            if loads[best_p] + w > max_load:
                continue
            assign[v] = best_p
            loads[my] -= w
            loads[best_p] += w
            moved += 1
            s, e = g.indptr[v : v + 2].tolist()
            nbrs, wts = g.indices[s:e], g.eweights[s:e]
            np.subtract.at(flat, nbrs * num_parts + my, wts)
            np.add.at(flat, nbrs * num_parts + best_p, wts)
            later = nbrs[nbrs > v]
            for u in later[_gains(conn[later], assign[later]) > 0].tolist():
                heapq.heappush(work, u)
        if moved == 0:
            break
    return assign


def _rebalance(
    g: _WGraph,
    assign: np.ndarray,
    num_parts: int,
    imbalance: float,
) -> np.ndarray:
    """Force-move vertices out of overloaded parts (least cut damage first).

    Region growing on a lumpy coarse graph can leave parts well over the
    balance target; plain FM never empties an overloaded part because those
    moves have negative gain.  This pass restores ``max_load <= imbalance *
    ideal`` by evicting the cheapest boundary vertices.
    """
    loads = _loads(g, assign, num_parts)
    max_load = imbalance * sum(loads) / num_parts

    for _ in range(4 * num_parts):  # bounded; each round fixes one part
        heavy = loads.index(max(loads))
        if loads[heavy] <= max_load:
            break
        members = np.flatnonzero(assign == heavy)
        # Score every member's best move: (-gain, v) order, and the
        # least-loaded among the best-connected destinations.
        conn = _connectivity(g, assign, num_parts)[members]
        internal = conn[:, heavy].copy()
        conn[:, heavy] = np.iinfo(np.int64).min
        best = conn.max(axis=1)
        tied = conn == best[:, None]
        dest = np.where(tied, loads, np.iinfo(np.int64).max).argmin(axis=1)
        order = np.argsort(internal - best, kind="stable")
        movers = members[order]
        progressed = False
        for v, d, w in zip(
            movers.tolist(), dest[order].tolist(), g.vweights[movers].tolist()
        ):
            if loads[heavy] <= max_load:
                break
            if loads[d] + w > max_load:
                continue
            assign[v] = d
            loads[heavy] -= w
            loads[d] += w
            progressed = True
        if not progressed:
            break
    return assign


class MultilevelPartitioner(Partitioner):
    """METIS-style multilevel k-way partitioner (see module docstring).

    Parameters
    ----------
    seed:
        Seeds matching order and region-growing seeds; fixed seed -> fixed
        partition.
    imbalance:
        Allowed load imbalance factor for refinement (METIS default ~1.03;
        we default to 1.05 for small coarse graphs).
    coarsen_until:
        Stop coarsening when ``n <= coarsen_until * num_parts``.
    refine_passes:
        Max FM passes per uncoarsening level.
    """

    name = "METIS"

    def __init__(
        self,
        seed: int = 0,
        imbalance: float = 1.05,
        coarsen_until: int = 25,
        refine_passes: int = 6,
        vertex_weight: str = "degree",
    ) -> None:
        if imbalance < 1.0:
            raise ValueError("imbalance must be >= 1.0")
        if vertex_weight not in ("unit", "degree"):
            raise ValueError("vertex_weight must be 'unit' or 'degree'")
        self.seed = seed
        self.imbalance = float(imbalance)
        self.coarsen_until = int(coarsen_until)
        self.refine_passes = int(refine_passes)
        self.vertex_weight = vertex_weight

    def partition(self, graph: CSRGraph, num_parts: int) -> Partition:
        if num_parts <= 0:
            raise ValueError("num_parts must be positive")
        if num_parts == 1:
            return Partition(1, np.zeros(graph.num_vertices, dtype=np.int32))
        # Partitioning quality needs symmetric adjacency.
        sym = graph if graph.undirected else graph.as_undirected()
        rng = np.random.default_rng(self.seed)

        levels: list[tuple[_WGraph, np.ndarray]] = []
        g = _WGraph.from_csr(sym, vertex_weight=self.vertex_weight)
        limit = max(self.coarsen_until * num_parts, 2 * num_parts)
        while g.n > limit:
            match = _heavy_edge_matching(g, rng)
            coarse, cmap = _coarsen(g, match)
            if coarse.n >= g.n * 0.95:  # matching stalled (e.g. star graphs)
                break
            levels.append((g, cmap))
            g = coarse

        assign = _initial_partition(g, num_parts, rng)
        assign = _rebalance(g, assign, num_parts, self.imbalance)
        assign = _refine(g, assign, num_parts, self.imbalance, self.refine_passes)

        # Uncoarsen: project through each saved level and refine.
        for fine, cmap in reversed(levels):
            assign = assign[cmap]
            assign = _rebalance(fine, assign, num_parts, self.imbalance)
            assign = _refine(
                fine, assign, num_parts, self.imbalance, self.refine_passes
            )
        return Partition(num_parts, assign.astype(np.int32))

"""The multilevel partitioner as it was before its refinement was vectorised.

One NumPy call per vertex visit in matching, growth, refinement and
rebalance.  Kept verbatim as the reference ``test_metis_differential.py``
compares ``MultilevelPartitioner`` against: both must return the same
assignment for every graph, part count, seed and option.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph


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

    def neighbors(self, v: int):
        s, e = self.indptr[v], self.indptr[v + 1]
        return self.indices[s:e], self.eweights[s:e]


def _heavy_edge_matching(g: _WGraph, rng: np.random.Generator) -> np.ndarray:
    """Match each vertex to at most one neighbor, preferring heavy edges.

    Returns ``match`` where ``match[v]`` is v's partner (or v itself).
    Visit order is randomized (seeded) so star centers don't always match the
    same leaf across levels.
    """
    n = g.n
    match = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    for v in order:
        if match[v] >= 0:
            continue
        nbrs, wts = g.neighbors(int(v))
        best, best_w = -1, -1
        for u, w in zip(nbrs, wts):
            ui = int(u)
            if ui != v and match[ui] < 0 and w > best_w:
                best, best_w = ui, int(w)
        if best >= 0:
            match[v] = best
            match[best] = v
        else:
            match[v] = v
    return match


def _coarsen(g: _WGraph, match: np.ndarray) -> tuple[_WGraph, np.ndarray]:
    """Collapse matched pairs; returns (coarse graph, fine->coarse map)."""
    n = g.n
    cmap = np.full(n, -1, dtype=np.int64)
    nxt = 0
    for v in range(n):
        if cmap[v] >= 0:
            continue
        u = int(match[v])
        cmap[v] = nxt
        if u != v:
            cmap[u] = nxt
        nxt += 1
    cn = nxt
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
    total = int(g.vweights.sum())
    target = total / num_parts
    assign = np.full(n, -1, dtype=np.int32)
    loads = np.zeros(num_parts, dtype=np.int64)
    order = rng.permutation(n)
    cursor = 0

    def next_seed() -> int:
        nonlocal cursor
        while cursor < n and assign[order[cursor]] >= 0:
            cursor += 1
        return int(order[cursor]) if cursor < n else -1

    for p in range(num_parts):
        seed = next_seed()
        if seed < 0:
            break
        frontier = [seed]
        assign[seed] = p
        loads[p] += g.vweights[seed]
        while frontier and loads[p] < target:
            v = frontier.pop(0)
            nbrs, _ = g.neighbors(v)
            for u in nbrs:
                ui = int(u)
                if assign[ui] < 0 and loads[p] < target:
                    assign[ui] = p
                    loads[p] += g.vweights[ui]
                    frontier.append(ui)
    # Any stragglers (disconnected remainder) go to the lightest part.
    for v in range(n):
        if assign[v] < 0:
            p = int(np.argmin(loads))
            assign[v] = p
            loads[p] += g.vweights[v]
    return assign


def _refine(
    g: _WGraph,
    assign: np.ndarray,
    num_parts: int,
    imbalance: float,
    passes: int,
) -> np.ndarray:
    """FM-style greedy boundary refinement.

    Each pass visits boundary vertices in order of best gain and applies a
    move when it strictly reduces the cut without violating
    ``max_load <= imbalance * ideal``.
    """
    n = g.n
    loads = np.zeros(num_parts, dtype=np.int64)
    np.add.at(loads, assign, g.vweights)
    total = int(g.vweights.sum())
    max_load = imbalance * total / num_parts

    for _ in range(passes):
        moved = 0
        for v in range(n):
            nbrs, wts = g.neighbors(v)
            if len(nbrs) == 0:
                continue
            my = assign[v]
            # Connectivity of v to each part.
            conn = np.zeros(num_parts, dtype=np.int64)
            np.add.at(conn, assign[nbrs], wts)
            internal = conn[my]
            conn[my] = -1
            best_p = int(np.argmax(conn))
            gain = int(conn[best_p]) - int(internal)
            if gain <= 0:
                continue
            if loads[best_p] + g.vweights[v] > max_load:
                continue
            if loads[my] - g.vweights[v] < 0:
                continue
            assign[v] = best_p
            loads[my] -= g.vweights[v]
            loads[best_p] += g.vweights[v]
            moved += 1
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
    n = g.n
    loads = np.zeros(num_parts, dtype=np.int64)
    np.add.at(loads, assign, g.vweights)
    total = int(g.vweights.sum())
    max_load = imbalance * total / num_parts

    for _ in range(4 * num_parts):  # bounded; each round fixes one part
        heavy = int(np.argmax(loads))
        if loads[heavy] <= max_load:
            break
        members = np.flatnonzero(assign == heavy)
        # Rank members by (gain of best move), move best ones until balanced.
        candidates: list[tuple[int, int, int]] = []  # (-gain, v, dest)
        for v in members:
            nbrs, wts = g.neighbors(int(v))
            conn = np.zeros(num_parts, dtype=np.int64)
            if len(nbrs):
                np.add.at(conn, assign[nbrs], wts)
            internal = int(conn[heavy])
            conn[heavy] = np.iinfo(np.int64).min
            # Prefer least-loaded among the best-connected destinations.
            best = int(conn.max())
            dests = np.flatnonzero(conn == best)
            dest = int(dests[np.argmin(loads[dests])])
            candidates.append((internal - best, int(v), dest))
        candidates.sort()
        progressed = False
        for _, v, dest in candidates:
            if loads[heavy] <= max_load:
                break
            if loads[dest] + g.vweights[v] > max_load:
                continue
            assign[v] = dest
            loads[heavy] -= g.vweights[v]
            loads[dest] += g.vweights[v]
            progressed = True
        if not progressed:
            break
    return assign


def reference_partition(
    graph: CSRGraph,
    num_parts: int,
    seed: int = 0,
    imbalance: float = 1.05,
    coarsen_until: int = 25,
    refine_passes: int = 6,
    vertex_weight: str = "degree",
) -> np.ndarray:
    """``MultilevelPartitioner(...).partition(graph, num_parts).assignment``."""
    if num_parts == 1:
        return np.zeros(graph.num_vertices, dtype=np.int32)
    # Partitioning quality needs symmetric adjacency.
    sym = graph if graph.undirected else graph.as_undirected()
    rng = np.random.default_rng(seed)

    levels: list[tuple[_WGraph, np.ndarray]] = []
    g = _WGraph.from_csr(sym, vertex_weight=vertex_weight)
    limit = max(coarsen_until * num_parts, 2 * num_parts)
    while g.n > limit:
        match = _heavy_edge_matching(g, rng)
        coarse, cmap = _coarsen(g, match)
        if coarse.n >= g.n * 0.95:  # matching stalled (e.g. star graphs)
            break
        levels.append((g, cmap))
        g = coarse

    assign = _initial_partition(g, num_parts, rng)
    assign = _rebalance(g, assign, num_parts, imbalance)
    assign = _refine(g, assign, num_parts, imbalance, refine_passes)

    # Uncoarsen: project through each saved level and refine.
    for fine, cmap in reversed(levels):
        assign = assign[cmap]
        assign = _rebalance(fine, assign, num_parts, imbalance)
        assign = _refine(
            fine, assign, num_parts, imbalance, refine_passes
        )
    return assign.astype(np.int32)

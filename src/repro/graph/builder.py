"""Edge-list accumulation into :class:`~repro.graph.csr.CSRGraph`.

The builder accepts edges in any order (singly for undirected graphs — the
reverse arc is added automatically), then materializes CSR arrays by sorting
one int64 key ``src * n + dst`` per arc.  For an unweighted graph the sorted
keys already are the CSR: ``divmod(key, n)`` gives each arc's row and column,
and dedupe is an adjacent-duplicate scan.  A weighted graph sorts a stable
permutation of the keys instead, because its weights must travel with their
arcs and the first weight added for a parallel arc wins.  This is the only
place adjacency is constructed, so dedupe / self-loop policy lives here.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRGraph

__all__ = ["GraphBuilder", "from_edges"]


class GraphBuilder:
    """Accumulate edges, then :meth:`build` a CSR graph.

    Parameters
    ----------
    num_vertices:
        Fixed vertex-id domain ``0..num_vertices-1``.  Ids outside the domain
        raise at :meth:`add_edges` time.
    undirected:
        When True each added edge also stores the reverse arc and the built
        graph is flagged undirected.
    """

    def __init__(self, num_vertices: int, undirected: bool = False) -> None:
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        self.num_vertices = int(num_vertices)
        self.undirected = bool(undirected)
        self._src_chunks: list[np.ndarray] = []
        self._dst_chunks: list[np.ndarray] = []
        self._w_chunks: list[np.ndarray | None] = []

    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, weight: float | None = None) -> None:
        self.add_edges(
            np.array([u]), np.array([v]),
            None if weight is None else np.array([weight]),
        )

    def add_edges(self, src, dst, weights=None) -> None:
        """Add a batch of arcs (``src[i] -> dst[i]``), optionally weighted.

        Weighted and unweighted batches must not be mixed in one builder.
        """
        src = np.asarray(src, dtype=np.int64).ravel()
        dst = np.asarray(dst, dtype=np.int64).ravel()
        if len(src) != len(dst):
            raise ValueError("src and dst must have equal length")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64).ravel()
            if len(weights) != len(src):
                raise ValueError("weights must match edge count")
        if self._w_chunks and (self._w_chunks[-1] is None) != (weights is None):
            raise ValueError("cannot mix weighted and unweighted batches")
        if len(src) == 0:
            return
        lo = min(src.min(), dst.min())
        hi = max(src.max(), dst.max())
        if lo < 0 or hi >= self.num_vertices:
            raise ValueError(
                f"edge endpoint out of range [0, {self.num_vertices}): "
                f"saw [{lo}, {hi}]"
            )
        self._src_chunks.append(src.astype(np.int32))
        self._dst_chunks.append(dst.astype(np.int32))
        self._w_chunks.append(weights)

    def add_edge_iter(self, edges) -> None:
        """Add edges from an iterable of ``(u, v)`` pairs."""
        pairs = np.array(list(edges), dtype=np.int64)
        if pairs.size == 0:
            return
        self.add_edges(pairs[:, 0], pairs[:, 1])

    @property
    def pending_arcs(self) -> int:
        return sum(len(c) for c in self._src_chunks)

    # ------------------------------------------------------------------
    def build(
        self,
        dedupe: bool = True,
        drop_self_loops: bool = True,
        name: str = "",
    ) -> CSRGraph:
        """Materialize the CSR graph.

        ``dedupe`` removes parallel arcs; ``drop_self_loops`` removes
        ``v -> v`` arcs.  Both default on: the paper's datasets are simple
        graphs.
        """
        n = self.num_vertices
        weighted = bool(self._w_chunks) and self._w_chunks[-1] is not None
        if self._src_chunks:
            src = np.concatenate(self._src_chunks)
            dst = np.concatenate(self._dst_chunks)
            w = np.concatenate(self._w_chunks) if weighted else None
        else:
            src = np.empty(0, dtype=np.int32)
            dst = np.empty(0, dtype=np.int32)
            w = None

        if self.undirected and len(src):
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
            if w is not None:
                w = np.concatenate([w, w])

        if drop_self_loops and len(src):
            keep = src != dst
            src, dst = src[keep], dst[keep]
            if w is not None:
                w = w[keep]

        if w is None:
            # The sorted (src, dst) keys are the CSR: no permutation needed.
            key = src.astype(np.int64)
            key *= n
            key += dst
            key.sort()
            if dedupe and len(key):
                key = key[_first_of_runs(key)]
            src, dst = np.divmod(key, n)
            dst = dst.astype(np.int32)
        elif len(src):
            # "First weight wins" needs a stable permutation to carry the
            # weights along with their arcs.
            key = src.astype(np.int64) * n + dst.astype(np.int64)
            order = np.argsort(key, kind="stable")
            src, dst, key, w = src[order], dst[order], key[order], w[order]
            if dedupe:
                keep = _first_of_runs(key)
                src, dst, w = src[keep], dst[keep], w[keep]

        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return CSRGraph(
            n, indptr, dst, undirected=self.undirected, name=name, weights=w,
        )


def _first_of_runs(key: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal adjacent ``key``s."""
    keep = np.empty(len(key), dtype=bool)
    keep[0] = True
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    return keep


def from_edges(
    num_vertices: int,
    edges,
    undirected: bool = False,
    dedupe: bool = True,
    drop_self_loops: bool = True,
    name: str = "",
    weights=None,
) -> CSRGraph:
    """One-shot convenience wrapper around :class:`GraphBuilder`."""
    b = GraphBuilder(num_vertices, undirected=undirected)
    edges = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if edges.size:
        edges = edges.reshape(-1, 2)
        b.add_edges(edges[:, 0], edges[:, 1], weights)
    return b.build(dedupe=dedupe, drop_self_loops=drop_self_loops, name=name)

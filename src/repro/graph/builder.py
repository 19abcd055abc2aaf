"""Edge-list accumulation into :class:`~repro.graph.csr.CSRGraph`.

The builder accepts edges in any order (singly for undirected graphs — the
reverse arc is added automatically), then materializes CSR arrays by sorting
one int64 key ``src * n + dst`` per arc.  For an unweighted graph the sorted
keys already are the CSR: ``key % n`` is each arc's column, a binary search
for ``v * n`` is row ``v``'s offset, and dedupe is an adjacent-duplicate
scan.  A weighted graph sorts a stable permutation of the keys instead,
because its weights must travel with their arcs and the first weight added
for a parallel arc wins.  This is the only place adjacency is constructed,
so dedupe / self-loop policy lives here.

Ids are stored as ``int32`` (the CSR's index type), so ``num_vertices`` is
capped at ``2**31 - 1``; ``int32`` id columns are taken without widening.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRGraph

__all__ = ["GraphBuilder", "from_edges"]

#: the most vertices an ``int32``-indexed CSR can name
MAX_VERTICES = 2**31 - 1


class GraphBuilder:
    """Accumulate edges, then :meth:`build` a CSR graph.

    Parameters
    ----------
    num_vertices:
        Fixed vertex-id domain ``0..num_vertices-1``, at most
        :data:`MAX_VERTICES`.  Ids outside the domain raise at
        :meth:`add_edges` time.
    undirected:
        When True each added edge also stores the reverse arc and the built
        graph is flagged undirected.
    """

    def __init__(self, num_vertices: int, undirected: bool = False) -> None:
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        if num_vertices > MAX_VERTICES:
            raise ValueError(
                f"num_vertices {num_vertices} exceeds the int32 CSR limit "
                f"{MAX_VERTICES}"
            )
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
        src, dst = _ids(src), _ids(dst)
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
        src, dst = _joined(self._src_chunks), _joined(self._dst_chunks)
        w = _joined(self._w_chunks) if weighted else None

        if drop_self_loops:
            # before the reverse arcs: a self-loop's reverse is one too, and
            # the kept arcs stay in the order the weighted path relies on
            keep = src != dst
            if not keep.all():
                src, dst = src[keep], dst[keep]
                if w is not None:
                    w = w[keep]
            del keep

        if w is None:
            # The sorted (src, dst) keys are the CSR: no permutation needed.
            key = _keys(src, dst, n, self.undirected)
            del src, dst
            key.sort()
            if dedupe and len(key):
                keep = _first_of_runs(key)
                if not keep.all():
                    key = key[keep]
                del keep
            indptr = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * n)
            np.remainder(key, n, out=key)
            dst = key.astype(np.int32)
            del key
        else:
            if self.undirected:
                src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
                w = np.concatenate([w, w])
            if len(src):
                # "First weight wins" needs a stable permutation to carry
                # the weights along with their arcs.
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


def _ids(ids) -> np.ndarray:
    """A 1-D id column: ``int32`` arrays as they are, anything else int64."""
    if not (isinstance(ids, np.ndarray) and ids.dtype == np.int32):
        ids = np.asarray(ids, dtype=np.int64)
    return ids.reshape(-1)  # a view for any 1-D array, strided or not


def _joined(chunks: list) -> np.ndarray:
    """The batches end to end; a lone batch is used as it is, not copied."""
    if len(chunks) == 1:
        return chunks[0]
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int32)


def _keys(src: np.ndarray, dst: np.ndarray, n: int, undirected: bool) -> np.ndarray:
    """One int64 ``src * n + dst`` per arc, the reverse arcs after the
    forward ones when ``undirected``; written in place, no widened copies."""
    m = len(src)
    key = np.empty(2 * m if undirected else m, dtype=np.int64)
    np.multiply(src, n, out=key[:m], dtype=np.int64)
    key[:m] += dst
    if undirected:
        np.multiply(dst, n, out=key[m:], dtype=np.int64)
        key[m:] += src
    return key


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

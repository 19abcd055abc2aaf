"""The dense shard's arc arrays as every shard built them before the job's
arc layout was computed once: each shard coded the whole graph's vertices
again and kept an int64 ``src`` and ``dst`` per arc.

Kept as the oracle ``test_dense_layout.py`` compares
:class:`~repro.bsp.dense_shard.DenseLayout` slices and the shards built from
them against, as ``dense_eval_reference.py`` serves the lowering.  The one
change from that constructor: owner tables are sized from ``num_parts``,
so a trailing worker that owns no vertex still has its (empty) group.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any

import numpy as np

_INT_MAX = np.iinfo(np.int64).max


def reference_arcs(worker_id: int, graph: Any, vertex_ids: Any,
                   assignment: Any, num_parts: int,
                   active_ids: Any = None) -> SimpleNamespace:
    """One worker's rows and arcs the old way: ``rows``, ``src``, ``dst``,
    ``bounds``, ``weights``, ``static_degree``, ``halted``, ``reached`` and
    the peel plans' ``arc_order``/``arc_keys``."""
    assign = np.asarray(assignment)
    nv = int(graph.num_vertices)
    owned = np.bincount(assign, minlength=num_parts)  # vertices per worker
    narrow = np.min_scalar_type(len(owned))
    rows = np.sort(np.asarray(vertex_ids, dtype=np.int64))
    n = len(rows)
    indptr = np.asarray(graph.indptr, dtype=np.int64)
    deg = indptr[rows + 1] - indptr[rows]
    m = int(deg.sum())
    # this worker's arcs in CSR order, as positions in graph.indices
    pos = np.repeat(indptr[rows] - (np.cumsum(deg) - deg), deg)
    pos += np.arange(m)
    dst = np.asarray(graph.indices)[pos]
    # every vertex as its owner (high half) and its row in the owner's
    # sorted vertex list (low half)
    code = np.empty(nv, dtype=np.int64)
    code[np.argsort(assign.astype(narrow), kind="stable")] = (
        np.arange(nv) - np.repeat(np.cumsum(owned) - owned, owned))
    code += assign.astype(np.int64) << 32
    code = code[dst]
    group = np.argsort((code >> 32).astype(narrow), kind="stable")
    weights = (None if graph.weights is None
               else np.asarray(graph.weights)[pos[group]].astype(np.float64))
    code = code[group]
    bounds = np.searchsorted(
        code, np.arange(len(owned) + 1, dtype=np.int64) << 32)
    src = np.repeat(np.arange(n), deg)[group]
    code &= 0xFFFFFFFF

    halted = np.zeros(n, dtype=bool)
    if active_ids is not None:
        awake = np.zeros(nv, dtype=bool)
        if len(active_ids):
            awake[np.asarray(active_ids, dtype=np.int64)] = True
        halted = ~awake[rows]
    reached = [
        np.flatnonzero(np.bincount(code[bounds[u]:bounds[u + 1]],
                                   minlength=rows_u))
        for u, rows_u in enumerate(owned.tolist())
    ]
    key = src * nv + dst[group]
    arc_order = np.argsort(key, kind="stable")
    return SimpleNamespace(
        rows=rows, src=src, dst=code, bounds=bounds.tolist(), weights=weights,
        static_degree=deg, halted=halted, reached=reached,
        arc_order=arc_order, arc_keys=np.append(key[arc_order], _INT_MAX),
    )

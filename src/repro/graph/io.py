"""Graph serialization: SNAP-style edge-list text and compact ``.npz``.

The paper's workers read graph files from cloud blob storage; our
:mod:`repro.cloud.blob` stand-in stores exactly these formats.  Both writers
round-trip losslessly (tests assert this).
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from .builder import GraphBuilder
from .csr import CSRGraph

__all__ = [
    "write_edge_list",
    "read_edge_list",
    "write_npz",
    "read_npz",
    "to_edge_list_bytes",
    "from_edge_list_bytes",
]


def write_edge_list(graph: CSRGraph, path: str | Path) -> None:
    """Write a SNAP-style edge list: ``# comment`` header then ``u\\tv`` rows.

    For undirected graphs only the ``u < v`` arc is written.
    """
    Path(path).write_bytes(to_edge_list_bytes(graph))


def to_edge_list_bytes(graph: CSRGraph) -> bytes:
    buf = io.StringIO()
    kind = "undirected" if graph.undirected else "directed"
    buf.write(f"# repro graph: {graph.name or 'unnamed'}\n")
    buf.write(f"# kind: {kind}\n")
    buf.write(f"# nodes: {graph.num_vertices} arcs: {graph.num_arcs}\n")
    if graph.weighted:
        buf.write("# weighted: true\n")
        for v in range(graph.num_vertices):
            nbrs = graph.neighbors(v)
            ws = graph.neighbor_weights(v)
            for u, w in zip(nbrs, ws):
                if not graph.undirected or v < int(u):
                    buf.write(f"{v}\t{int(u)}\t{float(w)!r}\n")
        return buf.getvalue().encode()
    edges = graph.edge_array()
    if graph.undirected:
        edges = edges[edges[:, 0] < edges[:, 1]]
    for u, v in edges:
        buf.write(f"{u}\t{v}\n")
    return buf.getvalue().encode()


def read_edge_list(path: str | Path) -> CSRGraph:
    return from_edge_list_bytes(Path(path).read_bytes())


def from_edge_list_bytes(data: bytes) -> CSRGraph:
    """Parse :func:`to_edge_list_bytes` output (or any SNAP edge list).

    Header comments are optional; without a ``# nodes:`` line the vertex
    count is ``max id + 1`` and the graph is treated as directed.  Every
    edge line has the field count of the first: ``u v`` or ``u v weight``.
    """
    name = ""
    undirected = False
    weighted = False
    declared_n: int | None = None
    at = data.find(b"#")
    while at >= 0:  # header keys: hop from comment to comment
        end = data.find(b"\n", at)
        if end < 0:
            end = len(data)
        key, _, value = data[at + 1:end].decode().partition(":")
        key, value = key.strip(), value.strip()
        if key == "repro graph":
            name = "" if value == "unnamed" else value
        elif key == "kind":
            undirected = value == "undirected"
        elif key == "nodes":
            declared_n = int(value.partition(" ")[0])
        elif key == "weighted":
            weighted = value == "true"
        at = data.find(b"#", end)
    fields = 0
    for line in io.BytesIO(data):  # stops at the first edge line
        fields = len(line.partition(b"#")[0].split())
        if fields:
            break
    if not fields:
        return GraphBuilder(declared_n or 0, undirected=undirected).build(name=name)
    if not 2 <= fields <= 3:
        raise ValueError(f"malformed edge line: {line!r}")
    if weighted and fields == 2:
        raise ValueError(f"missing weight on line: {line!r}")
    weighted = fields == 3
    dtype = [("u", np.int64), ("v", np.int64)]
    if weighted:
        dtype.append(("w", np.float64))
    try:
        # no usecols: a line with another field count, or an id that is not
        # a decimal int64, is an error
        edges = np.loadtxt(io.BytesIO(data), dtype=dtype, comments="#", ndmin=1)
    except ValueError as exc:
        missing = "missing weight or " if weighted else ""
        raise ValueError(f"{missing}malformed edge line: {exc}") from None
    src, dst = edges["u"], edges["v"]
    n = declared_n if declared_n is not None else int(max(src.max(), dst.max())) + 1
    b = GraphBuilder(n, undirected=undirected)
    b.add_edges(src, dst, edges["w"] if weighted else None)
    return b.build(name=name)


def write_npz(graph: CSRGraph, path: str | Path) -> None:
    """Compact binary form: CSR arrays + metadata, via numpy ``.npz``."""
    arrays = dict(
        indptr=graph.indptr,
        indices=graph.indices,
        num_vertices=np.int64(graph.num_vertices),
        undirected=np.bool_(graph.undirected),
        name=np.str_(graph.name),
    )
    if graph.weights is not None:
        arrays["weights"] = graph.weights
    np.savez_compressed(Path(path), **arrays)


def read_npz(path: str | Path) -> CSRGraph:
    with np.load(Path(path), allow_pickle=False) as z:
        return CSRGraph(
            int(z["num_vertices"]),
            z["indptr"],
            z["indices"],
            undirected=bool(z["undirected"]),
            name=str(z["name"]),
            weights=z["weights"] if "weights" in z else None,
        )

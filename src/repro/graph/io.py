"""Graph serialization: SNAP-style edge-list text and compact ``.npz``.

The paper's workers read graph files from cloud blob storage; our
:mod:`repro.cloud.blob` stand-in stores exactly these formats.  Both writers
round-trip losslessly (tests assert this).

Edge lists are read on one of two paths:

* **Canonical** files, the layout :func:`write_edge_list` emits and SNAP
  uses: a leading block of ``#`` lines, then only lines of the form
  ``digits SEP digits\\n`` with SEP one tab or one space, at least one such
  line, and ids of at most 18 digits.  The body is checked in chunks of
  about 1 MB cut at newlines (its bytes, separators and token lengths, over
  a ``uint8`` view) and then parsed by one ``np.fromstring`` call, into
  ``int32`` when no id has more than 9 digits and ``int64`` otherwise.
  :func:`read_edge_list` reads the header and the body separately, so the
  body is held once, and drops it once parsed.  The traced peak of a load
  is then the builder's: about 17 bytes per CSR arc on ``rmat(17, 8)``
  (``np.loadtxt`` took 51), plus a few MB for the chunked check; a test
  bounds it at 30 bytes per arc on ``rmat(15, 8)``.
* **Everything else** (weights, CRLF line ends, padding, blank lines,
  comments after the first edge line, a missing final newline, signs,
  longer ids, malformed lines) goes to ``np.loadtxt`` over the whole file,
  which accepts and refuses exactly what it did before the canonical path
  existed, with the same error messages.

Both paths build the same CSR through :class:`GraphBuilder`.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterator

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

#: canonical bodies are checked this many bytes at a time (cut at newlines)
_CHECK_CHUNK = 1 << 20
#: rows formatted per ``str.join`` by the writer
_WRITE_ROWS = 1 << 18
#: the longest id the canonical path parses; 10**18 - 1 < 2**63
_MAX_DIGITS = 18


def write_edge_list(graph: CSRGraph, path: str | Path) -> None:
    """Write a SNAP-style edge list: ``# comment`` header then ``u\\tv`` rows.

    For undirected graphs only the ``u < v`` arc is written.
    """
    with open(path, "wb") as f:
        f.writelines(_edge_list_pieces(graph))


def to_edge_list_bytes(graph: CSRGraph) -> bytes:
    return b"".join(_edge_list_pieces(graph))


def _edge_list_pieces(graph: CSRGraph) -> Iterator[bytes]:
    kind = "undirected" if graph.undirected else "directed"
    header = (
        f"# repro graph: {graph.name or 'unnamed'}\n"
        f"# kind: {kind}\n"
        f"# nodes: {graph.num_vertices} arcs: {graph.num_arcs}\n"
    )
    if graph.weighted:
        buf = io.StringIO()
        buf.write(header + "# weighted: true\n")
        for v in range(graph.num_vertices):
            nbrs = graph.neighbors(v)
            ws = graph.neighbor_weights(v)
            for u, w in zip(nbrs, ws):
                if not graph.undirected or v < int(u):
                    buf.write(f"{v}\t{int(u)}\t{float(w)!r}\n")
        yield buf.getvalue().encode()
        return
    yield header.encode()
    edges = graph.edge_array()
    if graph.undirected:
        edges = edges[edges[:, 0] < edges[:, 1]]
    for lo in range(0, len(edges), _WRITE_ROWS):
        rows = edges[lo:lo + _WRITE_ROWS]
        text = "\n".join(map("{}\t{}".format, rows[:, 0].tolist(), rows[:, 1].tolist()))
        yield (text + "\n").encode()


def read_edge_list(path: str | Path) -> CSRGraph:
    with open(path, "rb") as f:
        header = b""
        while f.peek(1)[:1] == b"#":
            header += f.readline()
        # the rest straight from the raw file: one allocation, no joined
        # copy, and no name here that would keep it alive while it parses
        f.raw.seek(f.tell())
        return _parse(header, f.raw.readall())


def from_edge_list_bytes(data: bytes) -> CSRGraph:
    """Parse :func:`to_edge_list_bytes` output (or any SNAP edge list).

    Header comments are optional; without a ``# nodes:`` line the vertex
    count is ``max id + 1`` and the graph is treated as directed.  Every
    edge line has the field count of the first: ``u v`` or ``u v weight``.
    """
    end = 0
    while data.startswith(b"#", end):
        end = data.find(b"\n", end) + 1 or len(data)
    return _parse(data[:end], data[end:])  # data[0:] is data: no copy


def _parse(header: bytes, body: bytes) -> CSRGraph:
    """``header``: the leading ``#`` lines; ``body``: everything after."""
    shape = _canonical_shape(body)
    if shape is None:
        return _parse_loadtxt(header + body)
    name, undirected, weighted, declared_n = _header_keys(header)
    if weighted:  # refused (a weight is missing) with the fallback's message
        return _parse_loadtxt(header + body)
    ids = np.fromstring(body, dtype=shape, sep=" ")
    del body  # the text goes before the builder allocates
    src, dst = ids[0::2], ids[1::2]
    n = declared_n if declared_n is not None else int(max(src.max(), dst.max())) + 1
    b = GraphBuilder(n, undirected=undirected)
    b.add_edges(src, dst)
    del ids, src, dst
    return b.build(name=name)


def _canonical_shape(body: bytes) -> type | None:
    """The id dtype when every line of ``body`` is ``digits SEP
    digits\\n`` (SEP a tab or a space, ids of at most 18 digits), else None.

    Checked ``_CHECK_CHUNK`` bytes at a time, so the temporaries are a few
    MB whatever the file's size.
    """
    if not body.endswith(b"\n"):  # also refuses an empty body
        return None
    view = np.frombuffer(body, dtype=np.uint8)
    width = start = 0
    while start < len(body):
        stop = body.find(b"\n", min(start + _CHECK_CHUNK, len(body)) - 1) + 1
        chunk = view[start:stop]
        # digits, and below b"0" only separators and newlines: alternating,
        # each after a token of at least one digit
        if chunk.max() > 57:  # b"9"
            return None
        cuts = np.flatnonzero(chunk < 48)
        kinds = chunk[cuts]
        seps = kinds[0::2]
        if (len(cuts) % 2 or not (kinds[1::2] == 10).all()
                or not ((seps == 9) | (seps == 32)).all()):
            return None
        gaps = cuts[1:] - cuts[:-1]  # token length + 1
        if cuts[0] < 1 or gaps.min(initial=2) < 2:
            return None
        width = max(width, int(cuts[0]), int(gaps.max(initial=0)) - 1)
        start = stop
    if width > _MAX_DIGITS:
        return None
    return np.int32 if width <= 9 else np.int64


def _header_keys(data: bytes) -> tuple[str, bool, bool, int | None]:
    """``(name, undirected, weighted, declared_n)`` from the ``#`` lines."""
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
    return name, undirected, weighted, declared_n


def _parse_loadtxt(data: bytes) -> CSRGraph:
    """Any SNAP edge list, through ``np.loadtxt`` over the whole file."""
    name, undirected, weighted, declared_n = _header_keys(data)
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

"""Bench-side tracing: spans, accumulating wrappers, isolated timings.

Everything here measures the program from outside.  Layers are timed by
rebinding their public attributes to wrappers before the engine is built
(:func:`rebound`), never by editing ``src/``:

* :class:`BenchSpans` records span objects — name, start, end, parent,
  one round id — and is used for calls made at most once per worker per
  superstep (and for the pipeline stages of every round);
* :class:`Accumulator` is a plain count + nanoseconds pair for calls made
  per vertex or per message, where a span object per call would cost more
  than the call.

``PartitionWorker.emit`` is wrapped by neither in a run: at over a
million calls the wrapper alone would add about half the run time.
:func:`emit_costs` times it in isolation, as it does the codec
(:func:`codec_costs`) and the two transports (:func:`transport_rtt`) on
a frame captured from the workload's real traffic.
"""

from __future__ import annotations

import copy
import multiprocessing
import socket
import statistics
from contextlib import contextmanager
from time import perf_counter, perf_counter_ns

import numpy as np

from repro.bsp.engine import SuperstepObserver
from repro.bsp.worker import PartitionWorker
from repro.net.codec import STREAM_HEADER, pack_frame, unpack_frame
from repro.net.tcp import LocalDaemonFleet

__all__ = [
    "Accumulator",
    "BenchSpans",
    "FrameTap",
    "StepClock",
    "codec_costs",
    "daemon_spawn_seconds",
    "emit_costs",
    "rebound",
    "transport_rtt",
]


class BenchSpans:
    """In-memory span list; written out once when the benchmark ends."""

    def __init__(self) -> None:
        #: closed spans as (name, start, end, parent index or None, round id)
        self.rows: list[tuple | None] = []
        self._stack: list[int] = []
        self.round_id = ""

    @contextmanager
    def span(self, name: str):
        index = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, name, start)

    def wrap(self, name: str, fn):
        """A wrapper of ``fn`` that records one span per call."""

        def wrapper(*args, **kwargs):
            index = self._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, name, start)

        return wrapper

    def _open(self) -> int:
        index = len(self.rows)
        self.rows.append(None)
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.rows[index] = (name, start, end, parent, self.round_id)

    def of_round(self, round_id: str, name: str) -> list[tuple]:
        return [
            r for r in self.rows
            if r is not None and r[0] == name and r[4] == round_id
        ]

    def total(self, round_id: str, name: str) -> float:
        return sum(r[2] - r[1] for r in self.of_round(round_id, name))

    def to_list(self) -> list[dict]:
        return [
            {"index": i, "name": r[0], "start": r[1], "end": r[2],
             "parent": r[3], "round": r[4]}
            for i, r in enumerate(self.rows) if r is not None
        ]


class Accumulator:
    """Call count and total nanoseconds of a wrapped hot function."""

    __slots__ = ("calls", "ns")

    def __init__(self) -> None:
        self.calls = 0
        self.ns = 0

    def wrap(self, fn):
        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            out = fn(*args, **kwargs)
            self.ns += perf_counter_ns() - t0
            self.calls += 1
            return out

        return wrapper

    @property
    def seconds(self) -> float:
        return self.ns / 1e9


@contextmanager
def rebound(bindings: list[tuple[object, str, object]]):
    """Rebind ``owner.attr = replacement`` for each triple; restore after."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in bindings]
    try:
        for owner, attr, replacement in bindings:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


class StepClock(SuperstepObserver):
    """Bench-side observer: host time at every superstep boundary."""

    def __init__(self) -> None:
        self.stamps: list[float] = []

    def on_job_start(self, engine) -> None:
        self.stamps.append(perf_counter())

    def on_superstep_end(self, engine, stats) -> None:
        self.stamps.append(perf_counter())

    def gaps_ms(self) -> list[float]:
        s = self.stamps
        return [(b - a) * 1e3 for a, b in zip(s, s[1:])]


class FrameTap:
    """Wraps ``TcpChannel.recv`` to time it and keep the message frames
    the workers really sent (the ``frames`` of every ``computed`` reply)."""

    def __init__(self) -> None:
        self.recv = Accumulator()
        self.frames: list[bytes] = []

    def wrap(self, fn):
        timed = self.recv.wrap(fn)
        frames = self.frames

        def wrapper(channel, timeout):
            reply = timed(channel, timeout)
            if reply is not None and reply[0] == "computed":
                frames.extend(reply[2]["frames"].values())
            return reply

        return wrapper

    def median_frame(self) -> bytes | None:
        if not self.frames:
            return None
        ordered = sorted(self.frames, key=len)
        return ordered[len(ordered) // 2]


# ----------------------------------------------------------------------
# Isolated timings
# ----------------------------------------------------------------------
def _emit_us(worker: PartitionWorker, dsts: list[int], payload) -> float:
    worker.begin_superstep(0, {})
    emit = worker.emit
    src = int(worker.vertex_ids[0])
    t0 = perf_counter()
    for dst in dsts:
        emit(src, dst, payload)
    return (perf_counter() - t0) / len(dsts) * 1e6


def emit_costs(graph, partition, program, model, payload, calls: int) -> dict:
    """Microseconds per direct ``PartitionWorker.emit`` call on a fresh
    worker 0: to local and to remote vertices without a combiner, and —
    when the program has one — over all vertices with it (so nearly every
    call takes the fold path)."""

    def fresh(prog):
        return PartitionWorker(
            worker_id=0, graph=graph, vertex_ids=partition.vertices_of(0),
            program=prog, model=model, assignment=partition.assignment,
        )

    def cycle(vertices) -> list[int]:
        ids = [int(v) for v in vertices]
        return (ids * (calls // len(ids) + 1))[:calls]

    plain = copy.copy(program)
    plain.combiner = None
    local = cycle(partition.vertices_of(0))
    remote = cycle(np.flatnonzero(partition.assignment != 0))
    out = {
        "local": _emit_us(fresh(plain), local, payload),
        "remote": _emit_us(fresh(plain), remote, payload),
        "combined": 0.0,
    }
    if program.combiner is not None:
        everyone = cycle(range(graph.num_vertices))
        out["combined"] = _emit_us(fresh(program), everyone, payload)
    return out


def codec_costs(frame: bytes, repeats: int) -> dict:
    """Microseconds to ``pack_frame`` / ``unpack_frame`` one real frame."""
    obj = unpack_frame(frame)
    t0 = perf_counter()
    for _ in range(repeats):
        pack_frame(obj)
    t1 = perf_counter()
    for _ in range(repeats):
        unpack_frame(frame)
    t2 = perf_counter()
    return {
        "pack_us": (t1 - t0) / repeats * 1e6,
        "unpack_us": (t2 - t1) / repeats * 1e6,
    }


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(n)
        if not chunk:
            raise ConnectionError("echo peer closed the socket")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _recv_stream_frame(sock: socket.socket) -> bytes:
    (length,) = STREAM_HEADER.unpack(_recv_exact(sock, STREAM_HEADER.size))
    return _recv_exact(sock, length)


def _echo_main(conn, repeats: int) -> None:
    """Echo peer: ``repeats`` frames over the pipe, then over a socket."""
    for _ in range(repeats):
        conn.send_bytes(conn.recv_bytes())
    with socket.create_server(("127.0.0.1", 0)) as server:
        conn.send(server.getsockname()[1])
        sock, _ = server.accept()
        with sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for _ in range(repeats):
                body = _recv_stream_frame(sock)
                sock.sendall(STREAM_HEADER.pack(len(body)) + body)


def transport_rtt(frame: bytes, repeats: int) -> dict:
    """Median echo round-trip of ``frame``, in microseconds, through a
    ``multiprocessing`` pipe and through a loopback socket with the
    codec's ``[u64 length]`` stream framing."""
    ctx = multiprocessing.get_context("spawn")
    conn, peer_conn = ctx.Pipe(duplex=True)
    peer = ctx.Process(target=_echo_main, args=(peer_conn, repeats))
    peer.start()
    peer_conn.close()
    try:
        pipe_us = []
        for _ in range(repeats):
            t0 = perf_counter()
            conn.send_bytes(frame)
            conn.recv_bytes()
            pipe_us.append((perf_counter() - t0) * 1e6)
        port = conn.recv()
        tcp_us = []
        message = STREAM_HEADER.pack(len(frame)) + frame
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for _ in range(repeats):
                t0 = perf_counter()
                sock.sendall(message)
                _recv_stream_frame(sock)
                tcp_us.append((perf_counter() - t0) * 1e6)
    finally:
        conn.close()
        peer.join(timeout=30)
        if peer.is_alive():
            peer.kill()
            peer.join()
    return {
        "rtt_us_pipe": statistics.median(pipe_us),
        "rtt_us_tcp": statistics.median(tcp_us),
    }


def daemon_spawn_seconds() -> float:
    """Time to spawn (and get the port of) one loopback worker daemon."""
    t0 = perf_counter()
    fleet = LocalDaemonFleet(1)
    elapsed = perf_counter() - t0
    fleet.shutdown()
    return elapsed

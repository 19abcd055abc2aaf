"""Extension bench — the network plane: codec throughput and transports.

Three layers of the ``repro.net`` stack, measured separately so a
regression is attributable:

* **codec** — ``pack_frame``/``unpack_frame`` frames/sec and bytes/sec
  on the two shapes the engine actually ships: tiny control frames and
  bulk NumPy message buckets (out-of-band pickle-5 buffers);
* **transport round-trips** — the same bulk frame, in the ``[u64 len]``
  stream framing both engines' channels read, echoed by a forked child
  over a ``socketpair`` (the ``process`` engine's wire) vs a thread over
  a TCP-loopback socket (the ``tcp`` engine's), isolating what each hop
  costs per barrier;
* **end to end** — PageRank on a web-Google analogue through the
  ``sim``, ``process``, and ``tcp`` engines: bit-equal results by
  contract, host wall-clock recorded for comparison.

Results land in ``BENCH_net.json``.
"""

import json
import socket
import threading
import time

import numpy as np

from repro.algorithms import PageRankProgram
from repro.bsp import JobSpec, run_job
from repro.graph.datasets import webgoogle_analogue
from repro.net import (
    LocalDaemonFleet,
    StreamDecoder,
    encode_stream_frame,
    pack_frame,
    unpack_frame,
)
from repro.net.transport import fork_context

from helpers import banner, run_once

ITERATIONS = 10
NUM_WORKERS = 4
DATASET_SCALE = 0.2  # ~1.6k-vertex WG analogue

CODEC_REPEATS = 300
ROUNDTRIPS = 200


def control_frame():
    """The shape of a barrier command: tiny, no out-of-band buffers."""
    return ("compute", 17, (5, {"sum": 1.25}))


def bulk_frame():
    """The shape of a message bucket: vertex ids + float payloads."""
    ids = np.arange(20_000, dtype=np.int64)
    payloads = np.random.default_rng(7).random(20_000)
    return ("deliver", 17, [(3, ids), (4, payloads)])


def _bench_codec(obj, repeats):
    blob = pack_frame(obj)
    t0 = time.perf_counter()
    for _ in range(repeats):
        unpack_frame(pack_frame(obj))
    elapsed = time.perf_counter() - t0
    return {
        "frame_bytes": len(blob),
        "frames_per_second": repeats / elapsed,
        "bytes_per_second": repeats * len(blob) / elapsed,
    }


def _stream_echo(conn):
    """Echo every stream frame back until the peer closes."""
    with conn:
        decoder = StreamDecoder()
        while True:
            data = conn.recv(1 << 20)
            if not data:
                return
            for msg in decoder.feed(data):
                conn.sendall(encode_stream_frame(msg))


def _time_roundtrips(sock, obj, rounds):
    """Seconds for ``rounds`` echoes of ``obj`` after one warm-up."""
    wire = encode_stream_frame(obj)
    decoder = StreamDecoder()

    def roundtrip():
        sock.sendall(wire)
        while True:
            msgs = decoder.feed(sock.recv(1 << 20))
            if msgs:
                return msgs[0]

    roundtrip()  # warm-up
    t0 = time.perf_counter()
    for _ in range(rounds):
        roundtrip()
    return time.perf_counter() - t0


def _forked_echo(sock, parent_end):
    parent_end.close()  # so the child reads EOF once the parent closes
    _stream_echo(sock)


def _bench_socketpair_roundtrips(obj, rounds):
    ours, theirs = socket.socketpair()
    proc = fork_context().Process(
        target=_forked_echo, args=(theirs, ours), daemon=True
    )
    proc.start()
    theirs.close()
    with ours:
        elapsed = _time_roundtrips(ours, obj, rounds)
    proc.join()
    return elapsed


def _bench_tcp_roundtrips(obj, rounds):
    server = socket.create_server(("127.0.0.1", 0))
    thread = threading.Thread(
        target=lambda: _stream_echo(server.accept()[0]), daemon=True
    )
    thread.start()
    with socket.create_connection(server.getsockname()) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        elapsed = _time_roundtrips(sock, obj, rounds)
    thread.join()
    server.close()
    return elapsed


def make_job(graph):
    return JobSpec(
        program=PageRankProgram(ITERATIONS), graph=graph,
        num_workers=NUM_WORKERS,
    )


def test_net_plane(benchmark):
    graph = webgoogle_analogue(DATASET_SCALE)
    payload = {"workload": {
        "app": "pagerank", "iterations": ITERATIONS,
        "dataset": graph.name, "num_vertices": graph.num_vertices,
        "num_workers": NUM_WORKERS,
    }}

    # -- codec throughput ---------------------------------------------
    codec = {
        "control": _bench_codec(control_frame(), CODEC_REPEATS),
        "bulk": _bench_codec(bulk_frame(), CODEC_REPEATS),
    }
    payload["codec"] = codec
    banner("Frame codec (pack + unpack round-trip)")
    print(f"{'frame':<10} {'size':>10} {'frames/s':>12} {'MB/s':>10}")
    for name, row in codec.items():
        print(
            f"{name:<10} {row['frame_bytes']:>9}B "
            f"{row['frames_per_second']:>12.0f} "
            f"{row['bytes_per_second'] / 1e6:>10.1f}"
        )
    # Bulk frames move at least as many bytes/sec as tiny control
    # frames: out-of-band buffers must not collapse throughput.
    assert codec["bulk"]["bytes_per_second"] > codec["control"]["bytes_per_second"]

    # -- transport round-trips ----------------------------------------
    frame_bytes = len(pack_frame(bulk_frame()))
    socketpair_s = _bench_socketpair_roundtrips(bulk_frame(), ROUNDTRIPS)
    tcp_s = _bench_tcp_roundtrips(bulk_frame(), ROUNDTRIPS)
    payload["transport_roundtrips"] = {
        "rounds": ROUNDTRIPS,
        "frame_bytes": frame_bytes,
        "socketpair_seconds": socketpair_s,
        "tcp_loopback_seconds": tcp_s,
        "socketpair_rt_us": socketpair_s / ROUNDTRIPS * 1e6,
        "tcp_rt_us": tcp_s / ROUNDTRIPS * 1e6,
    }
    banner(f"Transport round-trips ({frame_bytes}B bulk frame x{ROUNDTRIPS})")
    print(f"socketpair   {socketpair_s / ROUNDTRIPS * 1e6:>10.1f} us/rt")
    print(f"tcp loopback {tcp_s / ROUNDTRIPS * 1e6:>10.1f} us/rt")

    # -- end to end ----------------------------------------------------
    results, wall = {}, {}

    def run_all():
        fleet = LocalDaemonFleet(3)
        try:
            for name, kwargs in (
                ("sim", {}),
                ("process", {}),
                ("tcp", {"endpoints": fleet.endpoints()}),
            ):
                t0 = time.perf_counter()
                results[name] = run_job(make_job(graph), engine=name, **kwargs)
                wall[name] = time.perf_counter() - t0
        finally:
            fleet.shutdown()
        return results["sim"]

    run_once(benchmark, run_all)

    sim = results["sim"]
    banner(
        f"End to end: PageRank x{ITERATIONS} on {graph.name} "
        f"(|V|={graph.num_vertices}), {NUM_WORKERS} workers, 3 TCP daemons"
    )
    print(f"{'engine':<10} {'host wall':>10} {'vs sim':>8}")
    for name in results:
        print(f"{name:<10} {wall[name]:>9.3f}s {wall[name] / wall['sim']:>7.2f}x")
    for name, res in results.items():
        assert res.values == sim.values, f"{name} diverged from sim"
        assert res.total_time == sim.total_time
    payload["end_to_end"] = {
        "wall_clock_seconds": wall,
        "simulated_seconds": sim.total_time,
        "supersteps": sim.supersteps,
    }

    with open("BENCH_net.json", "w") as f:
        json.dump(payload, f, indent=2)
    print("wrote BENCH_net.json")

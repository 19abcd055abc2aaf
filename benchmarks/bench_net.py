"""Extension bench — the network plane: codec throughput and transports.

Three layers of the ``repro.net`` stack, measured separately so a
regression is attributable:

* **codec** — ``pack_frame``/``unpack_frame`` frames/sec and bytes/sec
  on the two shapes the engine actually ships: tiny control frames and
  bulk NumPy message buckets (out-of-band pickle-5 buffers);
* **transport round-trips** — the same bulk frame echoed through a
  ``multiprocessing`` pipe (the ``process`` backend's channel) vs a
  TCP-loopback socket with stream framing (the ``tcp`` backend's
  channel), isolating what the socket hop costs per barrier;
* **end to end** — PageRank on a web-Google analogue through the
  ``sim``, ``process``, and ``tcp`` engines: bit-equal results by
  contract, host wall-clock recorded for comparison.

Results land in ``BENCH_net.json``.
"""

import json
import multiprocessing as mp
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


def _pipe_echo(conn):
    while True:
        data = conn.recv_bytes()
        if data == b"stop":
            return
        conn.send_bytes(data)


def _bench_pipe_roundtrips(blob, rounds):
    ctx = mp.get_context(
        "fork" if "fork" in mp.get_all_start_methods() else None
    )
    parent, child = ctx.Pipe(duplex=True)
    proc = ctx.Process(target=_pipe_echo, args=(child,), daemon=True)
    proc.start()
    child.close()
    parent.send_bytes(blob)  # warm-up
    parent.recv_bytes()
    t0 = time.perf_counter()
    for _ in range(rounds):
        parent.send_bytes(blob)
        parent.recv_bytes()
    elapsed = time.perf_counter() - t0
    parent.send_bytes(b"stop")
    proc.join()
    return elapsed


def _tcp_echo(server):
    conn, _ = server.accept()
    with conn:
        decoder = StreamDecoder()
        while True:
            data = conn.recv(1 << 20)
            if not data:
                return
            for msg in decoder.feed(data):
                if msg == "stop":
                    return
                conn.sendall(encode_stream_frame(msg))


def _bench_tcp_roundtrips(obj, rounds):
    server = socket.create_server(("127.0.0.1", 0))
    thread = threading.Thread(target=_tcp_echo, args=(server,), daemon=True)
    thread.start()
    wire = encode_stream_frame(obj)
    with socket.create_connection(server.getsockname()) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
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
        elapsed = time.perf_counter() - t0
        sock.sendall(encode_stream_frame("stop"))
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
    blob = pack_frame(bulk_frame())
    pipe_s = _bench_pipe_roundtrips(blob, ROUNDTRIPS)
    tcp_s = _bench_tcp_roundtrips(bulk_frame(), ROUNDTRIPS)
    payload["transport_roundtrips"] = {
        "rounds": ROUNDTRIPS,
        "frame_bytes": len(blob),
        "pipe_seconds": pipe_s,
        "tcp_loopback_seconds": tcp_s,
        "pipe_rt_us": pipe_s / ROUNDTRIPS * 1e6,
        "tcp_rt_us": tcp_s / ROUNDTRIPS * 1e6,
    }
    banner(f"Transport round-trips ({len(blob)}B bulk frame x{ROUNDTRIPS})")
    print(f"pipe         {pipe_s / ROUNDTRIPS * 1e6:>10.1f} us/rt")
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

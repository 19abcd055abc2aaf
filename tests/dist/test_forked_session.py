"""The forked worker's wire: the daemon's session loop on a socketpair.

A process-engine worker reads the same ``[u64 len]`` stream frames under
the same frame cap as a TCP session, and its heartbeats ride the reply
stream, so a worker that is alive but silent is caught by heartbeat age.
"""

import os
import signal
import time

import pytest

from repro.algorithms import PageRankProgram
from repro.bsp import JobSpec, SuperstepObserver, run_job
from repro.dist import ProcessBSPEngine
from repro.graph import generators as gen
from repro.net.codec import MAX_FRAME_BYTES, STREAM_HEADER
from repro.net.tcp import TcpChannel
from repro.net.transport import TransportClosed
from repro.obs import FlightRecorder


def test_forked_sessions_use_the_stream_channel(small_world):
    engine = ProcessBSPEngine(
        JobSpec(program=PageRankProgram(4), graph=small_world, num_workers=2)
    )
    try:
        for h in engine._handles:
            assert isinstance(h, TcpChannel)
            assert h.transport == "pipe"
            assert h.endpoint == f"pid:{h.proc.pid}"
            assert not h.clock.synchronized
    finally:
        engine.shutdown()


def test_oversized_frame_header_ends_the_session(small_world):
    engine = ProcessBSPEngine(
        JobSpec(program=PageRankProgram(4), graph=small_world, num_workers=2)
    )
    try:
        h = engine._handles[0]
        h._sock.sendall(STREAM_HEADER.pack(MAX_FRAME_BYTES + 1))
        deadline = time.monotonic() + 10.0
        with pytest.raises(TransportClosed):
            while time.monotonic() < deadline:
                assert h.recv(0.1) is None  # heartbeats never surface
        h.proc.join(5.0)
        assert not h.proc.is_alive()
        assert engine._handles[1].healthy()
    finally:
        engine.shutdown()


class _StopWorker(SuperstepObserver):
    """SIGSTOP one worker's process after a superstep: alive, but silent."""

    def __init__(self, superstep, worker_id):
        self.superstep, self.worker_id = superstep, worker_id
        self.stopped = False

    def on_superstep_end(self, engine, stats):
        if stats.index == self.superstep and not self.stopped:
            self.stopped = True
            os.kill(engine._handles[self.worker_id].proc.pid, signal.SIGSTOP)


def test_a_silent_worker_is_caught_by_heartbeat_age():
    graph = gen.watts_strogatz(200, 4, 0.3, seed=7)

    def job(**kw):
        return JobSpec(program=PageRankProgram(8), graph=graph, num_workers=3,
                       checkpoint_interval=2, **kw)

    flight, stop = FlightRecorder(), _StopWorker(3, 1)
    res = run_job(job(flight=flight, observers=[stop]), engine="process",
                  heartbeat_interval=0.05, heartbeat_timeout=1.0)
    assert stop.stopped
    assert len(res.recoveries) == 1
    assert res.recoveries[0].failed_worker == 1
    misses = [e for e in flight.snapshot() if e.kind == "heartbeat-miss"]
    assert [e.attrs["lost_worker"] for e in misses] == [1]
    assert res.values == run_job(job()).values

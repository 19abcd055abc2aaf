"""The ``repro worker`` daemon: status probes, handshake refusals,
telemetry, and the worker CLI.
"""

import json
import socket

import numpy as np
import pytest

from repro.bsp import VertexProgram
from repro.cloud.costmodel import DEFAULT_PERF_MODEL
from repro.graph import generators
from repro.net.codec import StreamDecoder, encode_stream_frame
from repro.net.daemon import PROTOCOL_VERSION
from repro.net.tcp import (
    LocalDaemonFleet,
    TcpTransport,
    probe_endpoint,
)
from repro.net.transport import TransportError, WorkerInit


class _BrokenInit(VertexProgram):
    def init_state(self, vertex_id, graph):
        raise RuntimeError("init_state exploded")

    def compute(self, ctx, state, messages):
        ctx.vote_to_halt()
        return state


@pytest.fixture(scope="module")
def one_daemon():
    fleet = LocalDaemonFleet(1)
    yield fleet.endpoints()[0]
    fleet.shutdown()


def _roundtrip(endpoint, frame, timeout=10.0):
    """Open a fresh connection, send one frame, return the first reply."""
    host, port = endpoint
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(encode_stream_frame(frame))
        decoder = StreamDecoder()
        sock.settimeout(timeout)
        while True:
            data = sock.recv(1 << 16)
            if not data:
                raise AssertionError("daemon closed without replying")
            msgs = decoder.feed(data)
            if msgs:
                return msgs[0]


class TestStatusProbe:
    def test_probe_returns_vitals(self, one_daemon):
        vitals = probe_endpoint(one_daemon)
        assert vitals["version"] == PROTOCOL_VERSION
        assert vitals["pid"] > 0
        assert vitals["sessions_active"] == 0
        assert vitals["endpoint"].endswith(f":{one_daemon[1]}")

    def test_probe_unreachable_raises(self):
        with pytest.raises(OSError):
            probe_endpoint(("127.0.0.1", 1), timeout=0.5)


class TestHandshakeRefusals:
    def test_version_mismatch_refused(self, one_daemon):
        kind, _epoch, msg = _roundtrip(
            one_daemon, ("hello", 0, {"version": PROTOCOL_VERSION + 99})
        )
        assert kind == "error"
        assert "version mismatch" in msg

    def test_previous_protocol_refused(self, one_daemon):
        # v9 answers every command with one list per host session: a v8
        # peer would read it as one worker's reply
        assert PROTOCOL_VERSION == 9
        kind, _epoch, msg = _roundtrip(one_daemon, ("hello", 0, {"version": 8}))
        assert kind == "error"
        assert "coordinator speaks 8, daemon speaks 9" in msg

    def test_session_build_failure_carries_the_traceback(self, one_daemon):
        # Reported as a refusal with the worker's traceback, not as a
        # connection the daemon dropped.
        transport = TcpTransport(endpoints=[one_daemon])
        graph = generators.path(4)
        init = WorkerInit(
            worker_ids=(0,), graph=graph, vertex_ids=[np.arange(4)],
            program=_BrokenInit(), model=DEFAULT_PERF_MODEL,
            assignment=np.zeros(4, dtype=np.int64), active_ids=None,
            heartbeat_interval=0.1, want_flight=False,
        )
        with pytest.raises(TransportError) as err:
            transport.launch(init)
        msg = str(err.value)
        assert "refused worker 0: Traceback" in msg
        assert "init_state exploded" in msg and "dropped" not in msg
        assert probe_endpoint(one_daemon)["sessions_active"] == 0

    def test_malformed_hello_refused(self, one_daemon):
        kind, _epoch, msg = _roundtrip(one_daemon, ("hello", 0, "garbage"))
        assert kind == "error"
        assert "malformed hello" in msg

    def test_non_hello_first_frame_refused(self, one_daemon):
        kind, _epoch, msg = _roundtrip(one_daemon, ("compute", 0, None))
        assert kind == "error"
        assert "expected hello or status" in msg

    def test_capacity_refusal(self):
        fleet = LocalDaemonFleet(1, max_sessions=0)
        try:
            kind, _epoch, msg = _roundtrip(
                fleet.endpoints()[0],
                ("hello", 0, {"version": PROTOCOL_VERSION}),
            )
            assert kind == "error"
            assert "capacity" in msg
        finally:
            fleet.shutdown()


class TestDaemonTelemetry:
    def test_attach_telemetry_labels_vitals_with_endpoint(self):
        import asyncio

        from repro.net.daemon import WorkerDaemon, _DaemonHealth
        from repro.obs import MetricsRegistry, to_prometheus_text

        async def run():
            daemon = WorkerDaemon()
            await daemon.start()
            try:
                registry = MetricsRegistry()
                daemon.attach_telemetry(registry)
                text = to_prometheus_text(registry)
                assert (
                    f'repro_daemon_sessions_active{{host="{daemon.endpoint}"'
                    in text
                )
                assert 'transport="tcp"' in text
                assert "repro_daemon_sessions_total" in text
                assert "repro_daemon_heartbeats_sent_total" in text
                health = _DaemonHealth(daemon).snapshot()
                assert health["ok"] and health["state"] == "serving"
                assert not health["at_capacity"]
            finally:
                await daemon.close()

        asyncio.run(run())

    def test_discover_members_flags_telemetry_less_daemon(self, one_daemon):
        # Fleet daemons run without a telemetry server: federation must
        # degrade to a per-endpoint error, not a crash.
        from repro.obs import discover_members

        host, port = one_daemon
        members, errors = discover_members([one_daemon, f"{host}:{port}"])
        assert members == []
        assert errors == {
            f"{host}:{port}": "daemon exposes no telemetry server"
        }

    def test_discover_members_reports_unreachable(self):
        from repro.obs import discover_members

        members, errors = discover_members(
            [("127.0.0.1", 1)], timeout=0.5
        )
        assert members == []
        assert list(errors) == ["127.0.0.1:1"]


class TestCommandDispatch:
    def test_shard_commands_run_on_the_loop_thread(self, monkeypatch):
        # A dense shard's commands never leave the event loop's thread; a
        # PartitionWorker's go to the pool, keeping heartbeats flowing.
        import asyncio
        import threading

        from repro.algorithms import PageRankProgram
        from repro.bsp.dense_ref import shard_plan
        from repro.bsp.dense_shard import DenseLayout
        from repro.net.daemon import WorkerDaemon
        from repro.net.session import WorkerSession

        threads: dict[int, set] = {}
        handle = WorkerSession.handle

        def spy(session, cmd, epoch, payload):
            threads.setdefault(session.worker_ids, set()).add(threading.get_ident())
            return handle(session, cmd, epoch, payload)

        monkeypatch.setattr(WorkerSession, "handle", spy)
        loop = asyncio.new_event_loop()
        daemon = WorkerDaemon()
        loop.run_until_complete(daemon.start())
        server = threading.Thread(target=loop.run_forever, daemon=True)
        server.start()
        channels = []
        try:
            transport = TcpTransport(endpoints=[("127.0.0.1", daemon.port)])
            graph = generators.path(6)
            program = PageRankProgram(3)
            plan, assignment = shard_plan(program), np.arange(6) % 2
            channels.append(transport.launch(WorkerInit(
                worker_ids=(0,), program=program, model=DEFAULT_PERF_MODEL,
                heartbeat_interval=0.1, want_flight=False, plan=plan,
                shards=[DenseLayout(graph, assignment, 2, plan).slice(0)],
            )))
            channels.append(transport.launch(WorkerInit(
                worker_ids=(1,), graph=graph, vertex_ids=[np.arange(1, 6, 2)],
                program=program, model=DEFAULT_PERF_MODEL,
                assignment=assignment, active_ids=None,
                heartbeat_interval=0.1, want_flight=False,
            )))
            for cmd, expect in (("compute", "computed"), ("stop", "bye")):
                for ch in channels:
                    ch.send((cmd, 0, (0, {})))
                    reply = None
                    while reply is None:
                        reply = ch.recv(1.0)
                    assert reply[0] == expect
        finally:
            for ch in channels:
                ch.close()
            loop.call_soon_threadsafe(loop.stop)
            server.join(timeout=5.0)
            loop.run_until_complete(daemon.close())
            loop.close()
        assert threads[(0,)] == {server.ident}
        assert server.ident not in threads[(1,)]


class TestWorkerCli:
    def test_status_prints_vitals_json(self, one_daemon, capsys):
        from repro.cli import main

        host, port = one_daemon
        assert main(["worker", "status", f"{host}:{port}"]) == 0
        vitals = json.loads(capsys.readouterr().out)
        assert vitals["version"] == PROTOCOL_VERSION

    def test_status_unreachable_fails(self, capsys):
        from repro.cli import main

        assert main(["worker", "status", "127.0.0.1:1"]) == 1
        assert "repro worker" in capsys.readouterr().err

    def test_transport_error_importable_from_net(self):
        import repro.net as net

        assert net.TransportError is TransportError

"""The Transport/WorkerChannel interface: liveness clock and endpoint
parsing.

Satellite contract: every heartbeat stamp and age in the transport plane
comes from the monotonic clock — wall-clock jumps (NTP steps) must never
fake a heartbeat timeout.
"""

import inspect

import pytest

import repro.net.transport as transport_mod
from repro.net.tcp import load_workers_file, parse_endpoint
from repro.net.transport import (
    PipeTransport,
    Transport,
    TransportClosed,
    TransportError,
    WorkerChannel,
    monotonic_now,
)


class _StubChannel(WorkerChannel):
    """Minimal concrete channel for exercising base-class bookkeeping."""

    transport = "stub"

    def __init__(self, worker_id=0):
        super().__init__(worker_id, endpoint="stub:0")

    def send(self, msg):
        pass

    def recv(self, timeout):
        return None

    def drain_heartbeats(self):
        return 0

    def healthy(self):
        return True

    def death_reason(self):
        return "stub"

    def kill(self):
        pass

    def close(self):
        pass


class TestMonotonicClock:
    def test_heartbeat_age_uses_the_transport_clock(self, monkeypatch):
        now = [100.0]
        monkeypatch.setattr(transport_mod, "monotonic", lambda: now[0])
        ch = _StubChannel()
        ch.note_beat()
        now[0] += 3.5
        assert ch.heartbeat_age() == pytest.approx(3.5)
        ch.note_beat()
        assert ch.heartbeat_age() == pytest.approx(0.0)

    def test_monotonic_now_never_goes_backwards(self):
        samples = [monotonic_now() for _ in range(100)]
        assert samples == sorted(samples)

    def test_no_wall_clock_in_the_liveness_plane(self):
        # Regression guard for the monotonic-clock satellite: neither the
        # transport layer nor the coordinator may consult wall time for
        # liveness (time.time / datetime.now).
        import repro.dist.engine as dist_engine
        import repro.net.tcp as tcp_mod

        for mod in (transport_mod, dist_engine, tcp_mod):
            src = inspect.getsource(mod)
            assert "time.time(" not in src, mod.__name__
            assert "datetime.now" not in src, mod.__name__


class TestInterface:
    def test_transport_closed_is_a_transport_error(self):
        assert issubclass(TransportClosed, TransportError)
        assert issubclass(TransportError, RuntimeError)

    def test_default_kill_host_kills_the_channel(self):
        killed = []

        class T(Transport):
            name = "t"

            def launch(self, init):
                raise NotImplementedError

        class C(_StubChannel):
            def kill(self):
                killed.append(self.worker_id)

        T().kill_host(C(7))
        assert killed == [7]

    def test_pipe_transport_is_the_default_backend_shape(self):
        t = PipeTransport()
        assert t.name == "pipe"
        t.shutdown()  # idempotent no-op


class TestEndpointParsing:
    def test_host_port(self):
        assert parse_endpoint("10.0.0.5:9001") == ("10.0.0.5", 9001)
        assert parse_endpoint("  node-3:80 ") == ("node-3", 80)

    def test_ipv6(self):
        assert parse_endpoint("[::1]:9000") == ("::1", 9000)

    @pytest.mark.parametrize("bad", ["nohost", ":90", "host:", "[::1]"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError, match="bad endpoint"):
            parse_endpoint(bad)

    def test_workers_file(self, tmp_path):
        f = tmp_path / "workers"
        f.write_text(
            "# fleet for the nightly run\n"
            "10.0.0.1:9000\n"
            "\n"
            "10.0.0.2:9000  # spare\n"
        )
        assert load_workers_file(f) == [
            ("10.0.0.1", 9000), ("10.0.0.2", 9000),
        ]

    def test_workers_file_must_name_endpoints(self, tmp_path):
        f = tmp_path / "empty"
        f.write_text("# nothing but comments\n")
        with pytest.raises(ValueError, match="no endpoints"):
            load_workers_file(f)

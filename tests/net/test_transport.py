"""The transport plane's one channel class, :class:`TcpChannel`, over a
raw ``socketpair``: heartbeat routing, the liveness clock, peer loss;
plus endpoint parsing.

Satellite contract: every heartbeat stamp and age in the transport plane
comes from the monotonic clock — wall-clock jumps (NTP steps) must never
fake a heartbeat timeout.
"""

import inspect
import socket

import pytest

import repro.net.transport as transport_mod
from repro.net.codec import encode_stream_frame
from repro.net.tcp import TcpChannel, load_workers_file, parse_endpoint
from repro.net.transport import (
    PipeTransport,
    Transport,
    TransportClosed,
    TransportError,
    monotonic_now,
)


@pytest.fixture
def pair():
    """A channel on one end of a socketpair and the raw peer end."""
    ours, peer = socket.socketpair()
    channel = TcpChannel((3,), ours, "pair:0")
    yield channel, peer
    channel.close()
    peer.close()


def _hb(clock=5.0):
    return encode_stream_frame(("hb", -1, {"clock": clock}))


class TestChannelContract:
    def test_heartbeat_moves_last_beat_and_never_surfaces(self, pair):
        channel, peer = pair
        channel.last_beat -= 100.0
        stale = channel.last_beat
        peer.sendall(_hb() + encode_stream_frame(("ok", 0, "reply")) + _hb())
        assert channel.recv(5.0) == ("ok", 0, "reply")
        assert channel.last_beat > stale
        assert channel.drain_heartbeats() == 2
        assert channel.drain_heartbeats() == 0  # counted once
        assert channel.recv(0.0) is None  # no heartbeat left in the inbox

    def test_unsynchronized_clock_ignores_the_stamp(self, pair):
        # A forked session's clock: no handshake, so offset 0.0 stays exact.
        channel, peer = pair
        assert not channel.clock.synchronized
        peer.sendall(_hb(clock=1e6))
        assert channel.drain_heartbeats() == 1
        assert channel.clock.stats()["oneway_samples"] == 0
        assert channel.clock.offset() == 0.0

    def test_synchronized_clock_takes_the_stamp(self, pair):
        channel, peer = pair
        now = monotonic_now()
        channel.clock.observe_handshake(now, now, now, now)
        peer.sendall(_hb(clock=now))
        assert channel.drain_heartbeats() == 1
        assert channel.clock.stats()["oneway_samples"] == 1

    @pytest.mark.parametrize("op", ["recv", "send"])
    def test_closed_peer_raises_transport_closed(self, pair, op):
        channel, peer = pair
        peer.close()
        with pytest.raises(TransportClosed):
            if op == "recv":
                channel.recv(5.0)
            else:
                channel.send(("compute", 0, b"x" * (1 << 20)))
        assert not channel.healthy()

    def test_closed_peer_is_not_healthy(self, pair):
        channel, peer = pair
        assert channel.healthy()
        peer.close()
        assert not channel.healthy()


class TestMonotonicClock:
    def test_heartbeat_age_uses_the_transport_clock(self, monkeypatch):
        now = [100.0]
        monkeypatch.setattr(transport_mod, "monotonic", lambda: now[0])
        ours, peer = socket.socketpair()
        with ours, peer:
            ch = TcpChannel((0,), ours, "pair:0")
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
        # transport layer, the coordinator, nor the session loops that
        # send and stamp heartbeats may consult wall time for liveness
        # (time.time / datetime.now).
        import repro.dist.engine as dist_engine
        import repro.dist.worker_proc as worker_proc
        import repro.net.daemon as daemon_mod
        import repro.net.session as session_mod
        import repro.net.tcp as tcp_mod

        for mod in (transport_mod, dist_engine, tcp_mod, daemon_mod,
                    session_mod, worker_proc):
            src = inspect.getsource(mod)
            assert "time.time(" not in src, mod.__name__
            assert "datetime.now" not in src, mod.__name__


class TestInterface:
    def test_transport_closed_is_a_transport_error(self):
        assert issubclass(TransportClosed, TransportError)
        assert issubclass(TransportError, RuntimeError)

    def test_default_kill_host_kills_the_channel(self, pair):
        class T(Transport):
            def launch(self, init):
                raise NotImplementedError

        channel, peer = pair
        T().kill_host(channel)
        assert not channel.healthy()
        assert peer.recv(1) == b""  # the peer reads the drop

    def test_pipe_transport_is_the_default_backend_shape(self):
        t = PipeTransport()
        assert isinstance(t, Transport)
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

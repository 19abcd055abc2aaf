"""Coordinator-side TCP transport: sockets to ``repro worker`` daemons.

:class:`TcpTransport` implements the
:class:`~repro.net.transport.Transport` interface over TCP sessions
hosted by :mod:`repro.net.daemon` daemons.  Endpoints come from an
explicit host list, a ``--workers-file``, or — when neither is given —
an auto-spawned :class:`LocalDaemonFleet` of localhost daemons (which is
what lets ``certify_determinism(engine="tcp")`` and the tests run with
zero external setup); the transport owns such a fleet and stops it on
:meth:`TcpTransport.shutdown`.  :class:`TcpChannel` is the coordinator's
one channel class: a forked process-engine worker is read through its
subclass :class:`~repro.dist.worker_proc.ForkedChannel`.

Placement is by host, round-robin by worker id with failover: the
workers ``w`` with ``w % n == i`` form one host session, offered to
endpoint ``i`` first, then the rest in order, and the first daemon that
completes the handshake hosts the whole group.  That single rule is both
initial placement and the *respawn-or-reassign* policy — when a daemon
dies mid-job, the engine's existing checkpoint recovery relaunches each
lost session and this transport simply lands it on a surviving daemon
(or on the original's replacement if one came back).

SIGKILL-equivalent semantics: :meth:`TcpChannel.kill` closes the socket
abortively (``SO_LINGER`` zero ⇒ RST), so the daemon observes a drop —
not a graceful shutdown — exactly as the coordinator observes a daemon
crash.  :meth:`TcpTransport.kill_host` escalates to a real ``SIGKILL``
of the hosting daemon process when this transport spawned it.
"""

from __future__ import annotations

import socket
import struct
from collections import deque
from pathlib import Path
from typing import Any, Sequence

from ..obs.cluster import ClockSync
from .codec import StreamDecoder, encode_stream_frame
from .daemon import PROTOCOL_VERSION, _daemon_process_main
from .transport import (
    Transport,
    TransportClosed,
    TransportError,
    WorkerInit,
    fork_context,
    monotonic_now,
)

__all__ = [
    "LocalDaemonFleet",
    "TcpChannel",
    "TcpTransport",
    "load_workers_file",
    "parse_endpoint",
]

Endpoint = tuple  # (host, port)

_RECV_CHUNK = 1 << 20
#: seconds a spawned local daemon has to report its port
_SPAWN_TIMEOUT = 30.0
#: seconds a daemon has to answer ``hello`` (it builds the session first)
_HANDSHAKE_TIMEOUT = 60.0


def parse_endpoint(spec: str) -> Endpoint:
    """``"host:port"`` → ``(host, port)`` (IPv6 via ``[addr]:port``)."""
    spec = spec.strip()
    if spec.startswith("["):  # [::1]:9000
        host, _, rest = spec[1:].partition("]")
        port = rest.lstrip(":")
    else:
        host, _, port = spec.rpartition(":")
    if not host or not port:
        raise ValueError(
            f"bad endpoint {spec!r}: expected host:port or [ipv6]:port"
        )
    return (host, int(port))


def load_workers_file(path: str | Path) -> list[Endpoint]:
    """Parse a workers file: one ``host:port`` per line, ``#`` comments."""
    endpoints = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            endpoints.append(parse_endpoint(line))
    if not endpoints:
        raise ValueError(f"workers file {path} names no endpoints")
    return endpoints


class TcpChannel:
    """One live host session over one stream socket, plus its liveness
    bookkeeping: the one channel the coordinator reads.  ``worker_ids``
    are the workers the session runs, in ascending order.

    The engine's protocol contract: :meth:`send` delivers one
    ``(cmd, epoch, payload)`` frame or raises :class:`TransportClosed`;
    :meth:`recv` returns one reply frame, ``None`` on timeout, or raises
    :class:`TransportClosed`; heartbeats never surface through
    :meth:`recv` — they update :attr:`last_beat` and are counted by
    :meth:`drain_heartbeats`.
    """

    #: transport label stamped on ``dist_*`` metrics
    transport = "tcp"

    def __init__(self, worker_ids: tuple, sock: socket.socket,
                 endpoint: str) -> None:
        self.worker_ids = tuple(worker_ids)
        self.endpoint = endpoint
        self.pending = 0  # replies owed for commands already sent
        self.last_beat = monotonic_now()
        self.alive = True
        #: remote-clock alignment, fed by the TCP handshake.  A forked
        #: session has none and leaves it empty: offset() is then 0.0,
        #: which is exact for a process on the coordinator's own clock.
        self.clock = ClockSync()
        sock.setblocking(True)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not fatal; just latency
        self._sock = sock
        self._decoder = StreamDecoder()
        self._inbox: deque = deque()
        self._beats = 0  # heartbeats received but not yet drained
        self._eof = False

    def heartbeat_age(self) -> float:
        """Seconds since the last beat, on the monotonic clock."""
        return monotonic_now() - self.last_beat

    def note_beat(self) -> None:
        self.last_beat = monotonic_now()

    # -- internals -----------------------------------------------------
    def _pump(self, timeout: float) -> bool:
        """Read whatever the socket has within ``timeout``; route frames.

        Returns True when bytes arrived.  Raises TransportClosed on EOF
        or a socket error (the daemon-side session is gone).
        """
        if self._eof:
            raise TransportClosed(f"connection to {self.endpoint} is closed")
        self._sock.settimeout(timeout if timeout > 0 else 0.0)
        try:
            data = self._sock.recv(_RECV_CHUNK)
        except (socket.timeout, BlockingIOError, InterruptedError):
            return False
        except OSError as exc:
            self._eof = True
            raise TransportClosed(
                f"connection to {self.endpoint} failed: {exc}"
            ) from exc
        if not data:
            self._eof = True
            raise TransportClosed(
                f"connection to {self.endpoint} dropped by peer"
            )
        for msg in self._decoder.feed(data):
            if isinstance(msg, tuple) and msg and msg[0] == "hb":
                self._beats += 1
                self.note_beat()
                # Heartbeats carry the session host's liveness-clock stamp
                # — a one-way sample for drift tracking, relative to the
                # handshake's offset, so only a synchronized clock takes it.
                if self.clock.synchronized:
                    self.clock.observe_oneway(
                        float(msg[2]["clock"]), monotonic_now()
                    )
            else:
                self._inbox.append(msg)
        return True

    # -- the protocol ---------------------------------------------------
    def send(self, msg: tuple) -> None:
        if self._eof:
            raise TransportClosed(f"connection to {self.endpoint} is closed")
        try:
            self._sock.sendall(encode_stream_frame(msg))
        except OSError as exc:
            self._eof = True
            raise TransportClosed(
                f"send to {self.endpoint} failed: {exc}"
            ) from exc

    def recv(self, timeout: float) -> tuple | None:
        if self._inbox:
            return self._inbox.popleft()
        self._pump(timeout)
        return self._inbox.popleft() if self._inbox else None

    def drain_heartbeats(self) -> int:
        try:
            while not self._eof and self._pump(0):
                pass
        except TransportClosed:
            pass  # healthy() / the next recv reports the loss
        beats, self._beats = self._beats, 0
        return beats

    def healthy(self) -> bool:
        # A dead TCP peer is only visible on read: poll without blocking.
        if not self._eof:
            try:
                self._pump(0)
            except TransportClosed:
                pass
        return not self._eof

    def death_reason(self) -> str:
        return f"connection to {self.endpoint} lost"

    def kill(self) -> None:
        # SIGKILL-equivalent: abortive close (RST), so the daemon sees a
        # drop — never a graceful FIN it could mistake for a clean stop.
        try:
            self._sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
        except OSError:
            pass
        self.close()

    def close(self) -> None:
        """Release the socket (idempotent; never raises)."""
        self._eof = True
        try:
            self._sock.close()
        except OSError:
            pass

    def join(self, timeout: float | None = None) -> None:
        """Wait for a graceful peer exit after a ``stop``: a remote
        session has no local process to wait for."""


def _ids(init: WorkerInit) -> str:
    return ", ".join(map(str, init.worker_ids))


class LocalDaemonFleet:
    """N localhost daemons started as child processes.

    They start as the pipe backend's workers do
    (:func:`~repro.net.transport.fork_context`), which keeps
    unpicklable-by-reference test programs importable in the daemon.
    Daemon processes are ``daemon=True`` so an abandoned coordinator
    cannot leak them.
    """

    def __init__(
        self,
        count: int,
        host: str = "127.0.0.1",
        max_sessions: int | None = None,
    ) -> None:
        if count < 1:
            raise ValueError("a daemon fleet needs at least one daemon")
        ctx = fork_context()
        self._procs: dict[Endpoint, Any] = {}
        try:
            for _ in range(count):
                recv, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_daemon_process_main,
                    name="repro-worker-daemon",
                    args=(host, send, max_sessions),
                    daemon=True,
                )
                proc.start()
                send.close()
                if not recv.poll(_SPAWN_TIMEOUT):
                    proc.kill()
                    raise TransportError(
                        "local worker daemon did not report a port within "
                        f"{_SPAWN_TIMEOUT:g}s"
                    )
                port = recv.recv()
                recv.close()
                self._procs[(host, int(port))] = proc
        except Exception:
            self.shutdown()
            raise

    def endpoints(self) -> list[Endpoint]:
        return list(self._procs)

    def kill(self, endpoint: Endpoint) -> bool:
        """SIGKILL the daemon at ``endpoint`` (failure injection)."""
        proc = self._procs.get(tuple(endpoint))
        if proc is None or not proc.is_alive():
            return False
        proc.kill()
        proc.join()
        return True

    def shutdown(self) -> None:
        for proc in self._procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs.values():
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join()


def probe_endpoint(
    endpoint: Endpoint, timeout: float = 2.0
) -> dict[str, Any]:
    """Send a ``status`` probe to one daemon; return its vitals dict."""
    host, port = endpoint
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(encode_stream_frame(("status", 0, None)))
        decoder = StreamDecoder()
        sock.settimeout(timeout)
        while True:
            data = sock.recv(_RECV_CHUNK)
            if not data:
                raise TransportError(
                    f"daemon at {host}:{port} closed before replying"
                )
            for msg in decoder.feed(data):
                kind, _epoch, payload = msg
                if kind != "status-reply":
                    raise TransportError(
                        f"daemon at {host}:{port} answered {kind!r} "
                        "to a status probe"
                    )
                return payload


class TcpTransport(Transport):
    """Launch host sessions on TCP daemons (round-robin + failover).

    With no ``endpoints`` it spawns a :class:`LocalDaemonFleet` of
    ``auto_daemons`` (default 3) localhost daemons, and owns it:
    :meth:`kill_host` SIGKILLs its daemons and :meth:`shutdown` stops them.
    """

    def __init__(
        self,
        endpoints: Sequence[Endpoint] | None = None,
        auto_daemons: int | None = None,
        connect_timeout: float = 10.0,
    ) -> None:
        self._connect_timeout = float(connect_timeout)
        self._fleet: LocalDaemonFleet | None = None
        if endpoints is not None:
            self._endpoints = [tuple(e) for e in endpoints]
            if not self._endpoints:
                raise ValueError("endpoint list is empty")
        else:
            self._fleet = LocalDaemonFleet(auto_daemons or 3)
            self._endpoints = self._fleet.endpoints()
        self._down: set[Endpoint] = set()

    def place(self, num_workers: int) -> list[tuple]:
        """One host per endpoint: endpoint ``i`` runs every ``w % n == i``."""
        n = len(self._endpoints)
        return [tuple(range(i, num_workers, n))
                for i in range(min(n, num_workers))]

    def launch(self, init: WorkerInit) -> TcpChannel:
        n = len(self._endpoints)
        order = [
            self._endpoints[(init.worker_ids[0] + i) % n] for i in range(n)
        ]
        errors: list[str] = []
        for endpoint in order:
            if endpoint in self._down:
                continue
            try:
                return self._connect(endpoint, init)
            except (TransportError, OSError) as exc:
                # Unreachable (refused/timed out socket) ⇒ skip it for
                # the rest of this run; a daemon refusal (capacity,
                # version) only skips it for this launch.
                if isinstance(exc, OSError):
                    self._down.add(endpoint)
                errors.append(f"{endpoint[0]}:{endpoint[1]}: {exc}")
        raise TransportError(
            f"no worker daemon accepted worker {_ids(init)}; tried: "
            + "; ".join(errors or ["(all endpoints marked down)"])
        )

    def _connect(self, endpoint: Endpoint, init: WorkerInit) -> TcpChannel:
        host, port = endpoint
        sock = socket.create_connection(
            (host, port), timeout=self._connect_timeout
        )
        channel = TcpChannel(init.worker_ids, sock, f"{host}:{port}")
        try:
            t0 = monotonic_now()  # NTP t0: hello leaves the coordinator
            channel.send(("hello", 0, {
                "version": PROTOCOL_VERSION,
                "init": init,
            }))
            deadline = t0 + _HANDSHAKE_TIMEOUT
            while True:
                reply = channel.recv(0.05)
                if reply is not None:
                    break
                if monotonic_now() > deadline:
                    raise TransportError(
                        f"daemon at {host}:{port} did not answer the "
                        f"handshake within {_HANDSHAKE_TIMEOUT:g}s"
                    )
            t3 = monotonic_now()  # NTP t3: ready reached the coordinator
            kind, _epoch, payload = reply
            if kind != "ready":
                raise TransportError(
                    f"daemon at {host}:{port} refused worker "
                    f"{_ids(init)}: {payload}"
                )
            # v2 ready payloads stamp t1/t2 on the daemon's clock; feed
            # the four-timestamp exchange into the channel's ClockSync.
            # (The t1..t2 gap — session construction — cancels out of
            # the RTT by the NTP arithmetic.)
            if isinstance(payload, dict) and "clock_recv" in payload:
                channel.clock.observe_handshake(
                    t0, float(payload["clock_recv"]),
                    float(payload["clock_send"]), t3,
                )
            return channel
        except TransportClosed as exc:
            channel.close()
            raise TransportError(
                f"daemon at {host}:{port} dropped the handshake: {exc}"
            ) from exc
        except Exception:
            channel.close()
            raise

    def kill_host(self, channel: TcpChannel) -> None:
        """SIGKILL the hosting daemon when we spawned it; else cut the cord.

        Either way the daemon side experiences an abrupt loss — which is
        the point: scheduled failures must exercise the same recovery
        path a real daemon crash does.
        """
        if self._fleet is not None:
            endpoint = parse_endpoint(channel.endpoint)
            self._fleet.kill(endpoint)
            self._down.add(endpoint)
        channel.kill()

    def shutdown(self) -> None:
        if self._fleet is not None:
            self._fleet.shutdown()

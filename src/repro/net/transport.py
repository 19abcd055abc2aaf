"""Pluggable coordinator↔worker transports for the distributed runtime.

:class:`~repro.dist.engine.ProcessBSPEngine` drives the barrier protocol
against abstract :class:`WorkerChannel`\\ s produced by a
:class:`Transport`.  Two backends exist:

* :class:`PipeTransport` — one forked OS process per worker, duplex
  ``multiprocessing`` pipes, a dedicated heartbeat pipe (the original
  :mod:`repro.dist` shape);
* :class:`~repro.net.tcp.TcpTransport` — sessions hosted by ``repro
  worker`` daemons reached over TCP sockets (:mod:`repro.net.tcp`).

The engine's coordinator logic — frame routing in source-worker-id order,
epoch-tagged replies, checkpointed rollback, respawn budgets — is written
entirely against this interface, which is what keeps the two backends
bit-identical.

Liveness clock: every heartbeat stamp and age in this plane comes from
:func:`monotonic_now` (``time.monotonic``).  Wall-clock time is never
consulted — an NTP step or manual clock jump must not fake a heartbeat
timeout and SIGKILL a healthy worker.
"""

from __future__ import annotations

import multiprocessing as mp
from abc import ABC, abstractmethod
from dataclasses import dataclass
from time import monotonic
from typing import Any

from ..obs.cluster import ClockSync
from .codec import pack_frame, unpack_frame

__all__ = [
    "PipeChannel",
    "PipeTransport",
    "Transport",
    "TransportClosed",
    "TransportError",
    "WorkerChannel",
    "WorkerInit",
    "monotonic_now",
]


def monotonic_now() -> float:
    """The transport plane's single liveness clock (monotonic, not wall)."""
    return monotonic()


class TransportError(RuntimeError):
    """A transport-level operation failed (launch, handshake, …)."""


class TransportClosed(TransportError):
    """The channel's peer is unreachable: pipe broken, socket dropped."""


@dataclass
class WorkerInit:
    """Everything a remote worker needs to build its PartitionWorker."""

    worker_id: int
    graph: Any
    vertex_ids: Any
    program: Any
    model: Any
    assignment: Any
    active_ids: Any
    heartbeat_interval: float
    want_flight: bool


class WorkerChannel(ABC):
    """One live worker: a message pipe plus liveness bookkeeping.

    The engine's protocol contract: :meth:`send` delivers one
    ``(cmd, epoch, payload)`` frame or raises :class:`TransportClosed`;
    :meth:`recv` returns one reply frame, ``None`` on timeout, or raises
    :class:`TransportClosed`; heartbeats never surface through
    :meth:`recv` — they update :attr:`last_beat` and are counted by
    :meth:`drain_heartbeats`.
    """

    #: transport label stamped on ``dist_*`` metrics
    transport = "?"

    def __init__(self, worker_id: int, endpoint: str) -> None:
        self.worker_id = worker_id
        self.endpoint = endpoint
        self.pending = 0  # replies owed for commands already sent
        self.last_beat = monotonic_now()
        self.alive = True
        #: remote-clock alignment; transports with a real handshake feed
        #: it (TCP).  Same-host backends leave it empty — offset() is
        #: then 0.0, which is exactly right for a forked process.
        self.clock = ClockSync()
        #: the remote session's flight-recorder epoch on its own
        #: liveness clock (None when unknown); set by the handshake.
        self.flight_epoch: float | None = None

    def heartbeat_age(self) -> float:
        """Seconds since the last beat, on the monotonic clock."""
        return monotonic_now() - self.last_beat

    def note_beat(self) -> None:
        self.last_beat = monotonic_now()

    @abstractmethod
    def send(self, msg: tuple) -> None:
        """Ship one frame; raise :class:`TransportClosed` if the peer is gone."""

    @abstractmethod
    def recv(self, timeout: float) -> tuple | None:
        """Return one non-heartbeat frame, or ``None`` after ``timeout``."""

    @abstractmethod
    def drain_heartbeats(self) -> int:
        """Absorb queued heartbeats (updating :attr:`last_beat`); return count."""

    @abstractmethod
    def healthy(self) -> bool:
        """Best-effort peer-alive probe (process alive / socket not EOF)."""

    @abstractmethod
    def death_reason(self) -> str:
        """Human-readable cause once :meth:`healthy` turns false."""

    @abstractmethod
    def kill(self) -> None:
        """SIGKILL-equivalent: terminate the peer session abruptly."""

    @abstractmethod
    def close(self) -> None:
        """Release local resources (idempotent; never raises)."""

    def join(self, timeout: float | None = None) -> None:
        """Wait for a graceful peer exit after a ``stop`` (best-effort)."""


class Transport(ABC):
    """Factory for :class:`WorkerChannel`\\ s plus fleet-level lifecycle."""

    name = "?"

    @abstractmethod
    def launch(self, init: WorkerInit) -> WorkerChannel:
        """Start (or connect to) one worker and hand back its channel."""

    def kill_host(self, channel: WorkerChannel) -> None:
        """Scheduled-failure hook: kill the *host* serving ``channel``.

        The pipe backend's host is the worker process itself; the TCP
        backend SIGKILLs the hosting daemon when it owns one, otherwise
        severs the connection (the daemon-side session dies with it).
        """
        channel.kill()

    def shutdown(self) -> None:
        """Release fleet-level resources (idempotent)."""


# ----------------------------------------------------------------------
# Pipe backend: forked worker processes (the original repro.dist shape)
# ----------------------------------------------------------------------


class PipeChannel(WorkerChannel):
    """A forked worker process with duplex command + heartbeat pipes."""

    transport = "pipe"

    def __init__(self, worker_id: int, proc, conn, hb_conn) -> None:
        super().__init__(worker_id, endpoint=f"pid:{proc.pid}")
        self.proc = proc
        self.conn = conn
        self.hb_conn = hb_conn

    def send(self, msg: tuple) -> None:
        try:
            self.conn.send_bytes(pack_frame(msg))
        except (BrokenPipeError, OSError) as exc:
            raise TransportClosed(f"pipe closed: {exc}") from exc

    def recv(self, timeout: float) -> tuple | None:
        try:
            if not self.conn.poll(timeout):
                return None
            data = self.conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise TransportClosed(f"pipe closed mid-reply: {exc}") from exc
        return unpack_frame(data)

    def drain_heartbeats(self) -> int:
        beats = 0
        try:
            while self.hb_conn.poll(0):
                self.hb_conn.recv_bytes()
                beats += 1
        except (EOFError, OSError):
            pass  # beats stop when the child dies; healthy() decides
        if beats:
            self.note_beat()
        return beats

    def healthy(self) -> bool:
        return self.proc.is_alive()

    def death_reason(self) -> str:
        return f"process exited (code {self.proc.exitcode})"

    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join()

    def join(self, timeout: float | None = None) -> None:
        self.proc.join(timeout)

    def close(self) -> None:
        for conn in (self.conn, self.hb_conn):
            try:
                conn.close()
            except OSError:
                pass


class PipeTransport(Transport):
    """One forked (or spawned) local OS process per worker."""

    name = "pipe"

    def __init__(self, start_method: str | None = None) -> None:
        if start_method is None:
            # fork keeps unpicklable (e.g. test-local) programs usable.
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else None
            )
        self._mp = mp.get_context(start_method)

    def launch(self, init: WorkerInit) -> PipeChannel:
        from ..dist.worker_proc import worker_main

        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        hb_recv, hb_send = self._mp.Pipe(duplex=False)
        proc = self._mp.Process(
            target=worker_main,
            name=f"bsp-worker-{init.worker_id}",
            args=(
                init.worker_id, child_conn, hb_send, init.graph,
                init.vertex_ids, init.program, init.model, init.assignment,
                init.active_ids, init.heartbeat_interval, init.want_flight,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        hb_send.close()
        return PipeChannel(init.worker_id, proc, parent_conn, hb_recv)

"""Pluggable coordinator↔worker transports for the distributed runtime.

:class:`~repro.dist.engine.ProcessBSPEngine` drives the barrier protocol
against abstract :class:`WorkerChannel`\\ s produced by a
:class:`Transport`.  Two backends exist:

* :class:`PipeTransport` — one forked OS process per worker, reached
  over a ``socketpair`` (:mod:`repro.dist.worker_proc`);
* :class:`~repro.net.tcp.TcpTransport` — sessions hosted by ``repro
  worker`` daemons reached over TCP sockets (:mod:`repro.net.tcp`).

Both carry one wire: the codec's ``[u64 len]`` stream frames under one
frame cap, heartbeats multiplexed on the reply stream, read on the
coordinator by :class:`~repro.net.tcp.TcpChannel` and served on the
worker by :func:`repro.net.daemon.host_session`.  The engine's
coordinator logic — frame routing in source-worker-id order,
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
import socket
from abc import ABC, abstractmethod
from dataclasses import dataclass
from time import monotonic
from typing import Any

from ..obs.cluster import ClockSync

__all__ = [
    "PipeTransport",
    "Transport",
    "TransportClosed",
    "TransportError",
    "WorkerChannel",
    "WorkerInit",
    "fork_context",
    "monotonic_now",
]


def monotonic_now() -> float:
    """The transport plane's single liveness clock (monotonic, not wall)."""
    return monotonic()


def fork_context():
    """The multiprocessing context local hosts start in: ``fork`` where
    the platform has it, as it keeps unpicklable (e.g. test-local)
    programs usable, else the platform default."""
    try:
        return mp.get_context("fork")
    except ValueError:  # the platform has no fork
        return mp.get_context()


class TransportError(RuntimeError):
    """A transport-level operation failed (launch, handshake, …)."""


class TransportClosed(TransportError):
    """The channel's peer is unreachable: pipe broken, socket dropped."""


@dataclass
class WorkerInit:
    """Everything a remote worker needs to build its worker.  With ``plan``
    set it hosts a dense shard built from ``shard``, its
    :class:`~repro.bsp.dense_shard.ShardSlice`: the coordinator then sends
    no graph and no assignment.  Otherwise it builds a PartitionWorker
    over ``vertex_ids`` of the whole ``graph``."""

    worker_id: int
    program: Any
    model: Any
    heartbeat_interval: float
    want_flight: bool
    plan: Any = None
    shard: Any = None
    graph: Any = None
    vertex_ids: Any = None
    assignment: Any = None
    active_ids: Any = None


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


class PipeTransport(Transport):
    """One local OS process per worker (see :func:`fork_context`); the
    child inherits its :class:`WorkerInit` through the fork."""

    name = "pipe"

    def __init__(self) -> None:
        self._mp = fork_context()

    def launch(self, init: WorkerInit) -> WorkerChannel:
        from ..dist.worker_proc import ForkedChannel, worker_main

        ours, theirs = socket.socketpair()
        proc = self._mp.Process(
            target=worker_main,
            name=f"bsp-worker-{init.worker_id}",
            args=(init, theirs, ours),
            daemon=True,
        )
        proc.start()
        theirs.close()
        return ForkedChannel(init.worker_id, proc, ours)

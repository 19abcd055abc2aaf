"""Coordinator↔worker transports for the distributed runtime.

:class:`~repro.dist.engine.ProcessBSPEngine` drives the barrier protocol
against the :class:`~repro.net.tcp.TcpChannel`\\ s a :class:`Transport`
launches.  Two transports exist:

* :class:`PipeTransport` — one forked OS process per worker, reached
  over a ``socketpair`` (:mod:`repro.dist.worker_proc`);
* :class:`~repro.net.tcp.TcpTransport` — sessions hosted by ``repro
  worker`` daemons reached over TCP sockets (:mod:`repro.net.tcp`).

A channel reaches one *host*: one session running every worker
:meth:`Transport.place` puts together, which a :class:`WorkerInit`
describes.  A forked process hosts one worker, a daemon every worker
placed on it; the host is also the unit of failure, so losing it loses
all of its workers at once.

Both carry one wire: the codec's ``[u64 len]`` stream frames under one
frame cap, heartbeats multiplexed on the reply stream, read on the
coordinator by one channel class, :class:`~repro.net.tcp.TcpChannel`,
and served on the worker by :func:`repro.net.daemon.host_session`.  The
engine's coordinator logic — frame routing in source-worker-id order,
epoch-tagged replies, checkpointed rollback, respawn budgets — never
asks which transport launched a channel, which is what keeps the two
backends bit-identical.

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
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .tcp import TcpChannel

__all__ = [
    "PipeTransport",
    "Transport",
    "TransportClosed",
    "TransportError",
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
    """Everything one host needs to build its workers, ``worker_ids`` in
    ascending order.  With ``plan`` set each is a dense shard built from
    its :class:`~repro.bsp.dense_shard.ShardSlice` in ``shards``: the
    coordinator then sends no graph and no assignment.  Otherwise each is
    a PartitionWorker over its ``vertex_ids`` of the whole ``graph``."""

    worker_ids: tuple
    program: Any
    model: Any
    heartbeat_interval: float
    want_flight: bool
    plan: Any = None
    shards: Any = None
    graph: Any = None
    vertex_ids: Any = None
    assignment: Any = None
    active_ids: Any = None


class Transport(ABC):
    """Factory for :class:`~repro.net.tcp.TcpChannel`\\ s plus fleet-level
    lifecycle."""

    def place(self, num_workers: int) -> list[tuple]:
        """The worker ids each host runs: one process per worker."""
        return [(w,) for w in range(num_workers)]

    @abstractmethod
    def launch(self, init: WorkerInit) -> TcpChannel:
        """Start (or connect to) one host and hand back its channel."""

    def kill_host(self, channel: TcpChannel) -> None:
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

    def __init__(self) -> None:
        self._mp = fork_context()

    def launch(self, init: WorkerInit) -> TcpChannel:
        from ..dist.worker_proc import ForkedChannel, worker_main

        ours, theirs = socket.socketpair()
        proc = self._mp.Process(
            target=worker_main,
            name=f"bsp-worker-{init.worker_ids[0]}",
            args=(init, theirs, ours),
            daemon=True,
        )
        proc.start()
        theirs.close()
        return ForkedChannel(init.worker_ids, proc, ours)

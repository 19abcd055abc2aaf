"""The forked worker: its process main and the coordinator's channel to it.

:func:`worker_main` is the entry point each process-engine worker runs
after :class:`~repro.net.transport.PipeTransport` forks it.  The child
inherits its :class:`~repro.net.transport.WorkerInit` through the fork,
builds its :class:`repro.net.session.WorkerSession` — a host of one
worker — and serves it with
:func:`repro.net.daemon.host_session`, the loop a ``repro worker``
daemon runs after its handshake, on one end of a ``socketpair``: the
same stream frames, frame cap and multiplexed heartbeats as a TCP
session.  :class:`ForkedChannel` is the coordinator's end.

A worker process must never write to the shared stdout/stderr —
concurrent children interleave mid-line and corrupt the parent's progress
display.  Everything (user ``print()`` in compute(), library chatter) is
captured and shipped to the coordinator at each barrier, which emits it
atomically with a ``[worker N]`` prefix.
"""

from __future__ import annotations

import asyncio
import io
import sys

from ..net.daemon import host_session
from ..net.session import WorkerSession
from ..net.tcp import TcpChannel

__all__ = ["ForkedChannel", "worker_main"]


def worker_main(init, sock, coordinator_end) -> None:
    """The forked child's ``main``: serve one session on ``sock``."""
    # The coordinator's end came along with the fork; holding it would
    # keep this session from ever reading EOF should the coordinator die.
    coordinator_end.close()
    captured = io.StringIO()
    sys.stdout = sys.stderr = captured

    def _drain_output() -> str:
        text = captured.getvalue()
        if text:
            captured.seek(0)
            captured.truncate()
        return text

    session = WorkerSession(init, drain_output=_drain_output)

    async def serve() -> None:
        reader, writer = await asyncio.open_connection(sock=sock)
        try:
            await host_session(reader, writer, session,
                               float(init.heartbeat_interval))
        finally:
            writer.close()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass


class ForkedChannel(TcpChannel):
    """A forked worker process over a socketpair.

    Frames, heartbeats and EOF detection are :class:`TcpChannel`'s; the
    process handle answers liveness, death and kill.  There is no
    handshake, so the channel's ClockSync stays empty: the child reads the
    coordinator's own monotonic clock, and an offset of 0.0 is exact.
    """

    transport = "pipe"

    def __init__(self, worker_ids: tuple, proc, sock) -> None:
        super().__init__(worker_ids, sock, endpoint=f"pid:{proc.pid}")
        self.proc = proc

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

"""The TCP execution backend: ``ProcessBSPEngine`` over worker daemons.

:class:`TcpBSPEngine` is the engine behind ``repro run --engine tcp``:
the exact coordinator logic of
:class:`~repro.dist.engine.ProcessBSPEngine` — barrier protocol, frame
routing in source-worker-id order, checkpointed recovery, respawn
budgets — driven over a :class:`~repro.net.tcp.TcpTransport` instead of
forked worker processes.  Because the coordinator is inherited verbatim, results
stay bit-identical to :class:`~repro.bsp.engine.BSPEngine`
(``certify_determinism(engine="tcp")``) and the simulated accounting —
including rollback charges after a daemon crash — matches the other
backends row for row.

Endpoints come from (first match wins):

* ``endpoints=[(host, port), ...]`` — an explicit list;
* ``workers_file=`` — one ``host:port`` per line, ``#`` comments
  (:func:`repro.net.tcp.load_workers_file`);
* neither — an auto-spawned localhost :class:`~repro.net.tcp.LocalDaemonFleet`
  of ``auto_daemons`` (default ``min(num_workers, 3)``) daemons, owned
  by the :class:`~repro.net.tcp.TcpTransport` and stopped when the
  engine shuts it down, a failed constructor included.  This is what
  lets tests and ``certify_determinism`` run with zero external setup.

One daemon hosts many workers in one session: worker *w* goes to
endpoint ``w % n`` (failing over to the next endpoint in order), and
every worker placed on a daemon shares its session's command stream —
one ``compute`` and one ``deliver`` per superstep — with the buckets
between them folded in the session's memory; only cross-host frames
pass through the coordinator.  The host is the unit of failure: after a
daemon is lost, recovery relaunches its session, all of its workers, on
a survivor (respawn-or-reassign), each worker counted once against
``max_respawns``, before restoring the last checkpoint.
"""

from __future__ import annotations

from typing import Sequence

from ..bsp.job import JobSpec
from ..dist.engine import ProcessBSPEngine
from .tcp import TcpTransport, load_workers_file

__all__ = ["TcpBSPEngine"]


class TcpBSPEngine(ProcessBSPEngine):
    """BSPEngine whose workers are sessions on TCP worker daemons."""

    def __init__(
        self,
        job: JobSpec,
        endpoints: Sequence[tuple] | None = None,
        workers_file: str | None = None,
        auto_daemons: int | None = None,
        heartbeat_interval: float = 0.1,
        heartbeat_timeout: float | None = 30.0,
        connect_timeout: float = 10.0,
        check_program: bool = True,
        max_respawns: int | None = None,
        transport: TcpTransport | None = None,
    ) -> None:
        if transport is None:
            if check_program:  # refuse before the transport forks a fleet
                self._gate_program(job.program)
                check_program = False
            if endpoints is None and workers_file is not None:
                endpoints = load_workers_file(workers_file)
            transport = TcpTransport(
                endpoints=endpoints,
                auto_daemons=auto_daemons or min(int(job.num_workers), 3),
                connect_timeout=connect_timeout,
            )
        super().__init__(
            job,
            heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=heartbeat_timeout,
            check_program=check_program,
            max_respawns=max_respawns,
            transport=transport,
        )

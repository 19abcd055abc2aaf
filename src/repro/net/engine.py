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
  of ``auto_daemons`` (default ``min(num_workers, 3)``) daemons, torn
  down with the engine.  This is what lets tests and
  ``certify_determinism`` run with zero external setup.

One daemon hosts many workers: placement is round-robin by worker id
with failover, and after a daemon is lost, recovery relaunches its
workers on the survivors (respawn-or-reassign) before restoring the last
checkpoint.
"""

from __future__ import annotations

from typing import Sequence

from ..bsp.job import JobSpec
from ..dist.engine import ProcessBSPEngine
from .tcp import LocalDaemonFleet, TcpTransport, load_workers_file

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
            if endpoints is None and workers_file is not None:
                endpoints = load_workers_file(workers_file)
            local_fleet = None
            if endpoints is None:
                local_fleet = LocalDaemonFleet(
                    auto_daemons or min(int(job.num_workers), 3)
                )
            transport = TcpTransport(
                endpoints=endpoints,
                connect_timeout=connect_timeout,
                local_fleet=local_fleet,
            )
            self._owned_fleet = local_fleet
        else:
            self._owned_fleet = None
        try:
            super().__init__(
                job,
                heartbeat_interval=heartbeat_interval,
                heartbeat_timeout=heartbeat_timeout,
                check_program=check_program,
                max_respawns=max_respawns,
                transport=transport,
            )
        except Exception:
            # The base constructor only reaches its own cleanup once the
            # launch loop starts; a failure before that (program gate,
            # job validation) must still tear down an auto-spawned fleet.
            if self._owned_fleet is not None:
                self._owned_fleet.shutdown()
            raise

    def kill_daemon_of(self, worker_id: int) -> str:
        """Kill the daemon hosting ``worker_id`` (failure injection).

        Returns the endpoint that was killed.  Every worker hosted on
        that daemon is lost at once — the hard-failure mode unique to
        multi-session hosts, which recovery must survive by reassigning
        them all to the surviving daemons.
        """
        h = self._handles[worker_id]
        self._transport.kill_host(h)
        return h.endpoint

    def shutdown(self) -> None:
        super().shutdown()
        if self._owned_fleet is not None:
            self._owned_fleet.shutdown()

"""The worker-side command state machine, shared by every transport.

:class:`WorkerSession` owns one
:class:`~repro.bsp.worker.PartitionWorker` plus its private telemetry
(flight-recorder ring, sanitizer-violation cursor) and
turns each coordinator command frame into a reply frame.  The forked
child (:mod:`repro.dist.worker_proc`) and the TCP daemon
(:mod:`repro.net.daemon`) differ only in how frames reach
:meth:`WorkerSession.handle` — the protocol semantics live here once,
which is what keeps the backends bit-identical.

Commands (every frame is ``(cmd, epoch, payload)``; replies echo the
epoch so the coordinator can discard ones that predate a recovery):

``inject``    queue control-plane activation messages
``compute``   begin the superstep, run compute(), return the
              per-destination message frames (combiners already applied
              sender-side), step stats, and aggregator partials
``deliver``   apply inbound frames in the order given (the coordinator
              sends them in source-worker-id order — the sequential
              engine's delivery order), return the barrier report:
              resource numbers, fresh sanitizer violations,
              flight-event tail, captured output
``snapshot`` / ``restore``  checkpointing via the worker's own
              snapshot()/restore()
``extract``   map final vertex states through ``program.extract``
``stop``      acknowledged with ``bye``; the caller ends the loop

Exceptions inside a handler come back as ``("error", epoch, traceback)``
rather than killing the host; actual host death is the coordinator's
heartbeat/liveness monitor's business.
"""

from __future__ import annotations

import traceback
from time import perf_counter
from typing import Any, Callable

from ..bsp.worker import PartitionWorker
from .codec import pack_frame, unpack_frame
from .transport import monotonic_now

__all__ = ["WorkerSession"]


def _report(worker: PartitionWorker) -> dict[str, Any]:
    """Resource numbers the coordinator mirrors into its per-worker view
    (the duck-typed surface ``BSPEngine._account_superstep`` reads)."""
    return {
        "active": worker.active_count,
        "buffered": worker.has_buffered_messages,
        "buffered_bytes": worker.buffered_message_bytes(),
        "queue_depth": worker.buffered_message_count(),
        "graph_bytes": worker.graph_bytes,
        "state_bytes": worker.total_state_bytes,
        "in_next_bytes": worker.in_next_payload_bytes,
        "memory": worker.memory_footprint(),
    }


class WorkerSession:
    """One hosted PartitionWorker plus its barrier-marshalled telemetry."""

    def __init__(
        self,
        worker_id: int,
        graph: Any,
        vertex_ids: Any,
        program: Any,
        model: Any,
        assignment: Any,
        active_ids: Any,
        *,
        want_flight: bool = False,
        drain_output: Callable[[], str] | None = None,
    ) -> None:
        self.worker_id = worker_id
        self._drain_output = drain_output
        # Session-private flight recorder: the fresh tail ships to the
        # coordinator in every barrier ("delivered") reply, which folds it
        # in with FlightRecorder.merge_remote.
        self.flight = None
        self._flight_cursor = -1
        if want_flight:
            from ..obs.flight import FlightRecorder

            # The recorder runs on the liveness clock so its epoch and
            # every host stamp live in the timebase ClockSync aligns —
            # the coordinator can then restamp merged events exactly.
            self.flight = FlightRecorder(capacity=1024, clock=monotonic_now)
        self.worker = PartitionWorker(
            worker_id=worker_id,
            graph=graph,
            vertex_ids=vertex_ids,
            program=program,
            model=model,
            assignment=assignment,
            initially_active=active_ids is None,
        )
        if active_ids is not None:
            for v in active_ids:
                v = int(v)
                if int(assignment[v]) == worker_id:
                    self.worker.halted[v] = False
        self._violations_seen = 0

    def handle(self, cmd: str, epoch: int, payload: Any) -> tuple:
        """One command frame in, one reply frame out (never raises)."""
        if cmd == "stop":
            return ("bye", epoch, None)
        try:
            return self._dispatch(cmd, epoch, payload)
        except Exception:
            return ("error", epoch, traceback.format_exc())

    def _dispatch(self, cmd: str, epoch: int, payload: Any) -> tuple:
        worker = self.worker
        if cmd == "inject":
            for dst, p in payload:
                worker.inject(int(dst), p)
            return ("ok", epoch, _report(worker))
        if cmd == "compute":
            superstep, agg_values = payload
            t0 = perf_counter()
            worker.begin_superstep(superstep, agg_values)
            worker.run_compute()
            host = perf_counter() - t0
            if self.flight is not None:
                self.flight.record(
                    "worker-compute", superstep=superstep,
                    host_seconds=round(host, 6),
                    msgs=worker.stats.msgs_out_local
                    + worker.stats.msgs_out_remote,
                )
            worker.stats.peers_out = len(worker.out_remote)
            worker.stats.bytes_out = worker.out_remote_wire_bytes
            # One frame per destination: the whole post-combine bucket in
            # its emission (insertion) order.
            frames = {
                int(dw): pack_frame(list(pv.items()))
                for dw, pv in worker.out_remote.items()
            }
            return ("computed", epoch, {
                "frames": frames,
                "stats": worker.stats,
                "agg_partials": worker._agg_partials,
                "host_seconds": host,
                # This host's liveness-clock stamp at compute end; with
                # the channel's ClockSync offset the coordinator places
                # the compute span at its true position in its own
                # timebase instead of at reply-arrival time.
                "clock_end": monotonic_now(),
            })
        if cmd == "deliver":
            recv_msgs = 0
            recv_bytes = 0.0
            for _src, frame in payload:
                msgs, wire = worker.deliver_bucket(unpack_frame(frame))
                recv_msgs += msgs
                recv_bytes += wire
            # Sanitizer support: a wrapping program (duck-typed via its
            # `violations` list) accumulates in this host; ship the fresh
            # entries so the coordinator-side observer sees them at the
            # barrier, engine-independent.
            fresh: tuple = ()
            v_list = getattr(worker.program, "violations", None)
            if isinstance(v_list, list):
                fresh = tuple(v_list[self._violations_seen:])
                self._violations_seen = len(v_list)
            flight_events = None
            if self.flight is not None:
                tail, self._flight_cursor = self.flight.events_since(
                    self._flight_cursor
                )
                flight_events = [e.to_dict() for e in tail]
            return ("delivered", epoch, {
                "recv_msgs": recv_msgs,
                "recv_bytes": recv_bytes,
                "report": _report(worker),
                "violations": fresh,
                "flight": flight_events,
                # Liveness-clock reading of this recorder's epoch lets
                # the coordinator convert shipped event host stamps
                # (seconds since epoch) back into absolute remote-clock
                # time, then into its own timebase via ClockSync.
                "flight_epoch": (
                    self.flight.epoch if self.flight is not None else None
                ),
                "output": (
                    self._drain_output() if self._drain_output else ""
                ),
            })
        if cmd == "snapshot":
            return ("snapshotted", epoch, worker.snapshot())
        if cmd == "restore":
            worker.restore(payload)
            return ("restored", epoch, _report(worker))
        if cmd == "extract":
            prog = worker.program
            return ("extracted", epoch, {
                int(v): prog.extract(int(v), st)
                for v, st in worker.states.items()
            })
        raise ValueError(f"unknown command {cmd!r}")

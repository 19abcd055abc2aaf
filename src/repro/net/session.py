"""The worker-side command state machine, shared by every transport.

:class:`WorkerSession` owns one
:class:`~repro.bsp.worker.PartitionWorker`, or a
:class:`~repro.bsp.dense_shard.DenseShard` built from its slice of the
job's arc layout, plus its private telemetry
(flight-recorder ring, sanitizer-violation cursor) and
turns each coordinator command frame into a reply frame.  The forked
child (:mod:`repro.dist.worker_proc`) and the TCP daemon
(:mod:`repro.net.daemon`) both serve it with
:func:`repro.net.daemon.host_session` and differ only in how the session
is built — the protocol semantics live here once, which is what keeps
the backends bit-identical.

Commands (every frame is ``(cmd, epoch, payload)``; replies echo the
epoch so the coordinator can discard ones that predate a recovery):

``inject``    queue control-plane activation messages, return the
              resource report (empty, it is how the coordinator seeds
              its view of the session)
``compute``   begin the superstep, run compute(), return the
              per-destination message frames (combiners already applied
              sender-side; a frame is the worker's ``out_remote`` bucket:
              a ``dst -> box`` dict, the box being the folded payload
              with a combiner and the payload list without, or a shard's
              ``(row index, value)`` arrays), step stats, and aggregator
              partials
``deliver``   apply inbound frames in the order given (the coordinator
              sends them in source-worker-id order — the sequential
              engine's delivery order), return the barrier report:
              resource numbers, fresh sanitizer violations,
              flight-event tail, captured output
``snapshot`` / ``restore``  checkpointing via the worker's own
              snapshot()/restore()
``extract``   the final ``(ids, values)`` columns, values through
              ``program.extract`` when it is overridden
``stop``      acknowledged with ``bye``; the caller ends the loop

Exceptions inside a handler come back as ``("error", epoch, traceback)``
rather than killing the host; actual host death is the coordinator's
heartbeat/liveness monitor's business.
"""

from __future__ import annotations

import traceback
from time import perf_counter
from typing import Any, Callable

from ..bsp.dense_shard import DenseShard
from ..bsp.job import extract_columns
from ..bsp.worker import PartitionWorker
from .codec import pack_frame, unpack_frame
from .transport import WorkerInit, monotonic_now

__all__ = ["WorkerSession", "worker_report"]


def worker_report(worker: PartitionWorker) -> dict[str, Any]:
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
    """One hosted worker plus its barrier-marshalled telemetry."""

    def __init__(self, init: WorkerInit,
                 drain_output: Callable[[], str] | None = None) -> None:
        """The session ``init`` describes."""
        self.worker_id = worker_id = init.worker_id
        self._drain_output = drain_output
        # Session-private flight recorder: the fresh tail ships to the
        # coordinator in every barrier ("delivered") reply, which folds it
        # in with FlightRecorder.merge_remote.
        self.flight = None
        self._flight_cursor = -1
        if init.want_flight:
            from ..obs.flight import FlightRecorder

            # The recorder runs on the liveness clock so its epoch and
            # every host stamp live in the timebase ClockSync aligns —
            # the coordinator can then restamp merged events exactly.
            self.flight = FlightRecorder(capacity=1024, clock=monotonic_now)
        #: hosts a DenseShard: every command is a few array operations
        self.hosts_shard = init.plan is not None
        if self.hosts_shard:
            self.worker = DenseShard(init.shard, init.program, init.model,
                                     init.plan)
        else:
            self.worker = PartitionWorker(
                worker_id=worker_id, graph=init.graph,
                vertex_ids=init.vertex_ids, program=init.program,
                model=init.model, assignment=init.assignment,
                active_ids=init.active_ids,
            )
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
            return ("ok", epoch, worker_report(worker))
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
            # its emission (insertion) order, the shape deliver_bucket takes.
            frames = {
                int(dw): pack_frame(bucket)
                for dw, bucket in worker.out_remote.items()
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
                "report": worker_report(worker),
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
            return ("restored", epoch, worker_report(worker))
        if cmd == "extract":
            return ("extracted", epoch, extract_columns(worker))
        raise ValueError(f"unknown command {cmd!r}")

"""The host-side command state machine, shared by every transport.

:class:`WorkerSession` owns every worker one host runs for a job — each a
:class:`~repro.bsp.worker.PartitionWorker`, or a
:class:`~repro.bsp.dense_shard.DenseShard` built from its slice of the
job's arc layout — plus the host's private telemetry (flight-recorder
ring, sanitizer-violation cursor), and turns each coordinator command
frame into a reply frame.  The forked child (:mod:`repro.dist.worker_proc`,
a host of one worker) and the TCP daemon (:mod:`repro.net.daemon`, a host
of every worker placed on it) both serve it with
:func:`repro.net.daemon.host_session` and differ only in how the session
is built — the protocol semantics live here once, which is what keeps
the backends bit-identical.

Commands (every frame is ``(cmd, epoch, payload)``; replies echo the
epoch so the coordinator can discard ones that predate a recovery).  A
per-worker payload or reply is a list in the session's worker-id order:

``inject``    queue each worker's control-plane activation messages,
              return the resource reports (empty, it is how the
              coordinator seeds its view of each worker)
``compute``   run every worker's superstep in worker-id order; return
              each one's step stats, aggregator partials and fresh
              sanitizer violations, and a ``(src, dst) -> frame`` dict of
              the buckets bound for workers on other hosts (combiners
              already applied sender-side; a frame is the worker's
              ``out_remote`` bucket: a ``dst -> box`` dict, the box being
              the folded payload with a combiner and the payload list
              without, or a shard's ``(row index, value)`` arrays).
              Buckets between co-hosted workers never leave memory.
``deliver``   fold into every worker, in ascending source-worker order
              (the sequential engine's delivery order), its co-hosted
              buckets merged with the routed ``(src, dst) -> frame``
              dict; return per worker ``recv_msgs``, ``recv_bytes``,
              ``peers_in`` and its resource report, and the host's
              flight-event tail and captured output
``snapshot`` / ``restore``  checkpointing via each worker's own
              snapshot()/restore()
``extract``   each worker's final ``(ids, values)`` columns, values
              through ``program.extract`` when it is overridden
``stop``      acknowledged with ``bye``; the caller ends the loop

Exceptions inside a handler come back as ``("error", epoch, traceback)``
rather than killing the host; actual host death is the coordinator's
heartbeat/liveness monitor's business.
"""

from __future__ import annotations

import traceback
from operator import itemgetter
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
    """The workers one host runs, plus its barrier-marshalled telemetry."""

    def __init__(self, init: WorkerInit,
                 drain_output: Callable[[], str] | None = None) -> None:
        """The session ``init`` describes."""
        self.worker_ids = tuple(init.worker_ids)
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
        #: hosts dense shards: every command is a few array operations
        self.hosts_shard = init.plan is not None
        if self.hosts_shard:
            self.workers = [DenseShard(s, init.program, init.model, init.plan)
                            for s in init.shards]
        else:
            self.workers = [PartitionWorker(
                worker_id=w, graph=init.graph, vertex_ids=ids,
                program=init.program, model=init.model,
                assignment=init.assignment, active_ids=init.active_ids,
            ) for w, ids in zip(self.worker_ids, init.vertex_ids)]
        self._violations_seen = 0

    def handle(self, cmd: str, epoch: int, payload: Any) -> tuple:
        """One command frame in, one reply frame out (never raises)."""
        if cmd == "stop":
            return ("bye", epoch, None)
        try:
            return self._dispatch(cmd, epoch, payload)
        except Exception:
            return ("error", epoch, traceback.format_exc())

    def _fresh_violations(self, worker) -> tuple:
        """Sanitizer support: a wrapping program (duck-typed via its
        `violations` list) accumulates in this host; the entries since the
        last call ship with the worker that ran, so the coordinator-side
        observer sees them at the barrier in worker order."""
        v_list = getattr(worker.program, "violations", None)
        if not isinstance(v_list, list):
            return ()
        fresh = tuple(v_list[self._violations_seen:])
        self._violations_seen = len(v_list)
        return fresh

    def _dispatch(self, cmd: str, epoch: int, payload: Any) -> tuple:
        workers = self.workers
        if cmd == "inject":
            for worker, pairs in zip(workers, payload):
                for dst, p in pairs:
                    worker.inject(int(dst), p)
            return ("ok", epoch, [worker_report(w) for w in workers])
        if cmd == "compute":
            superstep, agg_values = payload
            reps = []
            for w, worker in zip(self.worker_ids, workers):
                t0 = perf_counter()
                worker.begin_superstep(superstep, agg_values)
                worker.run_compute()
                host = perf_counter() - t0
                if self.flight is not None:
                    self.flight.record(
                        "worker-compute", superstep=superstep, worker=w,
                        host_seconds=round(host, 6),
                        msgs=worker.stats.msgs_out_local
                        + worker.stats.msgs_out_remote,
                    )
                worker.stats.peers_out = len(worker.out_remote)
                worker.stats.bytes_out = worker.out_remote_wire_bytes
                reps.append({
                    "stats": worker.stats,
                    "agg_partials": worker._agg_partials,
                    "violations": self._fresh_violations(worker),
                    "host_seconds": host,
                    # This host's liveness-clock stamp at compute end; with
                    # the channel's ClockSync offset the coordinator places
                    # the compute span at its true position in its own
                    # timebase instead of at reply-arrival time.
                    "clock_end": monotonic_now(),
                })
            # One frame per cross-host bucket: the whole post-combine
            # bucket in its emission (insertion) order, the shape
            # deliver_bucket takes.
            frames = {
                (src, int(dw)): pack_frame(bucket)
                for src, worker in zip(self.worker_ids, workers)
                for dw, bucket in worker.out_remote.items()
                if dw not in self.worker_ids
            }
            return ("computed", epoch, {"workers": reps, "frames": frames})
        if cmd == "deliver":
            inbound: dict[int, list] = {w: [] for w in self.worker_ids}
            for src, worker in zip(self.worker_ids, workers):
                for dw, bucket in worker.out_remote.items():
                    if dw in inbound:
                        inbound[dw].append((src, bucket))
            for (src, dw), frame in payload.items():
                inbound[dw].append((src, unpack_frame(frame)))
            reps = []
            for w, worker in zip(self.worker_ids, workers):
                recv_msgs = 0
                recv_bytes = 0.0
                for _src, bucket in sorted(inbound[w], key=itemgetter(0)):
                    msgs, wire = worker.deliver_bucket(bucket)
                    recv_msgs += msgs
                    recv_bytes += wire
                reps.append({
                    "recv_msgs": recv_msgs,
                    "recv_bytes": recv_bytes,
                    "peers_in": len(inbound[w]),
                    "report": worker_report(worker),
                })
            flight_events = None
            if self.flight is not None:
                tail, self._flight_cursor = self.flight.events_since(
                    self._flight_cursor
                )
                flight_events = [e.to_dict() for e in tail]
            return ("delivered", epoch, {
                "workers": reps,
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
            return ("snapshotted", epoch, [w.snapshot() for w in workers])
        if cmd == "restore":
            for worker, snap in zip(workers, payload):
                worker.restore(snap)
            return ("restored", epoch, [worker_report(w) for w in workers])
        if cmd == "extract":
            return ("extracted", epoch, [extract_columns(w) for w in workers])
        raise ValueError(f"unknown command {cmd!r}")

"""Distributed BSP engine: workers in forked processes or daemon sessions.

:class:`ProcessBSPEngine` is the reproduction's distributed *execution
backend* — the same job model, vertex programs, simulated-cloud
accounting, trace format, and checkpoint/rollback semantics as the
sequential :class:`~repro.bsp.engine.BSPEngine`, but with every
:class:`~repro.bsp.worker.PartitionWorker` hosted behind a pluggable
:class:`~repro.net.transport.Transport`, the way Pregel.NET runs workers
as real processes on Azure VMs (§III).  Pure-Python ``compute()`` runs
in parallel across processes, outside one interpreter's GIL.

Architecture (the paper's job-manager/worker split, §III):

* the parent is the coordinator: it drives the barrier protocol (inject →
  compute → deliver → aggregator merge → master compute → accounting),
  routes bulk message frames between workers, merges aggregator partials
  in worker-id order, runs ``master_compute``, prices the superstep on the
  cloud models, and owns the checkpoint.  It hosts no vertex: its
  ``workers`` are views of the resource report each session sends;
* each worker owns its partition's state in the
  :class:`repro.net.session.WorkerSession` of its *host*, served by
  :func:`repro.net.daemon.host_session` — the one session loop, in a
  forked process (a host of one worker) or a ``repro worker`` daemon (a
  host of every worker placed on it) alike.  Messages between hosts
  cross the wire as length-prefixed pickle-5 frames
  (:mod:`repro.net.codec`), combiners already applied sender-side;
  between co-hosted workers they stay in the session's memory.  When the
  program lifts, every worker runs the plan compiled here on its own
  rows (a dense shard, one ``(row index, value)`` array pair per frame)
  in place of a :class:`~repro.bsp.worker.PartitionWorker`; it folds
  like one.  Such a session receives only its workers' slices of the
  job's arc layout.

Transports (:mod:`repro.net`): the default
:class:`~repro.net.transport.PipeTransport` forks one local OS process
per worker and reaches it over a ``socketpair``;
:class:`~repro.net.tcp.TcpTransport` places sessions on ``repro worker``
daemons over TCP sockets (:class:`repro.net.TcpBSPEngine` is the
pre-configured subclass behind ``--engine tcp``).  Both speak one wire,
read on this side by :class:`~repro.net.tcp.TcpChannel`; the coordinator
logic below is transport-agnostic.

Determinism: workers compute independently, but each worker folds its
inbound buckets, co-hosted and routed alike, in source-worker-id order and
each in emission order — exactly the sequential engine's flush order — and
aggregator partials merge in worker-id order, so ``extract()`` output is
bit-identical to the sequential engine (``certify_determinism(engine=
"process")`` and ``engine="tcp"`` check this).  Each host gets one
``compute`` and one ``deliver`` per superstep.

Robustness: hosts heartbeat on their reply stream; the parent detects
death (``healthy()``/channel errors) and hangs (heartbeat age beyond
``heartbeat_timeout`` on the **monotonic** clock — wall-time jumps cannot
fake a timeout), kills the victim if needed, launches a replacement, and
replays Pregel-style coordinated rollback from the last checkpoint using
the engine's existing checkpoint machinery.  The host is the unit of
failure: losing it loses all of its workers, which relaunch together as
one session, each counted against ``max_respawns``.
:meth:`ProcessBSPEngine.kill_worker_at` schedules a *real* kill through
the same ``failure_schedule`` dict that
:func:`repro.cloud.spot.spot_failure_schedule` produces.

Telemetry parity: workers keep no metrics registry — the per-worker
series are derived coordinator-side from the step stats every ``computed``
reply marshals.  The fleet events this engine emits on the spine
(:mod:`repro.bsp.telemetry`) add per-worker compute host time as
``worker-compute`` spans plus the transport (``dist_frames_total``,
``dist_frame_bytes_total``) and liveness (``dist_heartbeats_total``,
``dist_workers_alive``) series, all labeled with the transport name.
"""

from __future__ import annotations

import sys
from typing import Any

import numpy as np

from ..analysis.traces import ABORTED_SUPERSTEP
from ..bsp.dense_ref import shard_plan
from ..bsp.dense_shard import DenseLayout
from ..bsp.engine import BSPEngine
from ..bsp.job import JobResult, JobSpec, VertexValues
from ..bsp.superstep import SuperstepStats, WorkerStepStats
from ..net.tcp import TcpChannel
from ..net.transport import (
    PipeTransport,
    Transport,
    TransportClosed,
    WorkerInit,
    monotonic_now,
)

__all__ = [
    "ProcessBSPEngine",
    "WorkerFailure",
    "ChildError",
    "ProgramSafetyError",
]


class WorkerFailure(RuntimeError):
    """A worker died or hung (SIGKILL, crash, drop, heartbeat timeout)."""

    def __init__(self, worker_id: int, reason: str) -> None:
        super().__init__(f"worker {worker_id} failed: {reason}")
        self.worker_id = worker_id
        self.reason = reason


class ProgramSafetyError(RuntimeError):
    """The static analyzer found state the process engine cannot pickle.

    Raised *before any worker is launched* (RPC011): lambdas, open
    handles, or locks stored in program/vertex state would otherwise
    surface as an opaque ``PicklingError`` deep inside the first
    checkpoint, recovery, or result extraction.  Carries the individual
    :class:`~repro.check.costmodel.PickleRisk` entries; bypass with
    ``ProcessBSPEngine(job, check_program=False)`` if the state is known
    to never cross a process boundary.
    """

    def __init__(self, program_name: str, risks) -> None:
        self.program_name = program_name
        self.risks = tuple(risks)
        lines = "\n".join(
            f"  - {r.method}(): {r.detail} (line {r.line})"
            for r in self.risks
        )
        super().__init__(
            f"program {program_name} holds unpicklable state and cannot "
            f"run under the process engine:\n{lines}\n"
            "Keep state to plain data (RPC011), or pass "
            "check_program=False to override."
        )


class ChildError(RuntimeError):
    """A worker raised inside a command handler (carries the worker's
    traceback; the hosting process itself is still alive)."""


class _WorkerView:
    """Parent-side mirror of one worker's resource numbers and step stats.

    Duck-types the per-worker surface :class:`BSPEngine` reads (fleet
    state and :meth:`BSPEngine._account_superstep`), under the worker's own
    attribute names; seeded from its session's first report and refreshed
    from every later one.
    """

    __slots__ = (
        "worker_id", "stats", "active_count", "has_buffered_messages",
        "graph_bytes", "total_state_bytes", "in_next_payload_bytes",
        "_buffered_bytes", "_queue_depth", "_memory",
    )

    def __init__(self, worker_id: int, report: dict) -> None:
        self.worker_id = worker_id
        self.stats = WorkerStepStats(worker=worker_id)
        self.apply_report(report)

    def apply_report(self, report: dict) -> None:
        self.active_count = int(report["active"])
        self.has_buffered_messages = bool(report["buffered"])
        self.graph_bytes = report["graph_bytes"]
        self.total_state_bytes = report["state_bytes"]
        self.in_next_payload_bytes = report["in_next_bytes"]
        self._buffered_bytes = report["buffered_bytes"]
        self._queue_depth = int(report.get("queue_depth", 0))
        self._memory = report["memory"]

    def buffered_message_bytes(self) -> float:
        return self._buffered_bytes

    def buffered_message_count(self) -> int:
        return self._queue_depth

    def memory_footprint(self) -> float:
        return self._memory


class ProcessBSPEngine(BSPEngine):
    """BSPEngine whose workers live behind a Transport (see module docs)."""

    migrates = False  # the sessions, not the coordinator, hold the vertices

    def __init__(
        self,
        job: JobSpec,
        heartbeat_interval: float = 0.1,
        heartbeat_timeout: float | None = 30.0,
        check_program: bool = True,
        max_respawns: int | None = None,
        transport: Transport | None = None,
    ) -> None:
        # Set first: whatever fails below (the gate, validation, the
        # launch or the initial injection) shuts down what was started,
        # the transport's own fleet included.
        self._transport = transport if transport is not None else PipeTransport()
        try:
            if check_program:
                self._gate_program(job.program)
            if heartbeat_interval <= 0:
                raise ValueError("heartbeat_interval must be positive")
            if (heartbeat_timeout is not None
                    and heartbeat_timeout <= heartbeat_interval):
                raise ValueError("heartbeat_timeout must exceed the interval")
            if max_respawns is not None and max_respawns < 0:
                raise ValueError(
                    "max_respawns must be >= 0 (or None: unlimited)")
            #: the plan every session runs as a dense shard in place of a
            #: PartitionWorker, or None (see repro.bsp.dense_ref.shard_plan)
            self._plan = shard_plan(job.program, job.initial_messages)
            # Set before the base __init__, which launches the sessions
            # (_build_workers) and injects the job's initial messages,
            # which this engine buffers until the next boundary.
            self._inject_buffer: list = []
            self._hb_interval = float(heartbeat_interval)
            self._hb_timeout = (
                None if heartbeat_timeout is None else float(heartbeat_timeout)
            )
            #: respawn budget: replacement workers allowed before the run
            #: is declared dead (None = unlimited, the historical behavior)
            self._max_respawns = max_respawns
            self._respawns = 0
            self._epoch = 0
            self._active_ids = job.initial_active_ids()
            super().__init__(job)
        except BaseException:
            self.shutdown()
            raise

    @staticmethod
    def _gate_program(program: Any) -> None:
        """RPC011 pre-launch gate: fail fast on statically unpicklable state."""
        from ..check.costmodel import profile_of

        profile = profile_of(program)
        if profile is not None and profile.pickle_risks:
            raise ProgramSafetyError(profile.program, profile.pickle_risks)

    # ------------------------------------------------------------------
    # Control-plane injection: buffered here, flushed to workers at the
    # next superstep (or checkpoint) boundary — same visibility as the
    # sequential engine's direct worker.inject.
    # ------------------------------------------------------------------
    def inject_message(self, dst: int, payload: Any) -> None:
        if not 0 <= dst < self.graph.num_vertices:
            raise ValueError(f"inject to unknown vertex {dst}")
        self._inject_buffer.append((int(dst), payload))
        self._injected_count += 1

    def _flush_injections(self) -> None:
        if not self._inject_buffer:
            return
        per_worker: list[list] = [[] for _ in range(self.num_workers)]
        assignment = self.partition.assignment
        for dst, payload in self._inject_buffer:
            per_worker[int(assignment[dst])].append((dst, payload))
        self._inject_buffer = []
        reports = self._ask_workers("inject", "ok", per_worker)
        for view, report in zip(self.workers, reports):
            view.apply_report(report)

    # ------------------------------------------------------------------
    # The fleet: one session per host, running the workers the transport
    # places together; the coordinator holds only a view of each worker,
    # never the vertices.
    # ------------------------------------------------------------------
    def _build_workers(self) -> None:
        """Launch every host, then seed :attr:`workers`, the views, from
        the reports each sends to an empty ``inject``: every host is
        asked before any reply is read, so forked sessions build in
        parallel."""
        #: one channel per host; a relaunch keeps the slot and the group
        self._handles: list[TcpChannel] = []
        layout = self._dense_layout() if self._plan is not None else None
        for group in self._transport.place(self.num_workers):
            self._handles.append(self._launch_host(group, layout))
        del layout  # the sessions hold their slices; a respawn re-slices
        #: worker id -> the index of its host in _handles
        self._host_of = {w: i for i, h in enumerate(self._handles)
                         for w in h.worker_ids}
        reports = self._ask_workers("inject", "ok", [[]] * self.num_workers)
        self.workers = [_WorkerView(w, r) for w, r in enumerate(reports)]

    def _dense_layout(self) -> DenseLayout:
        return DenseLayout(self.graph, self.partition.assignment,
                           self.num_workers, self._plan, self._active_ids)

    @property
    def buffered_messages(self) -> bool:
        return bool(self._inject_buffer) or super().buffered_messages

    # ------------------------------------------------------------------
    # The superstep: the sequential engine's body with both phases executed
    # over the wire.  Unplanned worker death aborts the attempt, rolls
    # back, and retries from the restored superstep.
    # ------------------------------------------------------------------
    def _run_one_superstep(self) -> SuperstepStats:
        restored = 0.0
        while True:
            try:
                stats = super()._run_one_superstep()
            except WorkerFailure as failure:
                if self.job.checkpoint_interval <= 0:
                    raise RuntimeError(
                        f"worker {failure.worker_id} died with checkpointing "
                        "disabled; set JobSpec.checkpoint_interval to enable "
                        "recovery"
                    ) from failure
                # The aborted attempt produced no accounted stats; charge
                # the rollback on a scratch object (the sim clock and the
                # recovery log record it) and retry from the restored
                # superstep.
                scratch = SuperstepStats(
                    index=self.superstep, num_workers=self.num_workers
                )
                failed_at = self.superstep
                self._recover(failure.worker_id, scratch)
                restored += scratch.elapsed
                # No row marks where the lost epoch ended; the run file's
                # event does (repro.analysis.traces.rolled_back_rows).
                self.telemetry.annotate(
                    failed_at, ABORTED_SUPERSTEP,
                    failed_worker=failure.worker_id,
                    resumed_from=self.superstep, rows_before=len(self.trace),
                )
                continue
            # The retried attempt's row carries the restore stalls, as a
            # scheduled failure's row does, so the trace bills them.
            stats.elapsed += restored
            return stats

    def _compute_phase(self) -> list[dict]:
        """Every host runs its workers' compute, concurrently with the
        other hosts."""
        self._flush_injections()
        self._drain_heartbeats()
        handles = self._handles
        computed = self._ask_all("compute", "computed",
                                 [(self.superstep, self._agg_values)] * len(handles))
        # Route every cross-host frame to the host of its destination and
        # start every host's fold now: the bookkeeping from here to the
        # flush phase overlaps it.
        routed: list[dict] = [{} for _ in handles]
        for c in computed:
            for (src, dst), frame in c["frames"].items():
                routed[self._host_of[dst]][src, dst] = frame
                self.telemetry.frame(len(frame))
        self._send_all("deliver", routed)
        #: per-worker stats, consumed by the flush
        self._computed = reps = self._scatter([c["workers"] for c in computed])
        for w, rep in enumerate(reps):
            # How long ago the compute ended: the remote stamp mapped
            # through the channel's clock alignment, not reply arrival.
            clock = handles[self._host_of[w]].clock
            ended_ago = monotonic_now() - clock.to_local(rep["clock_end"])
            self.telemetry.worker_compute(
                w, rep["host_seconds"], max(0.0, ended_ago)
            )
        return [rep["agg_partials"] for rep in reps]

    def _flush_phase(self):
        """Await every host's fold of its workers' inbound buckets, each in
        source-worker-id order (the sequential engine's delivery order);
        then fold every worker's barrier reply into its view."""
        handles = self._handles
        comps, self._computed = self._computed, None
        delivered = self._expect_all("delivered")

        violations = getattr(self.job.program, "violations", None)
        delivs = self._scatter([d["workers"] for d in delivered])
        for view, comp, deliv in zip(self.workers, comps, delivs):
            view.stats = comp["stats"]
            view.apply_report(deliv["report"])
            if isinstance(violations, list) and comp["violations"]:
                violations.extend(comp["violations"])
        for h, deliv in zip(handles, delivered):
            # Host-wide: its heartbeat events and its captured output go
            # under its first worker (a forked host's only one).
            if deliv["flight"]:
                self.telemetry.remote_tail(
                    h.worker_ids[0], deliv["flight"],
                    self._remote_age(h, deliv["flight_epoch"]),
                )
            if deliv.get("output"):
                self._emit_child_output(h.worker_ids[0], deliv["output"])
        return (
            np.array([d["recv_msgs"] for d in delivs], dtype=np.int64),
            np.array([d["recv_bytes"] for d in delivs]),
            [d["peers_in"] for d in delivs],
        )

    @staticmethod
    def _emit_child_output(worker_id: int, text: str) -> None:
        """Relay a worker's captured stdout/stderr, atomically.

        Forked workers never touch the shared stderr (worker_proc
        captures it); the coordinator is the only writer, so progress
        lines and worker prints cannot interleave mid-line.  One write()
        call per batch.
        """
        prefix = f"[worker {worker_id}] "
        body = "".join(
            f"{prefix}{line}\n" for line in text.splitlines()
        )
        sys.stderr.write(body)

    # ------------------------------------------------------------------
    # Checkpointing and recovery: same parent-held checkpoint dict as the
    # sequential engine; capture/restore cross the wire.
    # ------------------------------------------------------------------
    def _capture_checkpoint(self, superstep: int) -> dict:
        # Buffered injections are part of the snapshot (sim parity: the
        # sequential engine injects straight into its workers, whose
        # snapshot() captures them).
        self._flush_injections()
        return {
            "superstep": superstep,
            "agg_values": dict(self._agg_values),
            "workers": self._ask_workers("snapshot", "snapshotted",
                                         [None] * self.num_workers),
        }

    def _fail_worker(self, worker_id: int) -> None:
        """The scheduled-failure hook: a real kill, not a model.

        The transport decides what "kill" means: SIGKILL the worker
        process (pipe) or SIGKILL/sever the hosting daemon (tcp).  Either
        way every worker of the host is lost.
        """
        h = self._handles[self._host_of[worker_id]]
        self._transport.kill_host(h)
        self._mark_dead(h, "SIGKILL (scheduled failure)")

    def kill_worker_at(self, superstep: int, worker_id: int) -> None:
        """Schedule a kill of ``worker_id`` after ``superstep`` completes.

        Feeds the same schedule dict as ``JobSpec.failure_schedule`` /
        :func:`repro.cloud.spot.spot_failure_schedule`, so spot-eviction
        scenarios replay on real processes unchanged.
        """
        if self.job.checkpoint_interval <= 0:
            raise ValueError(
                "failure injection requires checkpointing "
                "(JobSpec.checkpoint_interval > 0)"
            )
        if not 0 <= worker_id < self.num_workers:
            raise ValueError(f"unknown worker {worker_id}")
        self._failure_schedule[int(superstep)] = int(worker_id)

    def _restore_checkpoint(self) -> None:
        attempts = self.num_workers + 2
        for _ in range(attempts):
            try:
                self._restore_once()
                return
            except WorkerFailure:
                continue  # the victim is marked dead; retrying respawns it
        raise RuntimeError(
            f"checkpoint restore failed {attempts} times; workers keep dying"
        )

    def _restore_once(self) -> None:
        self._epoch += 1  # replies from before the rollback are now stale
        for i, h in enumerate(self._handles):
            if not h.alive or not h.healthy():
                self._reap(h)
                group = h.worker_ids
                if (
                    self._max_respawns is not None
                    and self._respawns + len(group) > self._max_respawns
                ):
                    raise RuntimeError(
                        f"worker {group[0]} needs a replacement but the "
                        f"respawn budget ({self._max_respawns}) is exhausted "
                        f"after {self._respawns} respawns"
                    )
                self._handles[i] = self._launch_host(group, respawn=True)
                for w in group:  # every lost worker is one respawn
                    self._respawns += 1
                    self.telemetry.respawn(w, self._respawns,
                                           self._max_respawns)
            else:
                self._drain(h)
        reports = self._ask_workers("restore", "restored",
                                    self._checkpoint["workers"])
        for view, report in zip(self.workers, reports):
            view.apply_report(report)

    def worker_liveness(self) -> list[dict]:
        """Real per-worker liveness (the /healthz view of the fleet): a
        worker is as alive as its host."""
        out = []
        for w in range(self.num_workers):
            h = self._handles[self._host_of[w]]
            out.append({
                "worker": w,
                "alive": bool(h.alive and h.healthy()),
                "heartbeat_age_seconds": round(h.heartbeat_age(), 3),
                "endpoint": h.endpoint,
                "transport": h.transport,
            })
        return out

    def _extract_values(self) -> VertexValues:
        return VertexValues.concat(self._ask_workers(
            "extract", "extracted", [None] * self.num_workers))

    # ------------------------------------------------------------------
    # Host lifecycle and the request/reply protocol: a Transport launches
    # each host and hands back its TcpChannel (repro.net).
    # ------------------------------------------------------------------
    def _host_init(self, worker_ids: tuple,
                   layout: DenseLayout | None = None) -> WorkerInit:
        init = WorkerInit(
            worker_ids=tuple(worker_ids),
            program=self.job.program,
            model=self.model,
            heartbeat_interval=self._hb_interval,
            want_flight=self.telemetry.subscribed("remote_tail"),
            plan=self._plan,
        )
        if self._plan is not None:  # a respawn slices a fresh layout
            layout = layout or self._dense_layout()
            init.shards = [layout.slice(w) for w in worker_ids]
        else:
            init.graph = self.graph
            init.vertex_ids = [self.partition.vertices_of(w)
                               for w in worker_ids]
            init.assignment = self.partition.assignment
            init.active_ids = self._active_ids
        return init

    def _alive_workers(self) -> int:
        return sum(len(h.worker_ids) for h in self._handles if h.alive)

    def _launch_host(
        self, worker_ids: tuple, layout: DenseLayout | None = None,
        respawn: bool = False,
    ) -> TcpChannel:
        handle = self._transport.launch(self._host_init(worker_ids, layout))
        alive = self._alive_workers() + len(worker_ids)
        for w in handle.worker_ids:
            self.telemetry.worker_up(
                w, handle.endpoint, handle.transport, respawn, alive
            )
            if handle.clock.synchronized:
                self.telemetry.clock(w, handle.endpoint, handle.clock.stats())
        return handle

    def _mark_dead(self, h: TcpChannel, reason: str = "unknown") -> None:
        if not h.alive:
            return
        h.alive = False
        h.pending = 0
        for w in h.worker_ids:
            self.telemetry.worker_lost(w, reason, self._alive_workers())

    def _reap(self, h: TcpChannel) -> None:
        self._mark_dead(h)
        h.kill()
        h.close()

    def _ask_all(self, cmd: str, reply: str, payloads: list) -> list:
        """Send host ``i`` ``(cmd, epoch, payloads[i])``, every host before
        reading any reply so they work in parallel; the replies in host
        order."""
        self._send_all(cmd, payloads)
        return self._expect_all(reply)

    def _send_all(self, cmd: str, payloads: list) -> None:
        for h, payload in zip(self._handles, payloads):
            self._send(h, (cmd, self._epoch, payload))

    def _expect_all(self, reply: str) -> list:
        return [self._expect(h, reply, self._epoch) for h in self._handles]

    def _ask_workers(self, cmd: str, reply: str, payloads: list) -> list:
        """:meth:`_ask_all` with one payload and one reply per worker, both
        indexed by worker id; a host gets and answers a list of its own
        workers' in worker-id order."""
        return self._scatter(self._ask_all(cmd, reply, [
            [payloads[w] for w in h.worker_ids] for h in self._handles
        ]))

    def _scatter(self, per_host: list) -> list:
        """Per-host lists in each host's worker order -> one list indexed
        by worker id."""
        out: list = [None] * self.num_workers
        for h, items in zip(self._handles, per_host):
            for w, item in zip(h.worker_ids, items):
                out[w] = item
        return out

    def _send(self, h: TcpChannel, msg: tuple) -> None:
        self._drain(h)
        if not h.alive:
            raise WorkerFailure(h.worker_ids[0], "worker is gone")
        try:
            h.send(msg)
        except TransportClosed as exc:
            self._mark_dead(h, str(exc))
            raise WorkerFailure(h.worker_ids[0], str(exc)) from exc
        h.pending += 1

    def _drain(self, h: TcpChannel) -> None:
        """Consume replies owed from an aborted exchange (discarded)."""
        while h.pending and h.alive:
            self._recv_raw(h)

    def _recv_raw(self, h: TcpChannel) -> tuple:
        while True:
            try:
                msg = h.recv(0.01)
            except TransportClosed as exc:
                self._mark_dead(h, str(exc))
                raise WorkerFailure(h.worker_ids[0], str(exc)) from exc
            if msg is not None:
                h.pending -= 1
                return msg
            self._check_liveness(h)

    def _drain_heartbeats(self) -> None:
        for h in self._handles:
            if not h.alive:
                continue
            beats = h.drain_heartbeats()
            if beats:  # a host's beats vouch for each of its workers
                for w in h.worker_ids:
                    self.telemetry.heartbeats(w, beats, h.clock)

    @staticmethod
    def _remote_age(h: TcpChannel, flight_epoch: float):
        """How long ago, in local seconds, a shipped flight event happened.

        A shipped event's ``host`` is seconds since the remote session
        recorder's epoch.  ``epoch + host`` is absolute remote liveness
        time, the channel's ClockSync maps it into the local liveness
        clock, and one reading of that clock *now* turns it into an age
        the recorder can subtract from its own ``now()``.
        """
        clock, now = h.clock, monotonic_now()
        return lambda host: now - clock.to_local(flight_epoch + host)

    def _check_liveness(self, waiting_on: TcpChannel) -> None:
        """Drain heartbeats; fail the awaited host if dead or hung."""
        self._drain_heartbeats()
        h = waiting_on
        if not h.healthy():
            reason = h.death_reason()
            self._mark_dead(h, reason)
            raise WorkerFailure(h.worker_ids[0], reason)
        # Heartbeat ages live on the monotonic clock (channel-internal):
        # a wall-clock jump must never fake a timeout.
        if (
            self._hb_timeout is not None
            and h.heartbeat_age() > self._hb_timeout
        ):
            for w in h.worker_ids:
                self.telemetry.heartbeat_miss(w, h.heartbeat_age())
            h.kill()
            reason = f"heartbeat timeout ({self._hb_timeout:g}s)"
            self._mark_dead(h, reason)
            raise WorkerFailure(h.worker_ids[0], reason)

    def _expect(self, h: TcpChannel, kind: str, epoch: int):
        while True:
            r_kind, r_epoch, payload = self._recv_raw(h)
            if r_epoch != epoch:
                continue  # stale reply from before a recovery
            if r_kind == "error":
                raise ChildError(
                    f"worker {h.worker_ids[0]} failed handling {kind!r}:\n"
                    f"{payload}"
                )
            if r_kind != kind:
                raise RuntimeError(
                    f"worker {h.worker_ids[0]}: expected {kind!r} reply, "
                    f"got {r_kind!r}"
                )
            return payload

    # ------------------------------------------------------------------
    def run(self) -> JobResult:
        try:
            return super().run()
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Stop and reap every worker, then the transport (idempotent)."""
        # No _handles yet: the constructor failed before the launch.
        handles = getattr(self, "_handles", ())
        for h in handles:
            if not h.alive:
                continue
            try:
                self._drain(h)
                h.send(("stop", self._epoch, None))
            except (WorkerFailure, TransportClosed):
                continue
        for h in handles:
            h.join(timeout=5.0)
            if h.healthy():
                h.kill()
            h.close()
            h.alive = False
        self._transport.shutdown()

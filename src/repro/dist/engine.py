"""Distributed BSP engine: one worker per process or remote session.

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
  cloud models, and owns the checkpoint;
* each worker owns its partition's state and serves the command loop in
  :class:`repro.net.session.WorkerSession`; messages cross the wire as
  length-prefixed pickle-5 frames (:mod:`repro.net.codec`), combiners
  already applied sender-side.  When the program lifts, every session
  runs the plan compiled here on its own rows (a dense shard, one
  ``(row index, value)`` array pair per frame) in place of a
  :class:`~repro.bsp.worker.PartitionWorker`; it folds like one.

Transports (:mod:`repro.net`): the default
:class:`~repro.net.transport.PipeTransport` forks one local OS process
per worker (the historical ``repro.dist`` shape);
:class:`~repro.net.tcp.TcpTransport` places sessions on ``repro worker``
daemons over sockets (:class:`repro.net.TcpBSPEngine` is the
pre-configured subclass behind ``--engine tcp``).  The coordinator logic
below is transport-agnostic.

Determinism: workers compute independently, but frames are routed to each
destination in source-worker-id order and applied in emission order —
exactly the sequential engine's flush order — and aggregator partials merge
in worker-id order, so ``extract()`` output is bit-identical to the
sequential engine (``certify_determinism(engine="process")`` and
``engine="tcp"`` check this).

Robustness: workers heartbeat through their channel; the parent detects
death (``healthy()``/channel errors) and hangs (heartbeat age beyond
``heartbeat_timeout`` on the **monotonic** clock — wall-time jumps cannot
fake a timeout), kills the victim if needed, launches a replacement, and
replays Pregel-style coordinated rollback from the last checkpoint using
the engine's existing checkpoint machinery.
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

from ..bsp.dense_ref import dense_shards, shard_plan
from ..bsp.engine import BSPEngine
from ..bsp.job import JobResult, JobSpec
from ..bsp.superstep import SuperstepStats
from ..net.transport import (
    PipeTransport,
    Transport,
    TransportClosed,
    WorkerChannel,
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
    attribute names; refreshed from the worker's barrier report each
    superstep.
    """

    __slots__ = (
        "worker_id", "stats", "active_count", "has_buffered_messages",
        "graph_bytes", "total_state_bytes", "in_next_payload_bytes",
        "_buffered_bytes", "_queue_depth", "_memory",
    )

    def __init__(self, worker) -> None:
        # Seeded from the parent's never-computed worker of the sessions'
        # kind, which carries the correct initial counts and footprints.
        self.worker_id = worker.worker_id
        self.stats = worker.stats
        self.active_count = worker.active_count
        self.has_buffered_messages = worker.has_buffered_messages
        self.graph_bytes = worker.graph_bytes
        self.total_state_bytes = worker.total_state_bytes
        self.in_next_payload_bytes = worker.in_next_payload_bytes
        self._buffered_bytes = worker.buffered_message_bytes()
        self._queue_depth = worker.buffered_message_count()
        self._memory = worker.memory_footprint()

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

    def __init__(
        self,
        job: JobSpec,
        heartbeat_interval: float = 0.1,
        heartbeat_timeout: float | None = 30.0,
        start_method: str | None = None,
        check_program: bool = True,
        max_respawns: int | None = None,
        transport: Transport | None = None,
    ) -> None:
        if check_program:
            self._gate_program(job.program)
        #: the plan every session runs as a dense shard in place of a
        #: PartitionWorker, or None (see repro.bsp.dense_ref.shard_plan)
        self._plan = shard_plan(job.program, job.initial_messages)
        # Created first: the base __init__ injects the job's initial
        # messages, which this engine buffers until the next boundary.
        self._inject_buffer: list = []
        super().__init__(job)
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if heartbeat_timeout is not None and heartbeat_timeout <= heartbeat_interval:
            raise ValueError("heartbeat_timeout must exceed the interval")
        if max_respawns is not None and max_respawns < 0:
            raise ValueError("max_respawns must be >= 0 (or None: unlimited)")
        self._hb_interval = float(heartbeat_interval)
        self._hb_timeout = (
            None if heartbeat_timeout is None else float(heartbeat_timeout)
        )
        #: respawn budget: replacement workers allowed before the run is
        #: declared dead (None = unlimited, the historical behavior)
        self._max_respawns = max_respawns
        self._respawns = 0
        self._transport = (
            transport if transport is not None
            else PipeTransport(start_method)
        )
        self._epoch = 0
        self._active_ids = job.initial_active_ids()
        self._mirrors = [_WorkerView(w) for w in self.workers]
        self._handles: list[WorkerChannel | None] = [None] * self.num_workers
        try:
            for w in range(self.num_workers):
                self._handles[w] = self._launch_worker(w)
        except Exception:
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
    # sequential engine's direct in_next append.
    # ------------------------------------------------------------------
    def inject_message(self, dst: int, payload: Any) -> None:
        if not 0 <= dst < self.graph.num_vertices:
            raise ValueError(f"inject to unknown vertex {dst}")
        self._inject_buffer.append((int(dst), payload))
        self._injected_count += 1

    def _flush_injections(self) -> None:
        if not self._inject_buffer:
            return
        per_worker: dict[int, list] = {}
        assignment = self.partition.assignment
        for dst, payload in self._inject_buffer:
            per_worker.setdefault(int(assignment[dst]), []).append(
                (dst, payload)
            )
        self._inject_buffer = []
        epoch = self._epoch
        targets = [self._handles[w] for w in sorted(per_worker)]
        for h in targets:
            self._send(h, ("inject", epoch, per_worker[h.worker_id]))
        for h in targets:
            self._mirrors[h.worker_id].apply_report(
                self._expect(h, "ok", epoch)
            )

    # ------------------------------------------------------------------
    # Fleet state comes from the marshalled views, not the parent's
    # (never-computed) workers.
    # ------------------------------------------------------------------
    def _build_workers(self) -> None:
        """The views' seeds: the same shards the sessions build, or
        :class:`~repro.bsp.worker.PartitionWorker`\\ s when the program
        runs per vertex."""
        if self._plan is None:
            super()._build_workers()
        else:
            self.workers = dense_shards(self, self._plan)

    @property
    def _views(self):
        return self._mirrors

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
                self._recover(failure.worker_id, scratch)
                restored += scratch.elapsed
                continue
            # The retried attempt's row carries the restore stalls, as a
            # scheduled failure's row does, so the trace bills them.
            stats.elapsed += restored
            return stats

    def _compute_phase(self) -> list[dict]:
        """Every worker drains its input buffer concurrently."""
        self._flush_injections()
        self._drain_heartbeats()
        epoch = self._epoch
        handles = self._handles
        for h in handles:
            self._send(h, ("compute", epoch, (self.superstep, self._agg_values)))
        computed = [self._expect(h, "computed", epoch) for h in handles]
        for h, rep in zip(handles, computed):
            # How long ago the compute ended: the remote stamp mapped
            # through the channel's clock alignment, not reply arrival.
            ended_ago = monotonic_now() - h.clock.to_local(rep["clock_end"])
            self.telemetry.worker_compute(
                h.worker_id, rep["host_seconds"], max(0.0, ended_ago)
            )
        self._computed = computed  # frames + stats, consumed by the flush
        return [c["agg_partials"] for c in computed]

    def _flush_phase(self):
        """Route each source's frames to their destinations in
        source-worker-id order (the sequential engine's delivery order),
        then fold every worker's barrier reply into its view."""
        epoch = self._epoch
        handles = self._handles
        computed, self._computed = self._computed, None
        inbound: list[list] = [[] for _ in range(self.num_workers)]
        for h, rep in zip(handles, computed):
            for dst, frame in sorted(rep["frames"].items()):
                inbound[dst].append((h.worker_id, frame))
                self.telemetry.frame(len(frame))
        for h in handles:
            self._send(h, ("deliver", epoch, inbound[h.worker_id]))
        delivered = [self._expect(h, "delivered", epoch) for h in handles]

        violations = getattr(self.job.program, "violations", None)
        for view, h, comp, deliv in zip(
            self._mirrors, handles, computed, delivered
        ):
            view.stats = comp["stats"]
            view.apply_report(deliv["report"])
            if deliv["flight"]:
                self.telemetry.remote_tail(
                    view.worker_id, deliv["flight"],
                    self._remote_age(h, deliv["flight_epoch"]),
                )
            if isinstance(violations, list) and deliv["violations"]:
                violations.extend(deliv["violations"])
            if deliv.get("output"):
                self._emit_child_output(view.worker_id, deliv["output"])
        return (
            np.array([d["recv_msgs"] for d in delivered], dtype=np.int64),
            np.array([d["recv_bytes"] for d in delivered]),
            [len(frames) for frames in inbound],
        )

    @staticmethod
    def _emit_child_output(worker_id: int, text: str) -> None:
        """Relay a worker's captured stdout/stderr, atomically.

        Pipe-backend children never touch the shared stderr (worker_proc
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
        # sequential engine injects straight into in_next, which
        # snapshot() captures).
        self._flush_injections()
        epoch = self._epoch
        for h in self._handles:
            self._send(h, ("snapshot", epoch, None))
        snaps = [self._expect(h, "snapshotted", epoch) for h in self._handles]
        return {
            "superstep": superstep,
            "agg_values": dict(self._agg_values),
            "workers": snaps,
        }

    def _fail_worker(self, worker_id: int) -> None:
        """The scheduled-failure hook: a real kill, not a model.

        The transport decides what "kill" means: SIGKILL the worker
        process (pipe) or SIGKILL/sever the hosting daemon (tcp).
        """
        h = self._handles[worker_id]
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
        epoch = self._epoch
        for i, h in enumerate(self._handles):
            if h is None or not h.alive or not h.healthy():
                if h is not None:
                    self._reap(h)
                if (
                    self._max_respawns is not None
                    and self._respawns >= self._max_respawns
                ):
                    raise RuntimeError(
                        f"worker {i} needs a replacement but the respawn "
                        f"budget ({self._max_respawns}) is exhausted after "
                        f"{self._respawns} respawns"
                    )
                self._handles[i] = self._launch_worker(i, respawn=True)
                self._respawns += 1
                self.telemetry.respawn(i, self._respawns, self._max_respawns)
            else:
                self._drain(h)
        snaps = self._checkpoint["workers"]
        for h in self._handles:
            self._send(h, ("restore", epoch, snaps[h.worker_id]))
        for h in self._handles:
            self._mirrors[h.worker_id].apply_report(
                self._expect(h, "restored", epoch)
            )

    def worker_liveness(self) -> list[dict]:
        """Real per-worker liveness (the /healthz view of the fleet)."""
        out = []
        for w, h in enumerate(self._handles):
            if h is None:
                out.append({"worker": w, "alive": False})
                continue
            out.append({
                "worker": w,
                "alive": bool(h.alive and h.healthy()),
                "heartbeat_age_seconds": round(h.heartbeat_age(), 3),
                "endpoint": h.endpoint,
                "transport": h.transport,
            })
        return out

    def _extract_values(self) -> dict[int, Any]:
        epoch = self._epoch
        for h in self._handles:
            self._send(h, ("extract", epoch, None))
        values: dict[int, Any] = {}
        for h in self._handles:
            values.update(self._expect(h, "extracted", epoch))
        return values

    # ------------------------------------------------------------------
    # Worker lifecycle and the request/reply protocol, written against
    # the Transport/WorkerChannel interface (repro.net.transport).
    # ------------------------------------------------------------------
    def _worker_init(self, worker_id: int) -> WorkerInit:
        return WorkerInit(
            worker_id=worker_id,
            graph=self.graph,
            vertex_ids=self.partition.vertices_of(worker_id),
            program=self.job.program,
            model=self.model,
            assignment=self.partition.assignment,
            active_ids=self._active_ids,
            heartbeat_interval=self._hb_interval,
            want_flight=self.telemetry.subscribed("remote_tail"),
            plan=self._plan,
        )

    def _launch_worker(
        self, worker_id: int, respawn: bool = False
    ) -> WorkerChannel:
        handle = self._transport.launch(self._worker_init(worker_id))
        others = sum(
            1 for h in self._handles
            if h is not None and h.alive and h.worker_id != worker_id
        )
        self.telemetry.worker_up(
            worker_id, handle.endpoint, handle.transport, respawn, 1 + others
        )
        if handle.clock.synchronized:
            self.telemetry.clock(worker_id, handle.endpoint, handle.clock.stats())
        return handle

    def _mark_dead(self, h: WorkerChannel, reason: str = "unknown") -> None:
        if not h.alive:
            return
        h.alive = False
        h.pending = 0
        self.telemetry.worker_lost(
            h.worker_id, reason,
            sum(1 for x in self._handles if x is not None and x.alive),
        )

    def _reap(self, h: WorkerChannel) -> None:
        self._mark_dead(h)
        h.kill()
        h.close()

    def _send(self, h: WorkerChannel, msg: tuple) -> None:
        self._drain(h)
        if not h.alive:
            raise WorkerFailure(h.worker_id, "worker is gone")
        try:
            h.send(msg)
        except TransportClosed as exc:
            self._mark_dead(h, str(exc))
            raise WorkerFailure(h.worker_id, str(exc)) from exc
        h.pending += 1

    def _drain(self, h: WorkerChannel) -> None:
        """Consume replies owed from an aborted exchange (discarded)."""
        while h.pending and h.alive:
            self._recv_raw(h)

    def _recv_raw(self, h: WorkerChannel) -> tuple:
        while True:
            try:
                msg = h.recv(0.01)
            except TransportClosed as exc:
                self._mark_dead(h, str(exc))
                raise WorkerFailure(h.worker_id, str(exc)) from exc
            if msg is not None:
                h.pending -= 1
                return msg
            self._check_liveness(h)

    def _drain_heartbeats(self) -> None:
        for h in self._handles:
            if h is None or not h.alive:
                continue
            beats = h.drain_heartbeats()
            if beats:
                self.telemetry.heartbeats(h.worker_id, beats, h.clock)

    @staticmethod
    def _remote_age(h: WorkerChannel, flight_epoch: float):
        """How long ago, in local seconds, a shipped flight event happened.

        A shipped event's ``host`` is seconds since the remote session
        recorder's epoch.  ``epoch + host`` is absolute remote liveness
        time, the channel's ClockSync maps it into the local liveness
        clock, and one reading of that clock *now* turns it into an age
        the recorder can subtract from its own ``now()``.
        """
        clock, now = h.clock, monotonic_now()
        return lambda host: now - clock.to_local(flight_epoch + host)

    def _check_liveness(self, waiting_on: WorkerChannel) -> None:
        """Drain heartbeats; fail the awaited worker if dead or hung."""
        self._drain_heartbeats()
        h = waiting_on
        if not h.healthy():
            reason = h.death_reason()
            self._mark_dead(h, reason)
            raise WorkerFailure(h.worker_id, reason)
        # Heartbeat ages live on the monotonic clock (channel-internal):
        # a wall-clock jump must never fake a timeout.
        if (
            self._hb_timeout is not None
            and h.heartbeat_age() > self._hb_timeout
        ):
            self.telemetry.heartbeat_miss(h.worker_id, h.heartbeat_age())
            h.kill()
            self._mark_dead(
                h, f"heartbeat timeout ({self._hb_timeout:g}s)"
            )
            raise WorkerFailure(
                h.worker_id, f"heartbeat timeout ({self._hb_timeout:g}s)"
            )

    def _expect(self, h: WorkerChannel, kind: str, epoch: int):
        while True:
            r_kind, r_epoch, payload = self._recv_raw(h)
            if r_epoch != epoch:
                continue  # stale reply from before a recovery
            if r_kind == "error":
                raise ChildError(
                    f"worker {h.worker_id} failed handling {kind!r}:\n{payload}"
                )
            if r_kind != kind:
                raise RuntimeError(
                    f"worker {h.worker_id}: expected {kind!r} reply, "
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
        handles = getattr(self, "_handles", None)
        if not handles:
            transport = getattr(self, "_transport", None)
            if transport is not None:
                transport.shutdown()
            return
        for h in handles:
            if h is None or not h.alive:
                continue
            try:
                self._drain(h)
                h.send(("stop", self._epoch, None))
            except (WorkerFailure, TransportClosed):
                continue
        for h in handles:
            if h is None:
                continue
            h.join(timeout=5.0)
            if h.healthy():
                h.kill()
            h.close()
            h.alive = False
        self._transport.shutdown()

"""The BSP engine: job manager + superstep loop over partition workers.

Plays Pregel.NET's job-manager role (§III): it builds the worker fleet from
the job's partition, drives supersteps, moves bulk message buffers between
workers at superstep boundaries, merges aggregators at the barrier, detects
the halting condition (all vertices voted to halt and no messages in
flight), and accounts simulated time for every superstep via the cloud
models.  The trace of those steps is the run's only ledger: the result's
cost is priced from it.

Observers (e.g. the swath controller, elastic policies' probes) are invoked
at every superstep boundary with the fresh :class:`SuperstepStats`; they may
inject control-plane activation messages and keep the job alive via
``has_pending_work()`` even when all vertices are momentarily halted.
A :class:`MigrationPolicy` (elastic resize, dynamic repartitioning) then
moves vertices between workers through :meth:`BSPEngine.migrate`.
"""

from __future__ import annotations

from importlib import import_module
from time import perf_counter
from typing import Any

import numpy as np

from ..cloud.costmeter import attribute_cost
from ..cloud.memorymodel import MemoryModel
from ..cloud.network import NetworkModel, TrafficSummary
from ..partition.base import Partition
from .api import MasterContext
from .job import (
    JobResult, JobSpec, RecoveryEvent, VertexValues, extract_columns,
)
from .superstep import JobTrace, SuperstepStats
from .telemetry import Telemetry
from .worker import PartitionWorker

__all__ = ["BSPEngine", "ENGINES", "MigrationPolicy", "SuperstepObserver",
           "make_engine", "run_job"]


class SuperstepObserver:
    """Hook interface invoked at every superstep boundary."""

    def on_job_start(self, engine: "BSPEngine") -> None:
        """Called once before superstep 0."""

    def on_superstep_end(self, engine: "BSPEngine", stats: SuperstepStats) -> None:
        """Called after each superstep's stats are final; may inject
        messages via :meth:`BSPEngine.inject_messages`."""

    def has_pending_work(self) -> bool:
        """True while the observer still plans to inject work."""
        return False

    def on_job_end(self, engine: "BSPEngine", result: "JobResult") -> None:
        """Called once after the halting condition, with the final result."""


class MigrationPolicy(SuperstepObserver):
    """An observer that steers the fleet: the engine calls
    :meth:`at_boundary` after every ``on_superstep_end`` of a boundary that
    commits and does not halt, where it may :meth:`BSPEngine.migrate`.
    Refused with failure injection and on engines that cannot migrate."""

    def at_boundary(self, engine: "BSPEngine", stats: SuperstepStats) -> None:
        """Steer the fleet before the next superstep."""


class BSPEngine:
    """Executes one :class:`~repro.bsp.job.JobSpec` to completion."""

    #: whether :meth:`migrate` can move this engine's vertices (it moves
    #: in-process :class:`PartitionWorker` state only)
    migrates = True

    def __init__(self, job: JobSpec) -> None:
        self.job = job
        self.graph = job.graph
        self.model = job.perf_model
        self.vm_spec = job.vm_spec
        self.partition = job.resolve_partition()
        self.num_workers = job.num_workers
        self.network = NetworkModel(self.vm_spec, self.model)
        self.memory = MemoryModel(self.vm_spec, self.model)
        self.trace = JobTrace()
        self.superstep = 0
        self.sim_time = 0.0
        self.recoveries: list[RecoveryEvent] = []
        self._failure_schedule = dict(job.failure_schedule)
        self._agg_values: dict[str, Any] = {}
        self._aggregators = job.program.aggregators()
        self._master_halt = False
        self._injected_count = 0
        # Multi-tenant noise: per-(worker, superstep) busy-time wobble,
        # deterministic for a given jitter_seed (off by default).
        self._jitter_rng = (
            np.random.default_rng(self.model.jitter_seed)
            if self.model.jitter > 0
            else None
        )
        self._observers: list[SuperstepObserver] = list(job.observers)
        self._policies = [
            o for o in self._observers if isinstance(o, MigrationPolicy)
        ]
        if self._policies and not self.migrates:
            raise ValueError(
                f"{type(self).__name__} cannot migrate vertices between "
                "workers; run a migration policy on the sim engine"
            )
        if self._policies and job.failure_schedule:
            raise ValueError("migration cannot be combined with failure injection")
        # Observability: the engine emits events on the spine, which alone
        # calls the attached sinks; they stay readable here for the
        # postmortem writer and the diagnostic monitor.
        self.tracer, self.metrics = job.tracer, job.metrics
        self.timeline, self.flight = job.timeline, job.flight
        self.telemetry = Telemetry(
            self, self.tracer, self.metrics, self.timeline, self.flight,
            job.postmortem,
        )

        self._build_workers()
        for dst, payload in job.initial_messages:
            self.inject_message(int(dst), payload)

        self._checkpoint: dict | None = None

    def _build_workers(self) -> None:
        """Build :attr:`workers` in the job's initial state (overridden
        where the workers are :class:`~repro.bsp.dense_shard.DenseShard`\\ s,
        or views of remote sessions)."""
        job, part = self.job, self.partition
        active_ids = job.initial_active_ids()
        self.workers: list[PartitionWorker] = [
            PartitionWorker(
                worker_id=w, graph=self.graph, vertex_ids=part.vertices_of(w),
                program=job.program, model=self.model,
                assignment=part.assignment, active_ids=active_ids,
            )
            for w in range(self.num_workers)
        ]

    # ------------------------------------------------------------------
    # Control-plane message injection (job-manager originated)
    # ------------------------------------------------------------------
    def inject_message(self, dst: int, payload: Any) -> None:
        """Queue an activation message for ``dst`` (delivered next superstep)."""
        if not 0 <= dst < self.graph.num_vertices:
            raise ValueError(f"inject to unknown vertex {dst}")
        w = int(self.partition.assignment[dst])
        self.workers[w].inject(dst, payload)
        self._injected_count += 1

    def inject_messages(self, pairs) -> None:
        for dst, payload in pairs:
            self.inject_message(int(dst), payload)

    # ------------------------------------------------------------------
    @property
    def active_vertices(self) -> int:
        return sum(w.active_count for w in self.workers)

    @property
    def buffered_messages(self) -> bool:
        return any(w.has_buffered_messages for w in self.workers)

    def aggregated(self, name: str) -> Any:
        """Current (last barrier's) value of a named aggregator."""
        if name not in self._aggregators:
            raise KeyError(f"unknown aggregator {name!r}")
        return self._agg_values.get(name, self._aggregators[name].identity())

    def worker_liveness(self) -> list[dict]:
        """Per-worker liveness for ``/healthz`` (safe from other threads).

        In-process workers cannot die independently of the engine, so the
        base answer is "all alive"; :class:`~repro.dist.engine.ProcessBSPEngine`
        overrides this with real process liveness and heartbeat ages.
        """
        return [
            {"worker": w, "alive": True} for w in range(self.num_workers)
        ]

    # ------------------------------------------------------------------
    def run(self) -> JobResult:
        """Drive supersteps until the halting condition or the step cap.

        Any abnormal end — uncaught compute exception, worker failure past
        recovery, ``KeyboardInterrupt`` — is captured (flight-recorder
        ``abort`` event + postmortem bundle when ``job.postmortem`` is
        attached) before the exception propagates.
        """
        try:
            return self._run_loop()
        except (Exception, KeyboardInterrupt) as exc:
            self.telemetry.abort(exc)
            raise

    def _run_loop(self) -> JobResult:
        job = self.job

        for obs in self._observers:
            obs.on_job_start(self)

        if job.checkpoint_interval > 0:
            # Initial checkpoint so a failure before the first periodic one
            # can still roll back (Pregel checkpoints before superstep 0).
            self._checkpoint = self._capture_checkpoint(0)

        tel = self.telemetry
        tel.job_start()
        halted = False
        while self.superstep < job.max_supersteps:
            if not self.buffered_messages and self.active_vertices == 0:
                if not any(o.has_pending_work() for o in self._observers):
                    halted = True
                    break
                # Observers still hold work but injected nothing runnable:
                # give them a boundary callback on an empty step.
            with tel.superstep():
                stats = self._run_one_superstep()
                self._maybe_checkpoint(stats)
                failed = self._maybe_fail(stats)
                for obs in self._observers:
                    obs.on_superstep_end(self, stats)
                if not (failed or self._master_halt):
                    for policy in self._policies:
                        policy.at_boundary(self, stats)
                # A failed step rolls back instead of committing — unless
                # the failure struck after this boundary's checkpoint
                # already captured it: recovery then resumes *past* the
                # step, which keeps the recovery cost it absorbed.
                tel.closed(stats, not failed or self.superstep > stats.index)
                if not failed:
                    self.superstep += 1
                    if self._master_halt:
                        halted = True
                        break
        tel.job_end(halted)

        values = self._extract_values()
        result = JobResult(
            values=values,
            trace=self.trace,
            supersteps=len(self.trace),
            halted=halted,
            aggregates=dict(self._agg_values),
            recoveries=list(self.recoveries),
            cost=attribute_cost(
                self.trace, worker_vm=self.vm_spec,
                manager_vm=self.job.manager_vm,
            ),
        )
        for obs in self._observers:
            on_job_end = getattr(obs, "on_job_end", None)
            if on_job_end is not None:
                on_job_end(self, result)
        return result

    # ------------------------------------------------------------------
    def _run_one_superstep(self) -> SuperstepStats:
        """The one superstep body: compute, flush, merge, master, account.

        An engine supplies :meth:`_compute_phase`, :meth:`_flush_phase`
        and :attr:`workers`; everything around them is shared.
        """
        tel = self.telemetry
        host_t0 = perf_counter()
        stats = SuperstepStats(
            index=self.superstep,
            num_workers=self.num_workers,
            active_begin=self.active_vertices,
            injected=self._injected_count,
        )
        self._injected_count = 0

        with tel.phase("compute"):
            partials = self._compute_phase()
        with tel.phase("flush"):
            recv_msgs, recv_bytes, peers_in = self._flush_phase()
        with tel.phase("aggregate-merge"):
            self._merge_aggregators(partials)
        with tel.phase("master-compute"):
            self._master_phase()
        self._account_superstep(stats, recv_msgs, recv_bytes, peers_in, host_t0)
        return stats

    def _compute_phase(self) -> list[dict]:
        """Every worker drains its input buffer; returns the aggregator
        partials in worker-id order."""
        for w in self.workers:
            w.begin_superstep(self.superstep, self._agg_values)
        for w in self.workers:
            w.run_compute()
        return [w._agg_partials for w in self.workers]

    def _flush_phase(self):
        """Move bulk remote buffers between workers, in source-worker-id
        order; returns ``(recv_msgs, recv_bytes, peers_in)`` per worker."""
        recv_msgs = np.zeros(self.num_workers, dtype=np.int64)
        recv_bytes = np.zeros(self.num_workers)
        peers_in = [0] * self.num_workers
        for w in self.workers:
            w.stats.peers_out = len(w.out_remote)
            for dst_worker, bucket in sorted(w.out_remote.items()):
                msgs, wire = self.workers[dst_worker].deliver_bucket(bucket)
                recv_msgs[dst_worker] += msgs
                recv_bytes[dst_worker] += wire
                peers_in[dst_worker] += 1
            w.stats.bytes_out = w.out_remote_wire_bytes
        return recv_msgs, recv_bytes, peers_in

    def _merge_aggregators(self, partials_by_worker: list[dict]) -> None:
        """Barrier aggregator merge: fold worker partials in worker-id order.

        The worker-id fold order is part of the determinism contract — both
        execution backends must reassociate float sums identically.
        """
        new_aggs: dict[str, Any] = {}
        for name, agg in self._aggregators.items():
            acc = agg.identity()
            for partials in partials_by_worker:
                if name in partials:
                    acc = agg.merge(acc, partials[name])
            new_aggs[name] = acc
        self._agg_values = new_aggs

    def _master_phase(self) -> None:
        """GPS-style global computation at the barrier."""
        master_ctx = MasterContext(self)
        self.job.program.master_compute(master_ctx)
        if master_ctx._halt:
            self._master_halt = True

    def _account_superstep(
        self, stats: SuperstepStats, recv_msgs, recv_bytes, peers_in, host_t0: float
    ) -> None:
        """Convert true counts into simulated seconds, then record.

        :attr:`workers` are per-worker resource views in worker-id order:
        the live :class:`~repro.bsp.worker.PartitionWorker` or
        :class:`~repro.bsp.dense_shard.DenseShard` objects of the in-process
        engines, or the :mod:`repro.dist` engine's views of its sessions'
        reports.  Each view exposes ``worker_id``, ``stats`` (a
        :class:`~repro.bsp.superstep.WorkerStepStats` with the compute-phase
        counts plus ``bytes_out``/``peers_out`` filled), and the resource
        hooks ``buffered_message_bytes()``, ``buffered_message_count()``,
        ``graph_bytes``, ``total_state_bytes``, ``memory_footprint()``.
        """
        model = self.model
        eff = model.effective_cores(self.vm_spec.cores)
        restart_total = 0.0
        for w in self.workers:
            ws = w.stats
            ws.bytes_in = float(recv_bytes[w.worker_id])
            ws.peers_in = int(peers_in[w.worker_id])
            ws.compute_time = (
                ws.compute_calls * model.t_compute_vertex
                + ws.msgs_in * model.t_msg_in
                + (ws.msgs_out_local + ws.msgs_out_remote) * model.t_msg_out
            ) / eff
            ws.serialize_time = (
                (ws.msgs_out_remote + int(recv_msgs[w.worker_id]))
                * model.t_serialize
                / eff
            )
            ws.network_time = self.network.transfer_time(
                TrafficSummary(
                    bytes_out=ws.bytes_out,
                    bytes_in=ws.bytes_in,
                    peers_out=ws.peers_out,
                    peers_in=ws.peers_in,
                ),
                superstep=self.superstep,
            )
            if model.disk_buffering or model.mapreduce_iteration:
                # Giraph/Hama-style disk buffering: every buffered message is
                # written now and read back next superstep (charged together
                # as sequential I/O); MR-style iteration additionally reloads
                # the partition + state from the DFS every superstep.
                traffic = 2.0 * w.buffered_message_bytes()
                if model.mapreduce_iteration:
                    traffic += w.graph_bytes + 2.0 * w.total_state_bytes
                ws.disk_time = traffic / model.disk_bandwidth
            ws.queue_depth = int(w.buffered_message_count())
            ws.memory_bytes = w.memory_footprint()
            ws.mem_slowdown = self.memory.slowdown(ws.memory_bytes)
            if self._jitter_rng is not None:
                # Always draw, so the rng sequence (and every untargeted
                # worker's timing) is identical whether or not
                # jitter_workers narrows the blast radius.
                wobble = float(self._jitter_rng.uniform(-1.0, 1.0))
                targets = self.model.jitter_workers
                if targets is None or w.worker_id in targets:
                    ws.jitter_factor = 1.0 + self.model.jitter * wobble
            if self.memory.restart_triggered(ws.memory_bytes):
                ws.restarted = True
                restart_total += model.restart_time
            stats.workers.append(ws)

        stats.barrier_time = model.barrier_time(self.num_workers)
        stats.restart_time = restart_total
        stats.elapsed = stats.slowest_busy + stats.barrier_time + restart_total
        stats.active_end = self.active_vertices
        self.telemetry.accounted(stats, perf_counter() - host_t0)
        self.sim_time += stats.elapsed
        stats.sim_time_end = self.sim_time
        self.trace.append(stats)

    def migrate(self, partition: Partition) -> int:
        """Re-home every vertex whose owner ``partition`` changes — its
        state, halt flag, buffered messages and mutation overlay — and grow
        or shrink :attr:`workers` to ``partition.num_parts`` (new workers
        start empty; dropped ones lose every vertex).  Called between
        supersteps; returns vertices moved.
        """
        if partition.num_vertices != self.graph.num_vertices:
            raise ValueError("partition does not cover the graph")
        workers = self.workers
        for w in workers:  # queued edge mutations land in the overlay, which moves
            w._apply_mutations()
        old, new = self.partition.assignment, partition.assignment
        for w in range(len(workers), partition.num_parts):
            workers.append(PartitionWorker(
                worker_id=w, graph=self.graph,
                vertex_ids=np.empty(0, dtype=np.int64),
                program=self.job.program, model=self.model,
                assignment=new,
            ))
        moving = np.flatnonzero(old != new).tolist()
        for v in moving:
            exported = workers[old[v]].export_vertex(v)
            workers[new[v]].import_vertex(v, *exported)
        del workers[partition.num_parts:]
        for w in workers:
            w.assignment = new
            w.vertex_ids = partition.vertices_of(w.worker_id)
            w.refresh_partition_footprint()
        self.partition = partition
        self.num_workers = partition.num_parts
        return len(moving)

    def _extract_values(self) -> VertexValues:
        """Collect the user-facing result values from every worker."""
        return VertexValues.concat(extract_columns(w) for w in self.workers)

    # ------------------------------------------------------------------
    # Checkpointing and failure recovery (Pregel-style coordinated rollback)
    # ------------------------------------------------------------------
    def _state_bytes_total(self) -> float:
        return sum(
            w.graph_bytes + w.total_state_bytes + w.in_next_payload_bytes
            for w in self.workers
        )

    def _capture_checkpoint(self, superstep: int) -> dict:
        """Snapshot every worker's state; ``superstep`` is the resume point."""
        return {
            "superstep": superstep,
            "agg_values": dict(self._agg_values),
            "workers": [w.snapshot() for w in self.workers],
        }

    def _restore_checkpoint(self) -> None:
        """Reload every worker from :attr:`_checkpoint` (the mechanics only;
        the timing lives in :meth:`_recover`)."""
        for w, snap in zip(self.workers, self._checkpoint["workers"]):
            w.restore(snap)

    def _fail_worker(self, worker_id: int) -> None:
        """Make the scheduled failure happen.  The simulated engines model
        the failure implicitly (rollback is the only observable effect);
        the process engine overrides this to actually kill the worker."""

    def stall(self, stats: SuperstepStats, seconds: float) -> None:
        """Stall the whole job for ``seconds`` at this boundary (checkpoint
        write, recovery, repartition, resize): the clock and the step's
        elapsed time, which every allocated VM bills, move together."""
        self.sim_time += seconds
        stats.elapsed += seconds
        stats.sim_time_end = self.sim_time

    def _maybe_checkpoint(self, stats: SuperstepStats) -> None:
        interval = self.job.checkpoint_interval
        if interval <= 0 or (self.superstep + 1) % interval != 0:
            return
        with self.telemetry.phase("checkpoint"):
            self._checkpoint = self._capture_checkpoint(self.superstep + 1)
            # Writing states + buffered messages to blob storage takes time.
            write_time = (
                self._state_bytes_total() / self.model.checkpoint_bandwidth
            )
            self.stall(stats, write_time)
        self.telemetry.stall(
            "checkpoint", write_time, resume_point=self.superstep + 1
        )

    def _maybe_fail(self, stats: SuperstepStats) -> bool:
        worker_id = self._failure_schedule.pop(self.superstep, None)
        if worker_id is None:
            return False
        if not 0 <= worker_id < self.num_workers:
            raise ValueError(f"failure_schedule names unknown worker {worker_id}")
        self._fail_worker(worker_id)
        self._recover(worker_id, stats)
        return True

    def _recover(self, worker_id: int, stats: SuperstepStats) -> None:
        """Coordinated rollback: every worker reloads the last checkpoint
        (or the initial state when none was taken yet)."""
        assert self._checkpoint is not None  # taken at job start
        tel = self.telemetry
        resume_from = self._checkpoint["superstep"]
        with tel.phase("recovery", failed_worker=worker_id) as closing:
            self._restore_checkpoint()
            self._agg_values = dict(self._checkpoint["agg_values"])
            self._master_halt = False  # a halt decided in the lost epoch is void
            restore_time = (
                self.model.restart_time
                + self._state_bytes_total() / self.model.checkpoint_bandwidth
            )
            self.stall(stats, restore_time)
            closing["resumed_from"] = resume_from
        self.recoveries.append(
            RecoveryEvent(
                failed_superstep=self.superstep,
                failed_worker=worker_id,
                resumed_from=resume_from,
                recovery_seconds=restore_time,
            )
        )
        tel.stall(
            "recovery", restore_time,
            failed_worker=worker_id, resumed_from=resume_from,
        )
        tel.rollback(resume_from)
        self.superstep = resume_from


#: Engine name -> ``"module:Class"``, resolved on first use so importing
#: :mod:`repro.bsp` never imports :mod:`repro.dist` / :mod:`repro.net`
#: (both import this module).  Every place that maps a name to a class —
#: the runner, ``certify_determinism``, the CLI's ``--engine`` choices, the
#: auto-selector's score tables — reads this table.
ENGINES = {
    "sim": "repro.bsp.engine:BSPEngine",
    "process": "repro.dist.engine:ProcessBSPEngine",
    "tcp": "repro.net.engine:TcpBSPEngine",
    "dense-ref": "repro.bsp.dense_ref:DenseRefEngine",
}


def make_engine(name: str, job: JobSpec, **engine_kwargs: Any):
    """Instantiate the engine ``name`` (a key of :data:`ENGINES`) for ``job``."""
    if name not in ENGINES:
        raise ValueError(
            f"unknown engine {name!r}; use one of "
            + ", ".join(repr(n) for n in ENGINES)
        )
    module, cls = ENGINES[name].split(":")
    return getattr(import_module(module), cls)(job, **engine_kwargs)


def run_job(job: JobSpec, engine: str = "sim", **engine_kwargs: Any) -> JobResult:
    """Convenience: build the named engine and run the job.

    ``engine_kwargs`` pass through to the engine's constructor.
    """
    return make_engine(engine, job, **engine_kwargs).run()

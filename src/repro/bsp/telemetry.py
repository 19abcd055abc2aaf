"""The telemetry spine: engines emit a closed event set, the sinks subscribe.

A :class:`Telemetry` is built once per engine from the job's four sink
slots (``tracer``, ``metrics``, ``timeline``, ``flight``) plus
``postmortem``, and is the only code that calls a sink.  The engines call
the events in :data:`EVENTS` on it (``superstep()`` and ``phase()`` pair
``phase_begin``/``phase_end`` as ``with`` blocks); each attached sink is
fed by one adapter below that implements only the events it records.  An
event fans out to the bound methods of the adapters that have it, so an
unobserved run dispatches to an empty list and no call site is guarded.

Every adapter stamps an event with ``engine.sim_time`` / ``engine.superstep``
as they stand when it is emitted.  ``accounted`` is emitted at barrier
entry — the step is priced, the clock not yet advanced — which is what lets
the adapters place ``barrier-enter`` at start + slowest worker and
``barrier-exit`` at start + elapsed.

The module is duck-typed on the sinks (:mod:`repro.obs` is never imported at
module level: obs → analysis → ``bsp.engine`` would close a cycle).  The
event → span / flight kind / series / timeline table is in
``docs/observability.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import cached_property
from typing import Any

from ..cloud.costmeter import step_cost

__all__ = ["EVENTS", "Telemetry"]

#: The closed vocabulary.  Job and superstep lifecycle first, then the
#: boundary charges, then the fleet events only the dist engine emits.
EVENTS = (
    "job_start", "job_end", "abort", "phase_begin", "phase_end",
    "accounted", "closed", "stall", "rollback", "annotate",
    "worker_up", "clock", "heartbeats", "worker_lost", "heartbeat_miss",
    "respawn", "worker_compute", "frame", "remote_tail",
)


def _fanout(handlers: list):
    def emit(*args: Any, **kwargs: Any) -> None:
        for handle in handlers:
            handle(*args, **kwargs)

    return emit


class Telemetry:
    """One engine's event fan-out (see the module docs for the contract)."""

    def __init__(self, engine, tracer=None, metrics=None, timeline=None,
                 flight=None, postmortem=None) -> None:
        self._engine = engine
        if tracer is not None and flight is not None:
            # Spans echo into the flight ring as span-open/span-close
            # events, so the crash tail shows which phase was in flight.
            tracer.flight = flight
        # Spans first, flight second: a phase's span-open echo precedes the
        # flight event of the same name; the postmortem dump reads the
        # other sinks, so it goes last.
        self.adapters = [
            adapter(engine, sink)
            for adapter, sink in (
                (_Spans, tracer), (_Flight, flight), (_Metrics, metrics),
                (_Timeline, timeline), (_Postmortem, postmortem),
            )
            if sink is not None
        ]
        self._handlers = {
            event: [getattr(a, event) for a in self.adapters if hasattr(a, event)]
            for event in EVENTS
        }
        for event, handlers in self._handlers.items():
            if event != "abort":
                setattr(self, event, _fanout(handlers))

    def abort(self, exc: BaseException) -> None:
        """Record an abnormal end, best-effort: a broken sink must never
        mask the failure it is reporting."""
        for handle in self._handlers["abort"]:
            try:
                handle(exc)
            except Exception:
                pass

    def subscribed(self, event: str) -> bool:
        """Whether any attached sink records ``event`` — lets an emitter
        skip *producing* a costly payload (a remote flight tail)."""
        return bool(self._handlers[event])

    def superstep(self):
        """The superstep, from its open to the last cost charged to it."""
        return self.phase("superstep", superstep=self._engine.superstep)

    @contextmanager
    def phase(self, name: str, **attrs: Any):
        """One named phase.  Yields a dict the body may fill with
        attributes known only at the end; a body that raises closes the
        phase ``aborted``, so whatever runs next (a recovery, a retried
        attempt) is parented on the superstep again."""
        self.phase_begin(name, attrs)
        closing: dict[str, Any] = {}
        try:
            yield closing
        except BaseException:
            self.phase_end(name, True, closing)
            raise
        self.phase_end(name, False, closing)


class _Spans:
    """:class:`repro.obs.SpanTracer`: phases as nested spans on two clocks."""

    def __init__(self, engine, tracer) -> None:
        self.engine = engine
        self.tracer = tracer
        self._last: dict[str, Any] = {}  # phase name -> its latest span

    def job_start(self) -> None:
        e = self.engine
        self._job = self.tracer.start(
            "job", sim=e.sim_time, category="engine", workers=e.num_workers
        )

    def job_end(self, halted: bool) -> None:
        e = self.engine
        self.tracer.end(self._job, sim=e.sim_time, supersteps=len(e.trace))

    def abort(self, exc: BaseException) -> None:
        # Close the job span (and any deeper strays) as aborted.
        self.tracer.unwind(sim=self.engine.sim_time)

    def phase_begin(self, name: str, attrs: dict) -> None:
        self._last[name] = self.tracer.start(
            name, sim=self.engine.sim_time, **attrs
        )

    def phase_end(self, name: str, aborted: bool, closing: dict) -> None:
        # The superstep closes after checkpoints, recovery, observers and
        # the post-superstep hook, so its simulated duration covers every
        # cost charged to the step (== stats.elapsed).
        span, sim = self._last[name], self.engine.sim_time
        if aborted:
            self.tracer.unwind(span, sim=sim)
            closing = {**closing, "aborted": True}
        self.tracer.end(span, sim=sim, **closing)

    def accounted(self, stats, host_seconds: float) -> None:
        # The cost model prices compute and flush in one lump after the
        # fact; the superstep span stays authoritative.
        start, workers = self.engine.sim_time, stats.workers
        self._last["compute"].set_sim_duration(
            max((ws.compute_time for ws in workers), default=0.0)
        )
        self._last["flush"].set_sim_duration(max(
            (ws.serialize_time + ws.network_time + ws.disk_time
             for ws in workers),
            default=0.0,
        ))
        self.tracer.record(
            "barrier", sim=start + stats.slowest_busy,
            sim_duration=stats.barrier_time, workers=stats.num_workers,
        )
        end = start + stats.elapsed
        self.tracer.counter(
            "messages-in-flight", sim=end,
            buffered=sum(ws.queue_depth for ws in workers),
        )
        self.tracer.counter(
            "worker-memory-mb", sim=end,
            **{f"w{ws.worker}": ws.memory_bytes / 1e6 for ws in workers},
        )
        self._last["superstep"].attrs["active_end"] = stats.active_end

    def worker_compute(self, worker_id: int, host_seconds: float,
                       ended_ago: float) -> None:
        # Placed where the compute actually ended in this tracer's
        # timebase, not at the moment the report happened to arrive.
        self.tracer.record(
            "worker-compute", sim=self.engine.sim_time, category="dist",
            host_duration=host_seconds, worker=worker_id,
            host_end=self.tracer.now() - ended_ago,
        )


class _Flight:
    """:class:`repro.obs.FlightRecorder`: the bounded ring of events."""

    #: stall kinds the ring records -> the attr that carries the seconds
    STALLS = {"checkpoint": "write_seconds", "recovery": "restore_seconds"}

    def __init__(self, engine, flight) -> None:
        self.engine = engine
        self.flight = flight

    def _record(self, kind: str, **attrs: Any) -> None:
        e = self.engine
        self.flight.record(kind, superstep=e.superstep, sim=e.sim_time, **attrs)

    def job_start(self) -> None:
        e = self.engine
        self.flight.record(
            "job-start", sim=e.sim_time, workers=e.num_workers,
            program=type(e.job.program).__name__,
        )

    def job_end(self, halted: bool) -> None:
        e = self.engine
        self.flight.record(
            "job-end", sim=e.sim_time, supersteps=len(e.trace), halted=halted
        )

    def abort(self, exc: BaseException) -> None:
        self._record("abort", error=type(exc).__name__, message=str(exc)[:200])

    def phase_begin(self, name: str, attrs: dict) -> None:
        # Every other phase reaches the ring as the tracer's span echo.
        if name == "superstep":
            self._record("superstep-open", active=self.engine.active_vertices)

    def accounted(self, stats, host_seconds: float) -> None:
        start, workers = self.engine.sim_time, stats.workers
        record, step = self.flight.record, stats.index
        record(
            "barrier-enter", superstep=step,
            sim=start + stats.slowest_busy, workers=stats.num_workers,
        )
        record(
            "message-batch", superstep=step, sim=start,
            msgs_local=sum(ws.msgs_out_local for ws in workers),
            msgs_remote=sum(ws.msgs_out_remote for ws in workers),
            bytes_out=sum(ws.bytes_out for ws in workers),
            queued=sum(ws.queue_depth for ws in workers),
        )
        record(
            "memory-sample", superstep=step, sim=start,
            peak_bytes=stats.peak_memory,
            worker_mb={
                str(ws.worker): round(ws.memory_bytes / 1e6, 3) for ws in workers
            },
        )
        record(
            "barrier-exit", superstep=step, sim=start + stats.elapsed,
            active=stats.active_end, elapsed=stats.elapsed,
        )

    def stall(self, kind: str, seconds: float, **attrs: Any) -> None:
        if kind in self.STALLS:
            self._record(kind, **attrs, **{self.STALLS[kind]: seconds})

    def worker_up(self, worker_id: int, endpoint: str, transport: str,
                  respawn: bool, alive: int) -> None:
        self._record(
            "worker-reconnect" if respawn else "worker-connect",
            connected_worker=worker_id, endpoint=endpoint, transport=transport,
        )

    def clock(self, worker_id: int, endpoint: str, stats: dict) -> None:
        self._record(
            "clock-sync", synced_worker=worker_id, endpoint=endpoint,
            offset_seconds=round(stats["offset_seconds"], 6),
            uncertainty_seconds=round(stats["uncertainty_seconds"], 6),
        )

    def worker_lost(self, worker_id: int, reason: str, alive: int) -> None:
        self._record("worker-lost", lost_worker=worker_id, reason=reason)

    def heartbeat_miss(self, worker_id: int, age_seconds: float) -> None:
        self._record(
            "heartbeat-miss", lost_worker=worker_id,
            age_seconds=round(age_seconds, 3),
        )

    def respawn(self, worker_id: int, respawns: int, budget) -> None:
        self._record(
            "worker-respawn", respawned_worker=worker_id,
            respawns=respawns, budget=budget,
        )

    def remote_tail(self, worker_id: int, events: list, age_of) -> None:
        # ``age_of(host)`` says how long ago, in local seconds, a remote
        # event stamped ``host`` happened; anchoring that on this
        # recorder's clock once per batch keeps the map affine, so
        # per-worker event order is always preserved.
        anchor = self.flight.now()
        self.flight.merge_remote(
            worker_id, events, restamp=lambda host: anchor - age_of(host)
        )


#: Engine series, resolved once so the superstep loop stays cheap:
#: ``(attribute, instrument kind, series name, help)``.
_ENGINE_SERIES = (
    ("supersteps", "counter", "bsp_supersteps_total",
     "Supersteps executed (replayed ones after recovery included)"),
    ("remote_bytes", "counter", "bsp_remote_bytes_total",
     "Wire bytes moved between workers at flush"),
    ("injected", "counter", "bsp_injected_messages_total",
     "Control-plane activation messages injected at boundaries"),
    ("compute_calls", "counter", "bsp_compute_calls_total",
     "Vertex compute() invocations"),
    ("active", "gauge", "bsp_active_vertices",
     "Active vertices after the last barrier"),
    ("workers", "gauge", "bsp_workers", "Partition workers in the fleet"),
    ("sim_time", "gauge", "bsp_sim_time_seconds",
     "Simulated job clock, every stall charged so far included"),
    ("peak_memory", "gauge", "bsp_superstep_peak_memory_bytes",
     "Peak per-worker memory in the last superstep"),
    ("step_sim", "histogram", "bsp_superstep_sim_seconds",
     "Simulated superstep durations: the step proper (add "
     "bsp_checkpoint_sim_seconds_total and bsp_recovery_sim_seconds_total "
     "for the simulated clock)"),
    ("step_host", "histogram", "bsp_superstep_host_seconds",
     "Host wall-clock superstep durations"),
    ("barrier_sim", "counter", "bsp_barrier_sim_seconds_total",
     "Simulated seconds spent in barriers"),
    ("restarts", "counter", "bsp_worker_restarts_total",
     "Fabric-initiated VM restarts from memory overflow"),
    ("checkpoints", "counter", "bsp_checkpoints_total", "Checkpoints written"),
    ("checkpoint_sim", "counter", "bsp_checkpoint_sim_seconds_total",
     "Simulated seconds spent writing checkpoints"),
    ("recoveries", "counter", "bsp_recoveries_total",
     "Coordinated rollbacks executed"),
    ("recovery_sim", "counter", "bsp_recovery_sim_seconds_total",
     "Simulated seconds spent restoring checkpoints"),
)

#: Dollar series, priced per closed step exactly as ``attribute_cost``
#: prices the trace, so at job end they equal ``JobResult.cost``.
_COST_SERIES = (
    ("cost_total", "gauge", "repro_cost_total_dollars",
     "Attributed run cost so far (instance time + egress)"),
    ("cost_compute", "gauge", "repro_cost_compute_dollars",
     "Worker instance-time dollars so far"),
    ("cost_manager", "gauge", "repro_cost_manager_dollars",
     "Manager instance-time dollars so far"),
    ("cost_egress", "gauge", "repro_cost_egress_dollars",
     "Network egress dollars so far"),
    ("cost_step", "gauge", "repro_cost_superstep_dollars",
     "Dollar cost attributed to the latest superstep"),
)

#: Fleet series of the dist engine; every one carries a ``transport`` label
#: (``pipe``, ``tcp``, …) so mixed-backend dashboards can tell the planes
#: apart, which is why they wait for the first ``worker_up``.
_FLEET_SERIES = (
    ("frames", "counter", "dist_frames_total",
     "Bulk message frames routed through the coordinator"),
    ("frame_bytes", "counter", "dist_frame_bytes_total",
     "Serialized bytes of routed message frames"),
    ("failures", "counter", "dist_worker_failures_total",
     "Workers lost (killed, crashed, dropped, or hung)"),
    ("respawns", "counter", "dist_worker_respawns_total",
     "Replacement workers started"),
    ("alive", "gauge", "dist_workers_alive", "Live workers"),
)


class _Metrics:
    """:class:`repro.obs.MetricsRegistry`: counters, gauges, histograms
    (names and labels are documented in ``docs/observability.md``)."""

    def __init__(self, engine, registry) -> None:
        self.engine = engine
        self.registry = registry
        self._declare(_ENGINE_SERIES)
        self._declare(_COST_SERIES)
        self._spent = [0.0, 0.0, 0.0]  # compute, manager, egress dollars
        self.msgs_local = registry.counter(
            "bsp_messages_total",
            help="Messages emitted, post-combine, by delivery plane",
            kind="local",
        )
        self.msgs_remote = registry.counter("bsp_messages_total", kind="remote")
        self._fleet: dict[str, str] = {}  # the transport label, once known
        self._per_worker: dict[int, tuple] = {}  # id -> (calls, msgs-in) counters

    def _declare(self, table: tuple, **labels: str) -> None:
        for attr, kind, name, help in table:
            setattr(self, attr, getattr(self.registry, kind)(
                name, help=help, **labels
            ))

    def accounted(self, stats, host_seconds: float) -> None:
        workers = stats.workers
        self.supersteps.inc()
        self.msgs_local.inc(sum(w.msgs_out_local for w in workers))
        self.msgs_remote.inc(sum(w.msgs_out_remote for w in workers))
        self.remote_bytes.inc(sum(w.bytes_out for w in workers))
        self.injected.inc(stats.injected)
        self.compute_calls.inc(stats.compute_calls)
        self.active.set(stats.active_end)
        self.workers.set(stats.num_workers)
        self.peak_memory.set(stats.peak_memory)
        self.step_sim.observe(stats.elapsed)
        self.step_host.observe(host_seconds)
        self.barrier_sim.inc(stats.barrier_time)
        self.restarts.inc(sum(1 for w in workers if w.restarted))
        # Per-worker series come from the step stats every engine already
        # holds coordinator-side, so no worker keeps a registry.
        for w in workers:
            calls, msgs_in = self._per_worker.get(w.worker) or self._worker(w.worker)
            calls.inc(w.compute_calls)
            msgs_in.inc(w.msgs_in)

    def _worker(self, worker_id: int) -> tuple:
        counter, label = self.registry.counter, str(worker_id)
        pair = self._per_worker[worker_id] = (
            counter("bsp_worker_compute_calls_total",
                    help="compute() invocations per worker", worker=label),
            counter("bsp_worker_messages_in_total",
                    help="Messages drained by compute() per worker", worker=label),
        )
        return pair

    def closed(self, stats, committed: bool) -> None:
        e = self.engine
        self.sim_time.set(e.sim_time)
        # Every trace row is billed, rolled back or not, once all its
        # stalls have landed; summed the way the report sums, so the two
        # agree to the last bit.
        step = step_cost(
            e.vm_spec, e.job.manager_vm, stats.num_workers,
            float(stats.elapsed), sum(float(w.bytes_out) for w in stats.workers),
            float(stats.extra_vm_seconds),
        )
        spent = self._spent
        for i, dollars in enumerate(step):
            spent[i] += dollars
        self.cost_compute.set(spent[0])
        self.cost_manager.set(spent[1])
        self.cost_egress.set(spent[2])
        self.cost_total.set(spent[0] + spent[1] + spent[2])
        self.cost_step.set(step[0] + step[1] + step[2])

    def stall(self, kind: str, seconds: float, **attrs: Any) -> None:
        if kind == "checkpoint":
            self.checkpoints.inc()
            self.checkpoint_sim.inc(seconds)
        elif kind == "recovery":
            self.recoveries.inc()
            self.recovery_sim.inc(seconds)
        elif kind == "elastic-resize":
            counter = self.registry.counter
            counter(
                "elastic_scale_events_total",
                help="Fleet resizes at superstep boundaries",
                direction=attrs["direction"],
            ).inc()
            counter(
                "elastic_vertices_moved_total",
                help="Vertices migrated across resizes",
            ).inc(attrs["vertices_moved"])
            counter(
                "elastic_overhead_sim_seconds_total",
                help="Simulated seconds the job stalled for scaling",
            ).inc(seconds)
        elif kind == "repartition":
            counter = self.registry.counter
            counter(
                "repartition_vertices_moved_total",
                help="Vertices migrated by dynamic repartitioning",
            ).inc(attrs["vertices_moved"])
            counter(
                "repartition_overhead_sim_seconds_total",
                help="Simulated seconds the job stalled for repartitioning",
            ).inc(seconds)

    @cached_property
    def task_host(self):  # only the engines with real worker tasks have it
        return self.registry.histogram(
            "bsp_worker_compute_host_seconds",
            help="Host wall time of each worker's compute task",
        )

    def worker_compute(self, worker_id: int, host_seconds: float,
                       ended_ago: float) -> None:
        self.task_host.observe(host_seconds)

    def worker_up(self, worker_id: int, endpoint: str, transport: str,
                  respawn: bool, alive: int) -> None:
        if not self._fleet:
            from ..obs.metrics import DEFAULT_SIZE_BUCKETS

            self._fleet = {"transport": transport}
            self._declare(_FLEET_SERIES, **self._fleet)
            self.frame_size = self.registry.histogram(
                "dist_frame_size_bytes",
                help="Size distribution of routed message frames",
                buckets=DEFAULT_SIZE_BUCKETS, **self._fleet,
            )
        self._beats(worker_id)  # create the series eagerly
        self.alive.set(alive)

    def _beats(self, worker_id: int):
        return self.registry.counter(
            "dist_heartbeats_total", help="Heartbeats received from workers",
            worker=str(worker_id), **self._fleet,
        )

    def clock(self, worker_id: int, endpoint: str, stats: dict) -> None:
        """Mirror a channel's ClockSync estimate into per-worker gauges."""
        gauge, labels = self.registry.gauge, {"worker": str(worker_id), **self._fleet}
        gauge(
            "dist_clock_offset_seconds",
            help="Estimated remote-minus-local monotonic clock offset", **labels,
        ).set(stats["offset_seconds"])
        gauge(
            "dist_clock_uncertainty_seconds",
            help="Clock offset error bound (half the handshake RTT)", **labels,
        ).set(stats["uncertainty_seconds"])
        gauge(
            "dist_clock_drift_rate",
            help="Relative clock drift (remote seconds per local second)",
            **labels,
        ).set(stats["drift_rate"])

    def heartbeats(self, worker_id: int, beats: int, clock) -> None:
        self._beats(worker_id).inc(beats)
        if clock.synchronized:
            # Heartbeats carry one-way clock samples; refresh the
            # per-worker skew/drift gauges as the estimate moves.
            self.clock(worker_id, None, clock.stats())

    def worker_lost(self, worker_id: int, reason: str, alive: int) -> None:
        self.failures.inc()
        self.alive.set(alive)

    def respawn(self, worker_id: int, respawns: int, budget) -> None:
        self.respawns.inc()

    def frame(self, nbytes: int) -> None:
        self.frames.inc()
        self.frame_bytes.inc(nbytes)
        self.frame_size.observe(nbytes)


class _Timeline:
    """:class:`repro.obs.RunTimeline`: every closed ``SuperstepStats``."""

    def __init__(self, engine, timeline) -> None:
        self.timeline = timeline
        self.rollback = timeline.rollback
        self.annotate = timeline.annotate

    def closed(self, stats, committed: bool) -> None:
        # After every cost charged to the step (checkpoint, recovery,
        # elastic resize) has landed in stats.elapsed.  A lost epoch's
        # steps stay; readers derive the committed ones from the indices.
        self.timeline.append(stats)


class _Postmortem:
    """``job.postmortem``: the crash bundle dumped on any abnormal end."""

    def __init__(self, engine, writer) -> None:
        self.engine = engine
        self.writer = writer

    def abort(self, exc: BaseException) -> None:
        self.writer.dump(self.engine, exc)

"""The views of one run reconcile (ROADMAP item 3, "Consistency").

Spans, metrics, timeline, flight ring and the bill are all fed from the
same events of :mod:`repro.bsp.telemetry`; for one job they must tell the
same story.  The job takes checkpoints and loses a worker, on the
sequential engine, over real processes and on dense shards; over real
processes a second job's worker also dies unscheduled (``os._exit``).
Two engines that stall a step for their own reasons join them: a live
elastic fleet toggling 4 <-> 8 workers and dynamic repartitioning.
"""

import os
from pathlib import Path

import pytest

from repro.algorithms import PageRankProgram
from repro.bsp import JobSpec
from repro.bsp.engine import make_engine
from repro.bsp.superstep import JobTrace
from repro.cloud import LARGE_VM, SMALL_VM, attribute_cost
from repro.elastic import LiveActiveFraction, LiveElasticEngine
from repro.graph import generators
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    RunTimeline,
    SpanTracer,
)
from repro.partition.dynamic import DynamicRepartitioningEngine

WORKERS = 3
#: the phases every superstep opens
STEP_PHASES = ("compute", "flush", "aggregate-merge", "master-compute")


class Toggle(LiveActiveFraction):
    """Alternate the fleet between ``low`` and ``high`` every superstep."""

    def decide(self, engine, stats):
        return self.high if engine.num_workers == self.low else self.low


class DieOnce(PageRankProgram):
    """PageRank whose worker holding vertex 0 exits mid-compute, once."""

    def __init__(self, iterations, flag):
        super().__init__(iterations)
        self.flag = flag

    def compute(self, ctx, state, messages):
        if (
            ctx.superstep == 6 and ctx.vertex_id == 0
            and not os.path.exists(self.flag)
        ):
            Path(self.flag).write_text("x")  # the respawned worker survives
            os._exit(1)
        return super().compute(ctx, state, messages)


#: case -> (stall phases the run must open, whether a worker is lost)
CASES = {
    "sim": (("checkpoint", "recovery"), True),
    "process": (("checkpoint", "recovery"), True),
    "dense-ref": (("checkpoint", "recovery"), True),
    "unplanned-death": (("checkpoint", "recovery"), True),
    "live-elastic": (("checkpoint", "elastic-resize"), False),
    "repartition": (("checkpoint",), False),
}


@pytest.fixture(scope="module", params=list(CASES))
def run(request, tmp_path_factory):
    """One run per case, all four sinks attached."""
    case = request.param
    graph = generators.watts_strogatz(60, 4, 0.3, seed=7)
    tracer, metrics = SpanTracer(), MetricsRegistry()
    timeline, flight = RunTimeline(), FlightRecorder(capacity=1 << 16)
    program, workers, failures = PageRankProgram(9), WORKERS, {6: 1}
    if case == "unplanned-death":
        flag = tmp_path_factory.mktemp("unplanned") / "died-once"
        program, failures = DieOnce(9, str(flag)), {}
    elif case in ("live-elastic", "repartition"):
        failures = {}  # both engines refuse failure injection
        workers = 4 if case == "live-elastic" else WORKERS
    job = JobSpec(
        program=program, graph=graph, num_workers=workers,
        checkpoint_interval=5, failure_schedule=failures,
        tracer=tracer, metrics=metrics, timeline=timeline, flight=flight,
    )
    if case == "live-elastic":
        engine = LiveElasticEngine(job, Toggle(low=4, high=8))
    elif case == "repartition":
        engine = DynamicRepartitioningEngine(job, interval=2)
    else:
        engine = make_engine(
            "process" if case == "unplanned-death" else case, job
        )
    result = engine.run()
    stalls, lost = CASES[case]
    assert bool(result.recoveries) == lost
    if case == "live-elastic":
        assert len(engine.scale_events) >= 4
    if case == "repartition":
        assert engine.migrations, "the repartitioner must have moved vertices"
    return engine, result, tracer, metrics, timeline, flight, stalls


def value(metrics, name, **labels):
    return metrics.get(name, **labels).value


def test_one_simulated_clock(run):
    engine, result, tracer, metrics, *_, stalls = run
    [job] = tracer.named("job")
    clock = engine.sim_time
    assert job.sim_duration == clock
    assert tracer.total_sim("superstep") == pytest.approx(clock, rel=1e-12)
    assert value(metrics, "bsp_sim_time_seconds") == clock
    assert result.trace.total_time == pytest.approx(clock, rel=1e-12)
    # The step histogram observes the step proper; the stalls are counters.
    # Repartitioning stalls have no series: its engine records them.
    counted = [
        value(metrics, "bsp_checkpoint_sim_seconds_total"),
        value(metrics, "bsp_recovery_sim_seconds_total"),
    ]
    if "elastic-resize" in stalls:
        counted.append(value(metrics, "elastic_overhead_sim_seconds_total"))
    counted += [m.overhead_seconds for m in getattr(engine, "migrations", ())]
    assert (
        metrics.get("bsp_superstep_sim_seconds").sum + sum(counted)
    ) == pytest.approx(clock, rel=1e-12)
    # Every phase hangs off its superstep.
    steps = {s.index for s in tracer.named("superstep")}
    names = STEP_PHASES + stalls
    phases = [s for s in tracer.spans if s.name in names]
    assert {s.name for s in phases} == set(names)
    assert all(s.parent in steps for s in phases)


def test_message_and_step_counts_agree(run):
    _, result, tracer, metrics, _, flight, _ = run
    trace = result.trace
    assert value(metrics, "bsp_supersteps_total") == len(trace)
    assert len(tracer.named("superstep")) == len(trace)
    batches = [e for e in flight.snapshot() if e.kind == "message-batch"]
    assert len(batches) == len(trace)
    assert trace.total_messages == sum(
        e.attrs["msgs_local"] + e.attrs["msgs_remote"] for e in batches
    )
    assert trace.total_messages == (
        value(metrics, "bsp_messages_total", kind="local")
        + value(metrics, "bsp_messages_total", kind="remote")
    )
    assert value(metrics, "bsp_compute_calls_total") == sum(
        s.compute_calls for s in trace
    )
    for w in {ws.worker for s in trace for ws in s.workers}:
        mine = [ws for s in trace for ws in s.workers if ws.worker == w]
        assert value(
            metrics, "bsp_worker_compute_calls_total", worker=str(w)
        ) == sum(ws.compute_calls for ws in mine)
        assert value(
            metrics, "bsp_worker_messages_in_total", worker=str(w)
        ) == sum(ws.msgs_in for ws in mine)


def test_timeline_is_the_committed_trace(run):
    _, result, _, _, timeline, *_ = run
    # A replayed superstep supersedes the lost one: the last trace entry of
    # each index is the committed one.
    committed = list({s.index: s for s in result.trace}.values())
    # Something was rolled back exactly when a worker was lost.
    assert (len(committed) < len(result.trace)) == bool(result.recoveries)
    # The timeline holds the trace's own step objects, not copies.
    assert len(timeline.steps) == len(committed)
    assert all(t is s for t, s in zip(timeline.steps, committed))


def test_timeline_prices_the_committed_steps(run):
    _, result, _, _, timeline, *_ = run
    committed = JobTrace(list({s.index: s for s in result.trace}.values()))
    # `repro perf` prices a timeline with the default book, which is the
    # one these runs bill with.
    assert attribute_cost(timeline) == attribute_cost(committed)
    if len(committed) < len(result.trace):
        # The lost epoch and its restore stall are in the bill only.
        assert attribute_cost(timeline).total < result.cost.total
    else:
        assert attribute_cost(timeline) == result.cost


def test_one_bill(run):
    engine, result, _, metrics, *_ = run
    cost = result.cost
    # The live gauges price each closed step the way the report prices the
    # trace, every stall included.
    assert value(metrics, "repro_cost_total_dollars") == cost.total
    assert sum(step["total"] for step in cost.per_step) == pytest.approx(
        cost.total, rel=1e-12
    )
    # Every simulated second is billed: the manager for the whole clock,
    # the workers for every row's fleet plus the VMs a scale-out boots.
    assert cost.manager == pytest.approx(
        engine.sim_time * SMALL_VM.price_per_second, rel=1e-12
    )
    vm_seconds = sum(
        s.num_workers * s.elapsed + s.extra_vm_seconds for s in result.trace
    )
    assert cost.compute == pytest.approx(
        vm_seconds * LARGE_VM.price_per_second, rel=1e-12
    )

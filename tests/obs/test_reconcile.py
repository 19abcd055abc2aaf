"""The views of one run reconcile (ROADMAP item 3, "Consistency").

Spans, metrics, timeline, flight ring and the bill are all fed from the
same events of :mod:`repro.bsp.telemetry`; for one job they must tell the
same story.  The job takes checkpoints and loses a worker, on the
sequential engine, over real processes and on dense shards; over real
processes a second job's worker also dies unscheduled (``os._exit``).
Two migration policies that stall a step for their own reasons join them:
a live elastic fleet toggling 4 <-> 8 workers and dynamic repartitioning.
"""

import os
from pathlib import Path

import pytest

from repro.algorithms import PageRankProgram
from repro.analysis.traces import committed, rolled_back_rows
from repro.bsp import JobSpec
from repro.bsp.engine import make_engine
from repro.bsp.superstep import JobTrace
from repro.cloud import LARGE_VM, SMALL_VM, attribute_cost
from repro.elastic import ElasticResizer, ScalingPolicy
from repro.graph import generators
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    RunTimeline,
    SpanTracer,
)
from repro.partition.dynamic import DynamicRepartitioner

WORKERS = 3
#: the phases every superstep opens
STEP_PHASES = ("compute", "flush", "aggregate-merge", "master-compute")


class Toggle(ScalingPolicy):
    """Alternate the fleet between ``low`` and ``high`` every superstep."""

    def choose(self, ctx):
        return ctx.high if ctx.workers == ctx.low else ctx.low


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
    "repartition": (("checkpoint", "repartition"), False),
}


@pytest.fixture(scope="module", params=list(CASES))
def run(request, tmp_path_factory):
    """One run per case, all four sinks attached."""
    case = request.param
    graph = generators.watts_strogatz(60, 4, 0.3, seed=7)
    tracer, metrics = SpanTracer(), MetricsRegistry()
    timeline, flight = RunTimeline(), FlightRecorder(capacity=1 << 16)
    program, workers, failures = PageRankProgram(9), WORKERS, {6: 1}
    policies, name = [], case
    if case == "unplanned-death":
        flag = tmp_path_factory.mktemp("unplanned") / "died-once"
        program, failures, name = DieOnce(9, str(flag)), {}, "process"
    elif case == "live-elastic":
        # both policies refuse failure injection
        failures, workers, name = {}, 4, "sim"
        policies = [ElasticResizer(Toggle(), low=4, high=8)]
    elif case == "repartition":
        failures, name = {}, "sim"
        policies = [DynamicRepartitioner(interval=2)]
    job = JobSpec(
        program=program, graph=graph, num_workers=workers,
        checkpoint_interval=5, failure_schedule=failures, observers=policies,
        tracer=tracer, metrics=metrics, timeline=timeline, flight=flight,
    )
    engine = make_engine(name, job)
    result = engine.run()
    stalls, lost = CASES[case]
    assert bool(result.recoveries) == lost
    if case == "live-elastic":
        assert len(policies[0].scale_events) >= 4
    if case == "repartition":
        assert policies[0].migrations, "the repartitioner must have moved vertices"
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
    counted = [
        value(metrics, "bsp_checkpoint_sim_seconds_total"),
        value(metrics, "bsp_recovery_sim_seconds_total"),
    ]
    if "elastic-resize" in stalls:
        counted.append(value(metrics, "elastic_overhead_sim_seconds_total"))
    if "repartition" in stalls:
        counted.append(value(metrics, "repartition_overhead_sim_seconds_total"))
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
    kept = list({s.index: s for s in result.trace}.values())
    # Something was rolled back exactly when a worker was lost.
    assert (len(kept) < len(result.trace)) == bool(result.recoveries)
    # The timeline holds the trace's own step objects, not copies, and its
    # committed view derived from the indices is the kept steps.
    assert len(timeline.steps) == len(result.trace)
    assert all(t is s for t, s in zip(timeline.steps, result.trace))
    view = committed(timeline).steps
    assert len(view) == len(kept)
    assert all(t is s for t, s in zip(view, kept))


def test_rolled_back_rows_count_the_lost_epoch(run):
    _, result, _, _, timeline, *_ = run
    # Every failure strikes in step 6 and resumes from the checkpoint at
    # 5: step 5's rows had committed and are lost, whether the failing
    # step closed a row (scheduled) or died mid-compute (unplanned).
    assert rolled_back_rows(timeline) == (
        WORKERS if result.recoveries else 0
    )


def test_timeline_prices_the_committed_steps(run):
    _, result, _, _, timeline, *_ = run
    kept = JobTrace(list({s.index: s for s in result.trace}.values()))
    # `repro trace report` prices the committed steps with the default
    # book, which is the one these runs bill with.
    assert attribute_cost(committed(timeline)) == attribute_cost(kept)
    if len(kept) < len(result.trace):
        # The lost epoch and its restore stall are in the bill only.
        assert attribute_cost(committed(timeline)).total < result.cost.total
    else:
        assert attribute_cost(committed(timeline)) == result.cost


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


@pytest.mark.parametrize("run", ["live-elastic", "repartition"], indirect=True)
def test_migrations_reach_every_view(run):
    _, _, tracer, metrics, timeline, _, stalls = run
    [kind] = [k for k in stalls if k != "checkpoint"]
    prefix = "elastic" if kind == "elastic-resize" else "repartition"
    spans = tracer.named(kind)
    annotations = [e for e in timeline.events if e["kind"] == kind]
    assert len(spans) == len(annotations) > 0
    moved = sum(s.attrs["vertices_moved"] for s in spans)
    assert sum(e["vertices_moved"] for e in annotations) == moved
    assert value(metrics, f"{prefix}_vertices_moved_total") == moved

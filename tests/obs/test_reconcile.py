"""The views of one run reconcile (ROADMAP item 3, "Consistency").

Spans, metrics, timeline, flight ring and the two cost computations are all
fed from the same events of :mod:`repro.bsp.telemetry`; for one job with
checkpoints and a scheduled failure they must tell the same story, on the
sequential engine and over real processes.

One gap is left open on purpose: an *unplanned* worker death (no
``failure_schedule`` entry) charges its recovery on a scratch
``SuperstepStats`` that never joins the trace, so ``trace.total_time``
omits it while ``engine.sim_time`` and the billing meter include it.  A
scheduled failure, as here, lands on the failed step's own stats.
"""

from dataclasses import fields

import pytest

from repro.algorithms import PageRankProgram
from repro.bsp import JobSpec
from repro.bsp.engine import make_engine
from repro.cloud.costmeter import CostMeter
from repro.graph import generators
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    RunTimeline,
    SpanTracer,
    StepMeta,
    TimelineRow,
)

WORKERS = 3


@pytest.fixture(scope="module", params=["sim", "process", "dense-ref"])
def run(request):
    """One run per engine, all four sinks plus the live cost meter."""
    graph = generators.watts_strogatz(60, 4, 0.3, seed=7)
    tracer, metrics = SpanTracer(), MetricsRegistry()
    timeline, flight = RunTimeline(), FlightRecorder(capacity=1 << 16)
    meter = CostMeter(metrics)
    job = JobSpec(
        program=PageRankProgram(9), graph=graph, num_workers=WORKERS,
        checkpoint_interval=5, failure_schedule={6: 1}, observers=[meter],
        tracer=tracer, metrics=metrics, timeline=timeline, flight=flight,
    )
    engine = make_engine(request.param, job)
    result = engine.run()
    assert result.recoveries, "the scheduled failure must have fired"
    return engine, result, tracer, metrics, timeline, flight, meter


def value(metrics, name, **labels):
    return metrics.get(name, **labels).value


def test_one_simulated_clock(run):
    engine, result, tracer, metrics, *_ = run
    [job] = tracer.named("job")
    clock = engine.sim_time
    assert job.sim_duration == clock
    assert tracer.total_sim("superstep") == pytest.approx(clock, rel=1e-12)
    assert value(metrics, "bsp_sim_time_seconds") == clock
    assert result.trace.total_time == pytest.approx(clock, rel=1e-12)
    # The step histogram observes the step proper; the stalls are counters.
    assert (
        metrics.get("bsp_superstep_sim_seconds").sum
        + value(metrics, "bsp_checkpoint_sim_seconds_total")
        + value(metrics, "bsp_recovery_sim_seconds_total")
    ) == pytest.approx(clock, rel=1e-12)
    # Every phase hangs off its superstep.
    steps = {s.index for s in tracer.named("superstep")}
    names = ("compute", "flush", "aggregate-merge", "master-compute",
             "checkpoint", "recovery")
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
    for w in range(WORKERS):
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
    assert len(committed) < len(result.trace)  # something was rolled back
    assert [m.superstep for m in timeline.steps] == [s.index for s in committed]
    shared = [f.name for f in fields(StepMeta)
              if f.name not in ("superstep", "overhead_time")]
    for meta, stats in zip(timeline.steps, committed):
        assert [getattr(meta, n) for n in shared] == [
            getattr(stats, n) for n in shared
        ]
    per_worker = [f.name for f in fields(TimelineRow) if f.name != "superstep"]
    expected = [
        [stats.index] + [getattr(ws, n) for n in per_worker]
        for stats in committed for ws in stats.workers
    ]
    assert [
        [row.superstep] + [getattr(row, n) for n in per_worker]
        for row in timeline.rows
    ] == expected


def test_one_bill(run):
    _, result, _, metrics, _, _, meter = run
    cost = result.cost
    assert meter.total == cost.total
    assert value(metrics, "repro_cost_total_dollars") == cost.total
    assert sum(step["total"] for step in cost.per_step) == pytest.approx(
        cost.total, rel=1e-12
    )
    # The billing meter charges the same VM-seconds the report attributes:
    # checkpoint writes and recovery bill the manager like any other second.
    assert result.total_cost == pytest.approx(
        cost.compute + cost.manager, rel=1e-12
    )

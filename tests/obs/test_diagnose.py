"""Straggler detection, cause attribution, and critical-path analysis."""

import dataclasses
import os
from pathlib import Path

import pytest

from repro.algorithms import PageRankProgram
from repro.bsp import JobSpec, run_job
from repro.cloud.costmodel import DEFAULT_PERF_MODEL
from repro.graph import generators as gen
from repro.obs import (
    DiagnosticMonitor,
    MetricsRegistry,
    RunTimeline,
    SpanTracer,
    attribute_run,
    critical_path,
    flag_stragglers_step,
    worker_skew,
)
from repro.bsp.superstep import SuperstepStats, WorkerStepStats
from repro.obs.diagnose import dominant_cause
from repro.partition.advisor import repartition_hint


def row(worker, compute=1.0, serialize=0.0, network=0.0, jitter=1.0,
        mem=1.0, calls=100, remote=10, msgs_in=10):
    return WorkerStepStats(
        worker=worker, compute_calls=calls,
        msgs_in=msgs_in, msgs_out_local=10, msgs_out_remote=remote,
        compute_time=compute, serialize_time=serialize,
        network_time=network, mem_slowdown=mem, jitter_factor=jitter,
    )


def step(rows, index=0):
    return SuperstepStats(index=index, num_workers=len(rows), workers=rows)


class TestFlagging:
    def test_balanced_fleet_never_flags(self):
        assert flag_stragglers_step(step([row(w) for w in range(4)])) == []

    def test_single_worker_never_flags(self):
        assert flag_stragglers_step(step([row(0, compute=99.0)])) == []

    def test_outlier_flagged_with_ratio(self):
        rows = [row(0), row(1), row(2), row(3, compute=2.0)]
        flags = flag_stragglers_step(step(rows))
        assert len(flags) == 1
        assert flags[0].worker == 3
        assert flags[0].ratio == pytest.approx(2.0)

    def test_small_wobble_below_min_ratio_ignored(self):
        rows = [row(0), row(1), row(2), row(3, compute=1.1)]
        assert flag_stragglers_step(step(rows), min_ratio=1.2) == []

    def test_mad_threshold_suppresses_noisy_fleets(self):
        # A spread-out fleet: the max is < min_ratio of the median anyway,
        # but with a large MAD even a 1.3x worker is unremarkable.
        rows = [row(0, compute=0.5), row(1, compute=1.0),
                row(2, compute=1.5), row(3, compute=1.3)]
        assert flag_stragglers_step(step(rows), min_ratio=1.1) == []


class TestAttribution:
    def flags_for(self, rows, **kw):
        return flag_stragglers_step(step(rows), **kw)

    def test_jitter_wins_over_everything(self):
        rows = [row(0), row(1), row(2), row(3, jitter=2.0, mem=1.5)]
        (f,) = self.flags_for(rows)
        assert f.cause == "jitter"
        assert "jitter_factor=2.00" in f.detail

    def test_memory_pressure(self):
        rows = [row(0), row(1), row(2), row(3, mem=1.8)]
        (f,) = self.flags_for(rows)
        assert f.cause == "memory-pressure"

    def test_remote_traffic(self):
        rows = [row(0), row(1), row(2),
                row(3, compute=0.2, network=1.5, remote=500, msgs_in=500)]
        (f,) = self.flags_for(rows)
        assert f.cause == "remote-traffic"

    def test_degree_skew_from_share(self):
        rows = [row(0), row(1), row(2), row(3, compute=2.0)]
        (f,) = self.flags_for(rows, degree_share=[0.1, 0.1, 0.1, 0.7])
        assert f.cause == "degree-skew"
        assert "70%" in f.detail

    def test_degree_skew_from_compute_calls(self):
        rows = [row(0), row(1), row(2), row(3, compute=2.0, calls=600)]
        (f,) = self.flags_for(rows)
        assert f.cause == "degree-skew"

    def test_unknown_when_nothing_explains(self):
        rows = [row(0), row(1), row(2), row(3, compute=2.0)]
        (f,) = self.flags_for(rows)
        assert f.cause == "unknown"

    def test_dominant_cause_counts_and_tie_break(self):
        rows = [row(0), row(1), row(2), row(3, jitter=2.0)]
        flags = self.flags_for(rows) * 3
        assert dominant_cause(flags) == ("jitter", 3)
        assert dominant_cause([]) is None


class TestRepartitionHint:
    def make_flags(self, cause, n):
        rows = {
            "jitter": [row(0), row(1), row(2), row(3, jitter=2.0)],
            "remote-traffic": [
                row(0), row(1), row(2),
                row(3, compute=0.2, network=1.5, remote=500, msgs_in=500),
            ],
        }[cause]
        return flag_stragglers_step(step(rows)) * n

    def test_hint_matches_cause(self):
        flags = self.make_flags("remote-traffic", 5)
        hint = repartition_hint(flags, num_steps=20)
        assert "min-cut" in hint
        jitter = repartition_hint(self.make_flags("jitter", 5), num_steps=20)
        assert "repartitioning will not help" in jitter

    def test_too_few_flags_yield_no_hint(self):
        flags = self.make_flags("remote-traffic", 1)
        assert repartition_hint(flags, num_steps=100) is None
        assert repartition_hint([], num_steps=10) is None


def jitter_job(graph, timeline=None, jitter_worker=2, **kw):
    model = dataclasses.replace(
        DEFAULT_PERF_MODEL, jitter=0.6, jitter_seed=11,
        jitter_workers=(jitter_worker,),
    )
    return JobSpec(
        program=PageRankProgram(10), graph=graph, num_workers=4,
        perf_model=model, timeline=timeline, **kw,
    )


class DieOnce(PageRankProgram):
    """PageRank whose worker holding vertex 0 exits in superstep 6, once."""

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


@pytest.fixture
def balanced_graph():
    # Near-uniform degrees, so injected jitter is the only asymmetry.
    return gen.watts_strogatz(240, 6, 0.1, seed=3)


class TestDiagnosticMonitor:
    def test_targeted_jitter_attributed_to_that_worker(self, balanced_graph):
        metrics, tracer = MetricsRegistry(), SpanTracer()
        monitor = DiagnosticMonitor()
        run_job(
            jitter_job(
                balanced_graph, metrics=metrics, tracer=tracer,
                observers=[monitor],
            )
        )
        assert monitor.flags, "0.6 jitter on one worker must flag"
        # The jittered worker dominates the flags and every one of its
        # flags carries the jitter attribution (other workers may pick up
        # the odd flag from residual graph imbalance).
        by_worker = [
            sum(f.worker == w for f in monitor.flags) for w in range(4)
        ]
        assert by_worker[2] == max(by_worker) > 0
        assert all(
            f.cause == "jitter" for f in monitor.flags if f.worker == 2
        )
        assert dominant_cause(monitor.flags)[0] == "jitter"
        # Flags export as a labelled counter and as trace events.
        c = metrics.get("repro_straggler_flags_total", cause="jitter")
        assert c is not None and c.value >= by_worker[2]
        events = tracer.named("straggler")
        assert len(events) == len(monitor.flags)
        assert monitor.skew_signal() > 1.0
        assert monitor.worst_flag().ratio == max(
            f.ratio for f in monitor.flags
        )

    def test_offline_attribution_agrees_with_online(self, balanced_graph):
        tl = RunTimeline()
        monitor = DiagnosticMonitor()
        run_job(jitter_job(balanced_graph, timeline=tl, observers=[monitor]))
        offline = attribute_run(tl)
        assert [(f.superstep, f.worker, f.cause) for f in offline] == [
            (f.superstep, f.worker, f.cause) for f in monitor.flags
        ]

    def test_rolled_back_flags_are_dropped(self):
        # Step 6's failure resumes from 5: the flags of the lost 5 and 6
        # must go, and the replayed steps flag afresh.
        model = dataclasses.replace(
            DEFAULT_PERF_MODEL, jitter=0.8, jitter_seed=3,
            jitter_workers=(1,),
        )
        tl, monitor = RunTimeline(), DiagnosticMonitor()
        res = run_job(
            JobSpec(
                program=PageRankProgram(12),
                graph=gen.watts_strogatz(400, 6, 0.3, seed=7),
                num_workers=4, perf_model=model, timeline=tl,
                observers=[monitor], checkpoint_interval=5,
                failure_schedule={6: 1},
            )
        )
        assert res.recoveries[0].resumed_from == 5
        steps = [f.superstep for f in monitor.flags]
        assert steps == sorted(set(steps)) and 5 in steps
        assert monitor.flags == attribute_run(tl)

    def test_unplanned_death_keeps_the_retried_steps_flags(
        self, balanced_graph, tmp_path
    ):
        # Worker death in step 6 resumes from 5; with this jitter seed
        # both the lost and the retried step 5 flag, and only the retried
        # one is in the timeline.
        model = dataclasses.replace(
            DEFAULT_PERF_MODEL, jitter=0.6, jitter_seed=9,
            jitter_workers=(2,),
        )
        tl, monitor = RunTimeline(), DiagnosticMonitor()
        res = run_job(
            JobSpec(
                program=DieOnce(10, str(tmp_path / "died")),
                graph=balanced_graph, num_workers=4, perf_model=model,
                timeline=tl, observers=[monitor], checkpoint_interval=5,
            ),
            engine="process",
        )
        assert res.recoveries and res.recoveries[0].resumed_from == 5
        # The offline pass has no degree shares, so causes may differ.
        live = [(f.superstep, f.worker, f.ratio) for f in monitor.flags]
        assert live == [
            (f.superstep, f.worker, f.ratio) for f in attribute_run(tl)
        ]
        assert [step for step, _, _ in live].count(5) == 1

    def test_quiet_run_stays_silent(self, small_world):
        monitor = DiagnosticMonitor()
        run_job(
            JobSpec(
                program=PageRankProgram(6), graph=small_world,
                num_workers=4, observers=[monitor],
            )
        )
        assert monitor.flags == []
        assert monitor.skew_signal() == pytest.approx(1.0, abs=0.3)


class TestCriticalPath:
    def test_phases_sum_to_pacing_decomposition(self, small_world):
        tl = RunTimeline()
        run_job(
            JobSpec(
                program=PageRankProgram(6), graph=small_world,
                num_workers=4, timeline=tl, checkpoint_interval=2,
            )
        )
        cp = critical_path(tl)
        assert cp["total"] == pytest.approx(tl.total_time)
        assert (
            cp["compute"] + cp["comm"] + cp["barrier"] + cp["overhead"]
            == pytest.approx(cp["total"], rel=1e-9)
        )
        assert cp["overhead"] > 0  # checkpoint writes land here
        assert 0 < cp["utilization"] <= 1
        assert cp["skew_wait"] >= 0

    def test_worker_skew_totals(self, small_world):
        tl = RunTimeline()
        run_job(
            JobSpec(
                program=PageRankProgram(6), graph=small_world,
                num_workers=4, timeline=tl,
            )
        )
        skew = worker_skew(tl)
        assert skew["elapsed"].shape == (4,)
        assert skew["msgs_out"].sum() == tl.total_messages

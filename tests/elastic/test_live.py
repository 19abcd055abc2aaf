"""Live elastic scaling: correctness invariance and accounting."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms import (
    BCProgram,
    PageRankProgram,
    betweenness_reference,
    pagerank_reference,
)
from repro.algorithms.pagerank_convergent import ConvergentPageRankProgram
from repro.algorithms import bc as bc_mod
from repro.bsp import JobSpec, run_job
from repro.bsp.engine import BSPEngine
from repro.cloud.costmodel import SCALED_PERF_MODEL
from repro.elastic import (
    ActiveFractionPolicy,
    AlignedTraces,
    ElasticityModel,
    ElasticResizer,
    FixedWorkers,
    OraclePolicy,
    ScalingPolicy,
)
from repro.graph import generators as gen
from repro.partition import HashPartitioner
from repro.partition.dynamic import DynamicRepartitioner
from repro.scheduling import StaticSizer, SwathController


class _Thrash(ActiveFractionPolicy):
    """The 50% heuristic fed an activity that always wants the other
    fleet, so only its cooldown holds a fleet."""

    def choose(self, ctx):
        busy = int(ctx.workers == ctx.low)
        return super().choose(replace(ctx, active_vertices=busy, max_active=1))


class _EveryStepToggle(ScalingPolicy):
    """Policy that alternates fleet size every superstep (stress case)."""

    def choose(self, ctx):
        return ctx.high if ctx.workers == ctx.low else ctx.low


def resized(job, policy, low=4, high=8):
    """Run ``job`` under an :class:`ElasticResizer`; returns it and the result."""
    resizer = ElasticResizer(policy, low, high)
    job.observers = [*job.observers, resizer]
    return resizer, run_job(job)


@pytest.fixture
def graph():
    return gen.watts_strogatz(60, 4, 0.3, seed=7)


def bc_job(graph, roots, **kw):
    return JobSpec(
        program=BCProgram(), graph=graph, num_workers=4,
        initially_active=False,
        initial_messages=bc_mod.start_messages(roots),
        **kw,
    )


class TestCorrectnessInvariance:
    def test_pagerank_identical_under_scaling(self, graph):
        job = JobSpec(program=PageRankProgram(12), graph=graph, num_workers=4)
        _, res = resized(job, _EveryStepToggle())
        ref = pagerank_reference(graph, iterations=12)
        assert np.allclose(res.values_array(), ref, atol=1e-10)

    def test_bc_identical_under_scaling(self, graph):
        roots = range(8)
        _, res = resized(bc_job(graph, roots), _EveryStepToggle(), 2, 6)
        ref = betweenness_reference(graph, roots=roots)
        assert np.allclose(res.values_array(), ref, atol=1e-9)

    def test_bc_with_swath_controller_and_scaling(self, graph):
        roots = list(range(10))
        ctrl = SwathController(
            roots=roots, start_factory=bc_mod.start_messages,
            sizer=StaticSizer(4),
        )
        job = JobSpec(
            program=BCProgram(), graph=graph, num_workers=4,
            initially_active=False, observers=[ctrl],
        )
        _, res = resized(job, _EveryStepToggle(), 3, 5)
        ref = betweenness_reference(graph, roots=roots)
        assert np.allclose(res.values_array(), ref, atol=1e-9)
        assert ctrl.completed_all

    def test_fixed_policy_equals_plain_engine(self, graph):
        job1 = JobSpec(program=PageRankProgram(8), graph=graph, num_workers=4)
        job2 = JobSpec(program=PageRankProgram(8), graph=graph, num_workers=4)
        _, live = resized(job1, FixedWorkers(4))
        plain = run_job(job2)
        assert live.values == plain.values
        assert live.total_time == pytest.approx(plain.total_time)

    def test_message_totals_preserved_across_scaling(self, graph):
        roots = range(6)
        _, live = resized(bc_job(graph, roots), _EveryStepToggle(), 2, 7)
        plain = run_job(bc_job(graph, roots))
        # Local/remote split changes with the fleet; totals must not.
        assert live.trace.total_messages == plain.trace.total_messages


class TestMechanics:
    def test_fleet_actually_changes(self, graph):
        job = JobSpec(program=PageRankProgram(10), graph=graph, num_workers=4)
        resizer, res = resized(job, _EveryStepToggle())
        widths = {s.num_workers for s in res.trace}
        assert widths == {4, 8}
        assert len(resizer.scale_events) >= 5

    def test_scaling_charges_time_and_money(self, graph):
        job1 = JobSpec(program=PageRankProgram(10), graph=graph, num_workers=4)
        job2 = JobSpec(program=PageRankProgram(10), graph=graph, num_workers=4)
        resizer, live = resized(job1, _EveryStepToggle())
        plain = run_job(job2)
        assert resizer.scale_overhead_total > 0
        assert live.total_time > plain.total_time  # paid for the thrashing

    def test_migration_counts_recorded(self, graph):
        job = JobSpec(program=PageRankProgram(6), graph=graph, num_workers=4)
        resizer, _ = resized(job, _EveryStepToggle())
        # Hash partitions for 4 vs 8 differ for most vertices.
        ev = resizer.scale_events[0]
        assert ev.old_workers == 4 and ev.new_workers == 8
        assert ev.overhead_seconds > 0

    def test_cooldown_suppresses_thrash(self, graph):
        job = JobSpec(program=PageRankProgram(12), graph=graph, num_workers=4)
        policy = ActiveFractionPolicy(0.5, cooldown=100)
        resizer, _ = resized(job, policy)
        assert len(resizer.scale_events) <= 1

    def test_oracle_refused_before_any_resize(self, graph):
        job = JobSpec(program=PageRankProgram(4), graph=graph, num_workers=4)
        resizer = ElasticResizer(OraclePolicy(), 4, 8)
        job.observers = [resizer]
        with pytest.raises(ValueError, match="measured times"):
            run_job(job)
        assert resizer.scale_events == []

    def test_fleet_sizes_validated(self):
        with pytest.raises(ValueError, match="low < high"):
            ElasticResizer(FixedWorkers(4), 8, 4)

    def test_invalid_policy_size_rejected(self, graph):
        class Bad(ScalingPolicy):
            def choose(self, ctx):
                return 0

        job = JobSpec(program=PageRankProgram(4), graph=graph, num_workers=2)
        with pytest.raises(ValueError, match="fleet size 0 outside"):
            resized(job, Bad(), 2, 4)

    def test_failure_injection_incompatible(self, graph):
        job = JobSpec(
            program=PageRankProgram(4), graph=graph, num_workers=2,
            checkpoint_interval=2, failure_schedule={1: 0},
        )
        with pytest.raises(ValueError, match="failure injection"):
            resized(job, FixedWorkers(2), 2, 4)

    def test_migrate_refuses_a_partition_of_another_graph(self, graph):
        other = gen.watts_strogatz(30, 4, 0.3, seed=7)
        job = JobSpec(program=PageRankProgram(4), graph=graph, num_workers=4)
        engine = BSPEngine(job)
        before = engine.partition
        with pytest.raises(ValueError, match="does not cover the graph"):
            engine.migrate(HashPartitioner().partition(other, 8))
        assert engine.partition is before and engine.num_workers == 4

    @pytest.mark.parametrize("engine", ["dense-ref", "process"])
    @pytest.mark.parametrize("policy", ["resize", "repartition"])
    def test_refused_where_workers_cannot_migrate(self, graph, engine, policy):
        observer = (
            ElasticResizer(_EveryStepToggle(), 2, 4)
            if policy == "resize" else DynamicRepartitioner(interval=1)
        )
        job = JobSpec(
            program=PageRankProgram(4), graph=graph, num_workers=2,
            observers=[observer],
        )
        # Refused before superstep 0: no shard or session ever starts.
        with pytest.raises(ValueError, match="cannot migrate vertices"):
            run_job(job, engine=engine)

    def test_no_resize_on_the_halting_boundary(self):
        # The master halts at superstep 48; a resize there would be billed
        # to a job that is already over.
        g = gen.watts_strogatz(200, 6, 0.2, seed=3)
        job = JobSpec(program=ConvergentPageRankProgram(), graph=g, num_workers=3)
        resizer, res = resized(job, _EveryStepToggle(), 3, 5)
        assert res.supersteps == 49
        assert len(resizer.scale_events) == 48
        assert resizer.scale_events[-1].superstep == 47
        # the correctly rounded (math.fsum) total of the 49 steps
        assert res.total_time == 2404.8428858


class TestCooldown:
    """One policy object, one cooldown, in a live run and a projection:
    after the first step every fleet runs exactly ``k`` supersteps."""

    @staticmethod
    def fleet_runs(widths):
        return [len(list(g)) for _, g in itertools.groupby(widths[1:])]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_resizer_holds_each_fleet_for_k_steps(self, graph, k):
        job = JobSpec(program=PageRankProgram(12), graph=graph, num_workers=4)
        _, res = resized(job, _Thrash(cooldown=k))
        widths = [s.num_workers for s in res.trace]
        runs = self.fleet_runs(widths)
        assert widths[:2] == [4, 8] and len(runs) > 2
        assert runs[:-1] == [k] * (len(runs) - 1) and runs[-1] <= k

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_projection_holds_each_fleet_for_k_steps(self, k):
        n = 12
        traces = AlignedTraces(
            low=4, high=8, time_low=np.ones(n), time_high=np.ones(n),
            active=np.full(n, 10), num_graph_vertices=100,
        )
        widths = ElasticityModel(traces).evaluate(_Thrash(cooldown=k)).workers
        runs = self.fleet_runs(widths.tolist())
        assert widths[0] == 8 and len(runs) > 2
        assert runs[:-1] == [k] * (len(runs) - 1) and runs[-1] <= k


class TestPolicyInALiveRun:
    def test_active_fraction_scales_out_at_peak(self, graph):
        roots = range(12)
        job = bc_job(graph, roots, perf_model=SCALED_PERF_MODEL)
        policy = ActiveFractionPolicy(0.5, cooldown=1)
        resizer, res = resized(job, policy)
        assert resizer.scale_events  # it did react
        # High-fleet supersteps are the high-activity ones on average.
        active = res.trace.series_active_vertices().astype(float)
        widths = np.array([s.num_workers for s in res.trace], dtype=float)
        if (widths == 8).any() and (widths == 4).any():
            assert active[widths == 8].mean() > active[widths == 4].mean()

    def test_labels(self):
        assert "Fixed-4" == FixedWorkers(4).label
        assert "Dynamic(50% of peak)" == ActiveFractionPolicy().label
        assert "cooldown 2" in ActiveFractionPolicy(cooldown=2).label

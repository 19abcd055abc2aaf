"""Elastic scaling: policies, extrapolation model, Fig. 16 reporting."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cloud import LARGE_VM, PerfModel
from repro.elastic import (
    ActiveFractionPolicy,
    AlignedTraces,
    ElasticityModel,
    FixedWorkers,
    OraclePolicy,
    ScalingContext,
    ScalingPolicy,
    normalize_outcomes,
)


def traces(time_low, time_high, active, low=4, high=8, n_vertices=100):
    return AlignedTraces(
        low=low, high=high,
        time_low=np.asarray(time_low, dtype=float),
        time_high=np.asarray(time_high, dtype=float),
        active=np.asarray(active, dtype=np.int64),
        num_graph_vertices=n_vertices,
    )


@pytest.fixture
def simple_traces():
    # Peak at step 1 (8 workers superlinear), tail at steps 2-3 (4 faster).
    return traces(
        time_low=[10.0, 100.0, 4.0, 4.0],
        time_high=[8.0, 20.0, 5.0, 5.0],
        active=[50, 100, 10, 5],
    )


class TestAlignedTraces:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            traces([1, 2], [1], [1, 1])

    def test_low_ge_high_rejected(self):
        with pytest.raises(ValueError):
            traces([1], [1], [1], low=8, high=4)

    def test_from_traces_rejects_mismatched_runs(self):
        from repro.bsp.superstep import JobTrace, SuperstepStats

        a, b = JobTrace(), JobTrace()
        a.append(SuperstepStats(index=0, num_workers=4))
        with pytest.raises(ValueError, match="lengths differ"):
            AlignedTraces.from_traces(a, b, 4, 8, 10)


class TestPolicies:
    def ctx(self, **kw):
        defaults = dict(
            step=0, active_vertices=50, max_active=100, num_graph_vertices=200,
            time_low=10.0, time_high=5.0, low=4, high=8, workers=4,
        )
        defaults.update(kw)
        return ScalingContext(**defaults)

    def test_fixed(self):
        assert FixedWorkers(4).choose(self.ctx()) == 4
        assert FixedWorkers(8).choose(self.ctx()) == 8

    def test_fixed_outside_measured_sizes(self):
        with pytest.raises(ValueError):
            FixedWorkers(6).choose(self.ctx())

    def test_fixed_validation(self):
        with pytest.raises(ValueError):
            FixedWorkers(0)

    def test_active_fraction_peak_reference(self):
        p = ActiveFractionPolicy(0.5, reference="peak")
        assert p.choose(self.ctx(active_vertices=50, max_active=100)) == 8
        assert p.choose(self.ctx(active_vertices=49, max_active=100)) == 4

    def test_active_fraction_graph_reference(self):
        p = ActiveFractionPolicy(0.25, reference="graph")
        assert p.choose(self.ctx(active_vertices=50, num_graph_vertices=200)) == 8
        assert p.choose(self.ctx(active_vertices=49, num_graph_vertices=200)) == 4

    def test_active_fraction_validation(self):
        with pytest.raises(ValueError):
            ActiveFractionPolicy(0.0)
        with pytest.raises(ValueError):
            ActiveFractionPolicy(0.5, reference="swath")

    def test_oracle_picks_faster_side(self):
        p = OraclePolicy()
        assert p.choose(self.ctx(time_low=10.0, time_high=5.0)) == 8
        assert p.choose(self.ctx(time_low=5.0, time_high=10.0)) == 4

    def test_oracle_needs_measured_times(self):
        with pytest.raises(ValueError, match="measured times"):
            OraclePolicy().choose(self.ctx(time_low=None, time_high=None))

    def test_active_fraction_holds_the_fleet_through_its_cooldown(self):
        p = ActiveFractionPolicy(0.5, cooldown=2)
        busy = self.ctx(active_vertices=100, workers=4)
        assert p.choose(busy) == 8  # the fleet has not changed yet
        assert p.choose(replace(busy, steps_since_change=1)) == 4
        assert p.choose(replace(busy, steps_since_change=2)) == 8

    def test_cooldown_validation(self):
        with pytest.raises(ValueError):
            ActiveFractionPolicy(0.5, cooldown=-1)

    def test_zero_max_active(self):
        p = ActiveFractionPolicy(0.5)
        assert p.choose(self.ctx(active_vertices=0, max_active=0)) == 4


class TestElasticityModel:
    def test_speedup_series(self, simple_traces):
        em = ElasticityModel(simple_traces)
        assert em.speedup_series().tolist() == [1.25, 5.0, 0.8, 0.8]

    def test_fixed_outcomes_sum_measured_times(self, simple_traces):
        em = ElasticityModel(simple_traces)
        assert em.evaluate(FixedWorkers(4)).total_time == pytest.approx(118.0)
        assert em.evaluate(FixedWorkers(8)).total_time == pytest.approx(38.0)

    def test_oracle_bounds_every_policy(self, simple_traces):
        em = ElasticityModel(simple_traces)
        oracle = em.evaluate(OraclePolicy()).total_time
        for p in (FixedWorkers(4), FixedWorkers(8), ActiveFractionPolicy(0.5)):
            assert oracle <= em.evaluate(p).total_time + 1e-12

    def test_dynamic_beats_fixed4_on_peaky_traces(self, simple_traces):
        em = ElasticityModel(simple_traces)
        dyn = em.evaluate(ActiveFractionPolicy(0.5))
        assert dyn.total_time < em.evaluate(FixedWorkers(4)).total_time
        # Chose 8 only at the peak: cheaper than fixed 8.
        assert dyn.cost < em.evaluate(FixedWorkers(8)).cost

    def test_cost_accounting(self, simple_traces):
        em = ElasticityModel(simple_traces)
        out = em.evaluate(FixedWorkers(4))
        assert out.vm_seconds == pytest.approx(4 * 118.0)
        assert out.cost == pytest.approx(4 * 118.0 * LARGE_VM.price_per_second)

    def test_scaling_overheads_add_time_and_cost(self, simple_traces):
        m = PerfModel()
        plain = ElasticityModel(simple_traces).evaluate(ActiveFractionPolicy(0.5))
        loaded = ElasticityModel(simple_traces, perf_model=m).evaluate(
            ActiveFractionPolicy(0.5))
        assert loaded.total_time > plain.total_time
        assert loaded.cost > plain.cost
        assert loaded.num_scale_events == plain.num_scale_events > 0

    def test_perf_model_prices_each_change_like_the_provisioner(
        self, simple_traces
    ):
        class FlipFlop(ScalingPolicy):
            def choose(self, ctx):
                return (8, 4, 8, 4)[ctx.step]

        m = PerfModel(provision_delay=7.0, release_delay=3.0)
        plain = ElasticityModel(simple_traces).evaluate(FlipFlop())
        out = ElasticityModel(simple_traces, perf_model=m).evaluate(FlipFlop())
        # In at step 1, out at 2, in at 3: the delays ElasticProvisioner
        # charges, and the larger fleet of each change billed through them.
        assert out.scaling_overhead == 3.0 + 7.0 + 3.0
        assert out.overhead_vm_seconds == 8 * 3.0 + 8 * 7.0 + 8 * 3.0
        assert out.total_time == plain.total_time + 13.0
        assert out.vm_seconds == plain.vm_seconds + 104.0
        assert plain.scaling_overhead == plain.overhead_vm_seconds == 0.0
        assert out.num_scale_events == 3

    def test_policy_choosing_invalid_size_rejected(self, simple_traces):
        class Weird(FixedWorkers):
            def choose(self, ctx):
                return 6

        em = ElasticityModel(simple_traces)
        with pytest.raises(ValueError):
            em.evaluate(Weird(4))


class TestReporting:
    def test_normalization(self, simple_traces):
        em = ElasticityModel(simple_traces)
        outs = em.evaluate_all(
            [FixedWorkers(4), FixedWorkers(8), ActiveFractionPolicy(0.5), OraclePolicy()]
        )
        rows = normalize_outcomes(outs, "Fixed-4")
        base = rows[0]
        assert base.norm_time == pytest.approx(1.0)
        assert base.norm_cost == pytest.approx(1.0)
        # Fixed-8 burns 2x the VM-seconds per wall second.
        assert rows[1].norm_cost / rows[1].norm_time == pytest.approx(2.0)

    def test_missing_baseline_raises(self, simple_traces):
        em = ElasticityModel(simple_traces)
        outs = [em.evaluate(FixedWorkers(8))]
        with pytest.raises(ValueError):
            normalize_outcomes(outs, "Fixed-4")

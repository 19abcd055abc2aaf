"""Elastic provisioner accounting, and the trace rows that bill it."""

import pytest

from repro.algorithms import PageRankProgram
from repro.bsp import JobSpec, run_job
from repro.cloud import ElasticProvisioner, PerfModel
from repro.elastic import ElasticResizer, ScalingPolicy
from repro.graph import generators as gen


class _Toggle(ScalingPolicy):
    """Alternate the fleet between ``low`` and ``high`` every superstep."""

    def choose(self, ctx):
        return ctx.high if ctx.workers == ctx.low else ctx.low


class TestElasticProvisioner:
    @pytest.fixture
    def prov(self):
        return ElasticProvisioner(model=PerfModel(), workers=4)

    def test_scale_out_charges_provision_delay(self, prov):
        overhead = prov.scale_to(8, superstep=3)
        assert overhead == pytest.approx(PerfModel().provision_delay)
        assert prov.workers == 8
        assert prov.events[0].new_workers == 8

    def test_scale_in_charges_release_delay(self, prov):
        prov.scale_to(8, superstep=1)
        overhead = prov.scale_to(4, superstep=2)
        assert overhead == pytest.approx(PerfModel().release_delay)

    def test_migration_cost_scales_with_vertices(self, prov):
        m = PerfModel()
        o = prov.scale_to(8, superstep=0, vertices_moved=1_000_000)
        assert o == pytest.approx(m.provision_delay + m.migrate_per_vertex * 1e6)

    def test_noop_scale_free(self, prov):
        assert prov.scale_to(4, superstep=0) == 0.0
        assert not prov.events

    def test_invalid_worker_counts(self, prov):
        with pytest.raises(ValueError):
            prov.scale_to(0, superstep=0)
        with pytest.raises(ValueError):
            ElasticProvisioner(model=PerfModel(), workers=0)

    def test_only_scale_out_holds_extra_vms(self, prov):
        prov.scale_to(8, superstep=0)
        prov.scale_to(4, superstep=1)
        grow, shrink = prov.events
        # 4 new VMs billed during the provisioning delay; a drain is
        # covered by the old fleet the step already bills.
        assert grow.extra_vm_seconds == 4 * grow.overhead_seconds
        assert shrink.extra_vm_seconds == 0.0

    def test_scaling_overhead_is_billed(self):
        resizer = ElasticResizer(_Toggle(), low=4, high=8)
        job = JobSpec(
            program=PageRankProgram(6),
            graph=gen.watts_strogatz(60, 4, 0.3, seed=7), num_workers=4,
            observers=[resizer],
        )
        res = run_job(job)
        # Each resize stalls the step it follows; that row bills the
        # overhead on its old fleet plus the VMs a scale-out boots.
        rows = {s.index: s for s in res.trace}
        assert len(resizer.scale_events) >= 4
        for event in resizer.scale_events:
            row = rows[event.superstep]
            assert row.num_workers == event.old_workers
            assert row.extra_vm_seconds == event.extra_vm_seconds
            proper = row.slowest_busy + row.barrier_time + row.restart_time
            assert row.elapsed == pytest.approx(
                proper + event.overhead_seconds, rel=1e-12
            )
        assert any(row.extra_vm_seconds > 0 for row in res.trace)

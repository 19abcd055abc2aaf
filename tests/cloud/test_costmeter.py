"""Dollar attribution: step_cost arithmetic, attribute_cost invariants
(per-step sums == total), the live repro_cost_* gauges of the telemetry
spine, and the JobResult.cost surfacing across engines."""

from types import SimpleNamespace

import pytest

from repro.analysis import RunConfig, run_pagerank
from repro.bsp.engine import SuperstepObserver
from repro.cloud import attribute_cost, step_cost
from repro.cloud.specs import GB, LARGE_VM, SMALL_VM, VMSpec
from repro.obs import MetricsRegistry


def fake_trace(steps):
    """JobTrace-shaped source: [(num_workers, elapsed, [bytes_out...])]."""
    out = []
    for i, (n, elapsed, outs) in enumerate(steps):
        out.append(SimpleNamespace(
            index=i,
            num_workers=n,
            elapsed=elapsed,
            extra_vm_seconds=0.0,
            workers=[
                SimpleNamespace(worker=w, elapsed=elapsed, bytes_out=b)
                for w, b in enumerate(outs)
            ],
        ))
    return SimpleNamespace(steps=out)


class TestStepCost:
    def test_egress_dollars_per_gb(self):
        _, _, egress = step_cost(LARGE_VM, SMALL_VM, 1, 0.0, 2 * GB)
        assert egress == pytest.approx(0.24)

    def test_extra_vm_seconds_bill_at_the_worker_rate(self):
        plain, _, _ = step_cost(LARGE_VM, SMALL_VM, 4, 10.0, 0)
        grown, manager, _ = step_cost(LARGE_VM, SMALL_VM, 4, 10.0, 0, 25.0)
        assert grown == pytest.approx(plain + 25.0 * LARGE_VM.price_per_second)
        # A zero extra leaves the bill bit-identical.
        assert step_cost(LARGE_VM, SMALL_VM, 4, 10.0, 0, 0.0)[0] == plain
        assert manager == 10.0 * SMALL_VM.price_per_second


class TestAttributeCost:
    def test_components_add_up(self):
        trace = fake_trace([
            (2, 10.0, [GB, 0]),
            (2, 30.0, [0, 2 * GB]),
        ])
        rep = attribute_cost(trace)
        w, m = LARGE_VM.price_per_hour / 3600, SMALL_VM.price_per_hour / 3600
        assert rep.compute == pytest.approx(2 * 40.0 * w)
        assert rep.manager == pytest.approx(40.0 * m)
        assert rep.egress == pytest.approx(3 * 0.12)
        assert rep.total == pytest.approx(
            rep.compute + rep.manager + rep.egress
        )
        assert rep.worker_spec == LARGE_VM.name

    def test_per_step_sums_exactly_to_total(self):
        trace = fake_trace([
            (3, 7.3, [100, 200, 300]),
            (3, 1.9, [0, 0, 0]),
            (2, 11.1, [5_000_000, 0]),
        ])
        rep = attribute_cost(trace)
        assert sum(s["total"] for s in rep.per_step) == pytest.approx(
            rep.total, rel=1e-12
        )

    def test_per_worker_billed_for_full_steps_plus_own_egress(self):
        trace = fake_trace([(2, 10.0, [GB, 0]), (2, 5.0, [0, 0])])
        rep = attribute_cost(trace)
        w_rate = LARGE_VM.price_per_hour / 3600
        by_worker = {e["worker"]: e for e in rep.per_worker}
        assert by_worker[0]["billed_seconds"] == pytest.approx(15.0)
        assert by_worker[0]["egress"] == pytest.approx(0.12)
        assert by_worker[1]["egress"] == 0.0
        assert by_worker[0]["total"] == pytest.approx(
            15.0 * w_rate + 0.12
        )

    def test_rejects_unknown_source_shape(self):
        with pytest.raises(TypeError):
            attribute_cost(object())

    def test_summary_and_dict_roundtrip(self):
        rep = attribute_cost(fake_trace([(1, 2.0, [0])]))
        assert "total" in rep.summary() and "$" in rep.summary()
        d = rep.to_dict()
        assert d["total"] == rep.total
        assert len(d["per_step"]) == 1


class TestCostGauges:
    """The spine's metrics adapter prices each closed step into gauges."""

    def test_gauges_track_attribution(self, small_world):
        reg = MetricsRegistry()
        res = run_pagerank(
            small_world, RunConfig(num_workers=3, metrics=reg), iterations=5
        )
        rep = res.cost
        assert reg.gauge("repro_cost_total_dollars").value == rep.total
        for part in ("compute", "manager", "egress"):
            assert reg.gauge(f"repro_cost_{part}_dollars").value == (
                getattr(rep, part)
            )
        assert reg.gauge("repro_cost_superstep_dollars").value == (
            rep.per_step[-1]["total"]
        )

    def test_gauges_match_job_result_cost_live(self, small_world):
        # Scrape mid-run: the gauge climbs step by step and ends on the
        # post-hoc attribution the engine puts on the result.
        reg = MetricsRegistry()
        seen = []

        class Scrape(SuperstepObserver):
            def on_superstep_end(self, engine, stats):
                seen.append(reg.gauge("repro_cost_total_dollars").value)

        res = run_pagerank(
            small_world, RunConfig(num_workers=3, metrics=reg), iterations=5,
            observers=[Scrape()],
        )
        assert res.cost is not None
        assert seen == sorted(seen) and seen[-1] < res.cost.total
        assert reg.gauge("repro_cost_total_dollars").value == res.cost.total
        # acceptance bound: per-step attribution sums to within 1% of
        # the whole-run cost from the same pricing table (here: exact)
        assert sum(s["total"] for s in res.cost.per_step) == pytest.approx(
            res.cost.total, rel=0.01
        )


class TestJobResultCost:
    @pytest.mark.parametrize("engine", ["sim", "process"])
    def test_every_engine_attaches_cost(self, small_world, engine):
        res = run_pagerank(
            small_world, RunConfig(num_workers=2, engine=engine),
            iterations=4,
        )
        assert res.cost is not None
        assert res.cost.total > 0
        assert len(res.cost.per_step) == res.supersteps
        assert {e["worker"] for e in res.cost.per_worker} == {0, 1}

    def test_custom_vm_spec_changes_the_bill(self, small_world):
        cheap = VMSpec(
            name="cheap", cores=1, memory_bytes=1 << 30,
            network_bytes_per_s=1e9, price_per_hour=0.01,
        )
        base = run_pagerank(
            small_world, RunConfig(num_workers=2), iterations=3
        )
        tiny = run_pagerank(
            small_world,
            RunConfig(num_workers=2, vm_spec=cheap),
            iterations=3,
        )
        assert tiny.cost.total < base.cost.total
        assert tiny.cost.worker_spec == "cheap"

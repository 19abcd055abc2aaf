"""Dollar attribution: PriceBook arithmetic, attribute_cost invariants
(per-step sums == total, exactly, grain included), the live CostMeter
gauges, and the JobResult.cost surfacing across engines."""

from types import SimpleNamespace

import pytest

from repro.analysis import RunConfig, run_pagerank
from repro.cloud import (
    DEFAULT_PRICES,
    CostMeter,
    PriceBook,
    attribute_cost,
)
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
            workers=[
                SimpleNamespace(worker=w, elapsed=elapsed, bytes_out=b)
                for w, b in enumerate(outs)
            ],
        ))
    return SimpleNamespace(steps=out)


class TestPriceBook:
    def test_rate_prefers_override_then_spec(self):
        book = PriceBook(instance_rates={"azure-large": 7.2})
        assert book.rate_per_second(LARGE_VM) == pytest.approx(7.2 / 3600)
        assert book.rate_per_second(SMALL_VM) == pytest.approx(
            SMALL_VM.price_per_hour / 3600
        )

    def test_egress_dollars_per_gb(self):
        assert PriceBook(egress_per_gb=0.12).egress_cost(2 * GB) == (
            pytest.approx(0.24)
        )

    def test_billing_grain_rounds_up(self):
        book = PriceBook(billing_grain_seconds=3600.0)
        assert book.billed_duration(1.0) == 3600.0
        assert book.billed_duration(3600.0) == 3600.0
        assert book.billed_duration(3600.1) == 7200.0
        assert PriceBook().billed_duration(17.3) == 17.3


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
        assert rep.rounding == 0.0
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

    def test_grain_surcharge_distributed_pro_rata(self):
        trace = fake_trace([(2, 100.0, [0, 0]), (2, 300.0, [0, 0])])
        book = PriceBook(billing_grain_seconds=3600.0)
        rep = attribute_cost(trace, prices=book)
        # 400s of run billed as 3600s for 1 manager + 2 workers
        w, m = LARGE_VM.price_per_hour / 3600, SMALL_VM.price_per_hour / 3600
        assert rep.rounding == pytest.approx(3200.0 * (m + 2 * w))
        shares = [s["rounding"] for s in rep.per_step]
        assert shares[1] == pytest.approx(3 * shares[0])
        # the invariant the module promises: exact, grain included
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


class TestCostMeter:
    def _engine(self, workers=2):
        return SimpleNamespace(
            vm_spec=LARGE_VM,
            job=SimpleNamespace(manager_vm=SMALL_VM),
            num_workers=workers,
        )

    def _stats(self, n, elapsed, outs, index=0):
        return SimpleNamespace(
            index=index,
            num_workers=n,
            elapsed=elapsed,
            workers=[
                SimpleNamespace(worker=w, elapsed=elapsed, bytes_out=b)
                for w, b in enumerate(outs)
            ],
        )

    def test_gauges_track_attribution(self):
        reg = MetricsRegistry()
        meter = CostMeter(reg)
        engine = self._engine()
        meter.on_job_start(engine)
        meter.on_superstep_end(engine, self._stats(2, 10.0, [GB, 0]))
        meter.on_superstep_end(engine, self._stats(2, 30.0, [0, 2 * GB]))
        meter.on_job_end(engine, None)
        rep = attribute_cost(fake_trace([
            (2, 10.0, [GB, 0]), (2, 30.0, [0, 2 * GB]),
        ]))
        assert meter.total == pytest.approx(rep.total)
        g = reg.gauge("repro_cost_total_dollars")
        assert g.value == pytest.approx(rep.total)
        assert reg.gauge("repro_cost_egress_dollars").value == (
            pytest.approx(rep.egress)
        )

    def test_finalize_adds_grain_surcharge_once(self):
        reg = MetricsRegistry()
        book = PriceBook(billing_grain_seconds=60.0)
        meter = CostMeter(reg, prices=book)
        engine = self._engine()
        meter.on_superstep_end(engine, self._stats(2, 10.0, [0, 0]))
        before = meter.total
        meter.on_job_end(engine, None)
        rep = attribute_cost(fake_trace([(2, 10.0, [0, 0])]), prices=book)
        assert meter.total > before
        assert meter.total == pytest.approx(rep.total)

    def test_meter_matches_job_result_cost_live(self, small_world):
        # Ride the meter along a real run; its live total must agree
        # with the post-hoc attribution the engine puts on the result.
        reg = MetricsRegistry()
        meter = CostMeter(reg)
        res = run_pagerank(
            small_world, RunConfig(num_workers=3), iterations=5,
            observers=[meter],
        )
        assert res.cost is not None
        assert meter.total == pytest.approx(res.cost.total, rel=1e-9)
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

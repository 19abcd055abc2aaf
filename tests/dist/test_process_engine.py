"""ProcessBSPEngine: bit-equality with the sequential engine, transport
metrics, span/violation marshalling, and failure modes of live children."""

import numpy as np
import pytest

from repro.algorithms import BCProgram, PageRankProgram, betweenness_reference
from repro.algorithms import bc as bc_mod
from repro.analysis import RunConfig, run_pagerank, run_traversal
from repro.bsp import JobSpec, run_job
from repro.check.sanitizer import certify_determinism
from repro.dist import ChildError, ProcessBSPEngine
from repro.obs import MetricsRegistry, SpanTracer, to_json_dict


def pr_job(graph, **kw):
    return JobSpec(
        program=PageRankProgram(8), graph=graph, num_workers=4, **kw
    )


class TestEquivalence:
    def test_pagerank_identical(self, small_world):
        seq = run_job(pr_job(small_world))
        proc = run_job(pr_job(small_world), engine="process")
        assert seq.values == proc.values
        assert seq.supersteps == proc.supersteps
        assert seq.total_time == pytest.approx(proc.total_time)
        assert (
            seq.trace.series_messages().tolist()
            == proc.trace.series_messages().tolist()
        )

    def test_bc_identical(self, small_world):
        roots = range(6)
        mk = lambda: JobSpec(
            program=BCProgram(), graph=small_world, num_workers=3,
            initially_active=False,
            initial_messages=bc_mod.start_messages(roots),
        )
        seq = run_job(mk())
        proc = run_job(mk(), engine="process")
        assert seq.values == proc.values
        ref = betweenness_reference(small_world, roots=roots)
        assert np.allclose(proc.values_array(), ref, atol=1e-9)

    def test_repeated_runs_deterministic(self, ring10):
        runs = [
            run_job(pr_job(ring10), engine="process").values_array()
            for _ in range(2)
        ]
        assert np.array_equal(runs[0], runs[1])

    def test_certify_determinism_process(self, small_world):
        report = certify_determinism(
            lambda: PageRankProgram(6), small_world, num_workers=4,
            engine="process",
        )
        assert report.ok
        assert report.engine == "process"

    def test_certify_determinism_unknown_engine(self, ring10):
        with pytest.raises(ValueError, match="unknown engine"):
            certify_determinism(
                lambda: PageRankProgram(2), ring10, engine="fpga"
            )


class TestRunnerIntegration:
    def test_run_pagerank_engine_process(self, small_world):
        cfg_sim = RunConfig(num_workers=4)
        cfg_proc = RunConfig(num_workers=4, engine="process")
        sim = run_pagerank(small_world, cfg_sim, iterations=6)
        proc = run_pagerank(small_world, cfg_proc, iterations=6)
        assert sim.values == proc.values

    def test_run_traversal_engine_process(self, small_world):
        sim = run_traversal(
            small_world, RunConfig(num_workers=3), range(4), kind="bc"
        )
        proc = run_traversal(
            small_world, RunConfig(num_workers=3, engine="process"),
            range(4), kind="bc",
        )
        assert sim.result.values == proc.result.values
        assert sim.num_swaths == proc.num_swaths

    def test_unknown_engine_rejected(self, ring10):
        with pytest.raises(ValueError, match="unknown engine"):
            run_pagerank(
                ring10, RunConfig(num_workers=2, engine="gpu"), iterations=2
            )


class TestTelemetry:
    def test_transport_and_worker_metrics(self, small_world):
        m_seq, m_proc = MetricsRegistry(), MetricsRegistry()
        run_job(pr_job(small_world, metrics=m_seq))
        run_job(pr_job(small_world, metrics=m_proc), engine="process")

        def series(reg, name):
            for metric in to_json_dict(reg)["metrics"]:
                if metric["name"] == name:
                    return metric["series"]
            return None

        frames = series(m_proc, "dist_frames_total")
        assert frames and frames[0]["value"] > 0
        assert series(m_proc, "dist_frame_bytes_total")[0]["value"] > 0
        assert series(m_proc, "dist_heartbeats_total") is not None
        assert series(m_proc, "dist_workers_alive")[0]["value"] == 4
        # Per-worker series, derived from the marshalled step stats, match.
        for name in (
            "bsp_worker_compute_calls_total",
            "bsp_worker_messages_in_total",
        ):
            totals = lambda reg: sorted(
                (tuple(sorted(s["labels"].items())), s["value"])
                for s in series(reg, name)
            )
            assert totals(m_proc) == totals(m_seq)

    def test_worker_compute_spans(self, ring10):
        tracer = SpanTracer()
        run_job(pr_job(ring10, tracer=tracer), engine="process")
        spans = [s for s in tracer.spans if s.name == "worker-compute"]
        assert spans
        assert {s.attrs["worker"] for s in spans} == {0, 1, 2, 3}
        assert all(s.host_duration >= 0 for s in spans)


class TestChildFailureModes:
    def test_compute_exception_surfaces_as_child_error(self, ring10):
        class Boom(PageRankProgram):
            def compute(self, ctx, state, messages):
                if ctx.superstep == 2 and ctx.vertex_id == 0:
                    raise RuntimeError("kaboom in child")
                return super().compute(ctx, state, messages)

        engine = ProcessBSPEngine(
            JobSpec(program=Boom(8), graph=ring10, num_workers=2)
        )
        with pytest.raises(ChildError, match="kaboom in child"):
            engine.run()
        # run() tears the fleet down even on error.
        assert all(not h.proc.is_alive() for h in engine._handles)

    def test_unplanned_death_without_checkpoints_raises(self, ring10):
        import os

        class Die(PageRankProgram):
            def compute(self, ctx, state, messages):
                if ctx.superstep == 2 and ctx.vertex_id == 0:
                    os._exit(1)
                return super().compute(ctx, state, messages)

        engine = ProcessBSPEngine(
            JobSpec(program=Die(8), graph=ring10, num_workers=2)
        )
        with pytest.raises(RuntimeError, match="checkpointing"):
            engine.run()


class TestConfigValidation:
    def test_bad_heartbeat_interval(self, ring10):
        with pytest.raises(ValueError, match="heartbeat_interval"):
            ProcessBSPEngine(pr_job(ring10), heartbeat_interval=0.0)

    def test_bad_heartbeat_timeout(self, ring10):
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            ProcessBSPEngine(
                pr_job(ring10), heartbeat_interval=1.0, heartbeat_timeout=0.5
            )

    def test_kill_worker_at_requires_checkpointing(self, ring10):
        engine = ProcessBSPEngine(pr_job(ring10))
        try:
            with pytest.raises(ValueError, match="checkpoint"):
                engine.kill_worker_at(1, 0)
        finally:
            engine.shutdown()

    def test_kill_worker_at_rejects_unknown_worker(self, ring10):
        engine = ProcessBSPEngine(pr_job(ring10, checkpoint_interval=2))
        try:
            with pytest.raises(ValueError, match="unknown worker"):
                engine.kill_worker_at(1, 99)
        finally:
            engine.shutdown()

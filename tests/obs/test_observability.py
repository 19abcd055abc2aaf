"""Observability threaded through the engine stack, end to end.

The structural claims: spans nest correctly and their simulated durations
sum exactly to the job's total time; the metrics registry agrees with the
trace; nothing about the run changes when no sink is attached.
"""

import io
import json

import numpy as np
import pytest

from repro.algorithms import PageRankProgram
from repro.analysis import RunConfig, run_pagerank, run_traversal
from repro.bsp import JobSpec, run_job
from repro.cli import main as cli_main
from repro.elastic import ElasticResizer, ScalingPolicy
from repro.graph import io as graph_io
from repro.obs import MetricsRegistry, RunReporter, SpanTracer
from repro.scheduling import StaticSizer


def run_instrumented(graph, iterations=8, workers=3):
    tracer = SpanTracer()
    metrics = MetricsRegistry()
    cfg = RunConfig(num_workers=workers, tracer=tracer, metrics=metrics)
    res = run_pagerank(graph, cfg, iterations=iterations)
    return res, tracer, metrics


class TestEngineSpans:
    def test_span_tree_shape(self, small_world):
        res, tracer, _ = run_instrumented(small_world)
        assert tracer.open_spans == 0
        jobs = tracer.named("job")
        steps = tracer.named("superstep")
        assert len(jobs) == 1
        assert len(steps) == res.supersteps
        assert all(s.parent == jobs[0].index for s in steps)
        assert all(s.closed for s in tracer.spans)
        # every superstep carries the inner phase spans
        for phase in ("compute", "flush", "barrier"):
            assert len(tracer.named(phase)) == res.supersteps

    def test_superstep_sim_durations_sum_to_total_time(self, small_world):
        res, tracer, _ = run_instrumented(small_world)
        total = tracer.total_sim("superstep")
        assert total == pytest.approx(res.trace.total_time, abs=1e-6)
        # and each superstep span matches its trace row exactly
        for span, stats in zip(tracer.named("superstep"), res.trace):
            assert span.sim_duration == pytest.approx(stats.elapsed, abs=1e-9)
            assert span.attrs["superstep"] == stats.index

    def test_barrier_spans_match_trace(self, small_world):
        res, tracer, _ = run_instrumented(small_world)
        assert tracer.total_sim("barrier") == pytest.approx(
            res.trace.total_barrier_time, abs=1e-9
        )

    def test_checkpoint_and_recovery_spans(self, small_world):
        tracer = SpanTracer()
        res = run_job(
            JobSpec(
                program=PageRankProgram(12), graph=small_world, num_workers=4,
                checkpoint_interval=4, failure_schedule={6: 2}, tracer=tracer,
            )
        )
        assert len(res.recoveries) == 1
        recoveries = tracer.named("recovery")
        assert len(recoveries) == 1
        assert recoveries[0].attrs["failed_worker"] == 2
        assert recoveries[0].attrs["resumed_from"] == 4
        assert recoveries[0].sim_duration > 0
        assert len(tracer.named("checkpoint")) >= 2
        # checkpoint + recovery overheads live inside their superstep spans,
        # so the sum-to-total invariant must still hold
        assert tracer.total_sim("superstep") == pytest.approx(
            res.trace.total_time, abs=1e-6
        )


class TestEngineMetrics:
    def test_registry_agrees_with_trace(self, small_world):
        res, _, metrics = run_instrumented(small_world)
        trace = res.trace
        assert metrics.get("bsp_supersteps_total").value == res.supersteps
        local = metrics.get("bsp_messages_total", kind="local").value
        remote = metrics.get("bsp_messages_total", kind="remote").value
        assert local + remote == trace.total_messages
        assert metrics.get("bsp_sim_time_seconds").value == pytest.approx(
            trace.total_time
        )
        assert metrics.get("bsp_barrier_sim_seconds_total").value == pytest.approx(
            trace.total_barrier_time
        )
        hist = metrics.get("bsp_superstep_sim_seconds")
        assert hist.count == res.supersteps
        assert hist.sum == pytest.approx(
            sum(s.elapsed for s in trace), abs=1e-6
        )

    def test_per_worker_counters_sum_to_totals(self, small_world):
        res, _, metrics = run_instrumented(small_world, workers=3)
        trace = res.trace
        total_calls = sum(w.compute_calls for s in trace for w in s.workers)
        per_worker = sum(
            metrics.get("bsp_worker_compute_calls_total", worker=str(w)).value
            for w in range(3)
        )
        assert per_worker == total_calls
        assert metrics.get("bsp_compute_calls_total").value == total_calls

    def test_process_engine_observes_host_durations(self, small_world):
        metrics = MetricsRegistry()
        job = JobSpec(
            program=PageRankProgram(6), graph=small_world, num_workers=3,
            metrics=metrics,
        )
        res = run_job(job, engine="process")
        hist = metrics.get("bsp_worker_compute_host_seconds")
        assert hist.count == res.supersteps * 3
        plain = run_job(
            JobSpec(program=PageRankProgram(6), graph=small_world, num_workers=3)
        )
        assert np.allclose(res.values_array(), plain.values_array())

    def test_swath_controller_metrics(self, small_world):
        metrics = MetricsRegistry()
        cfg = RunConfig(num_workers=3, metrics=metrics)
        run = run_traversal(
            small_world, cfg, roots=range(12), kind="bc",
            sizer=StaticSizer(4),
        )
        assert metrics.get("swath_initiations_total").value == run.num_swaths
        assert metrics.get("swath_pending_roots").value == 0
        assert metrics.get("swath_size").value == 4
        assert metrics.get("swath_window_peak_memory_bytes").value > 0

    def test_elastic_engine_metrics_and_spans(self, small_world):
        class Alternate(ScalingPolicy):
            def choose(self, ctx):
                return 4 if ctx.step % 2 else 2

        tracer = SpanTracer()
        metrics = MetricsRegistry()
        job = JobSpec(
            program=PageRankProgram(8), graph=small_world, num_workers=4,
            tracer=tracer, metrics=metrics,
            observers=[ElasticResizer(Alternate(), low=2, high=4)],
        )
        res = run_job(job)
        resizes = tracer.named("elastic-resize")
        assert len(resizes) >= 2
        assert all(s.sim_duration > 0 for s in resizes)
        assert {s.attrs["from_workers"] for s in resizes} <= {2, 4}
        ups = metrics.get("elastic_scale_events_total", direction="up").value
        downs = metrics.get("elastic_scale_events_total", direction="down").value
        assert ups + downs == len(resizes)
        moved = sum(s.attrs["vertices_moved"] for s in resizes)
        assert metrics.get("elastic_vertices_moved_total").value == moved
        # resize overheads are inside the superstep spans: invariant holds
        assert tracer.total_sim("superstep") == pytest.approx(
            res.trace.total_time, abs=1e-6
        )


class TestNoOpPath:
    def test_results_identical_without_sinks(self, small_world):
        bare = run_pagerank(small_world, RunConfig(num_workers=3), iterations=8)
        res, tracer, metrics = run_instrumented(small_world)
        assert np.allclose(bare.values_array(), res.values_array())
        assert bare.total_time == res.trace.total_time
        assert bare.total_cost == res.total_cost

    def test_engine_holds_no_instruments_by_default(self, small_world):
        job = JobSpec(
            program=PageRankProgram(3), graph=small_world, num_workers=2
        )
        from repro.bsp.engine import BSPEngine

        eng = BSPEngine(job)
        assert eng.tracer is None
        assert eng.metrics is None
        assert eng.telemetry.adapters == []  # every event fans out to nothing
        eng.run()


class TestRunReporter:
    def run_with_reporter(self, graph, **kwargs):
        buf = io.StringIO()
        reporter = RunReporter(stream=buf, **kwargs)
        run_pagerank(
            graph, RunConfig(num_workers=2), iterations=6, observers=[reporter]
        )
        return reporter, buf.getvalue().splitlines()

    def test_unthrottled_prints_every_superstep(self, small_world):
        reporter, lines = self.run_with_reporter(small_world, min_interval=0.0)
        starts = [ln for ln in lines if "job start" in ln]
        steps = [ln for ln in lines if "] step " in ln]
        dones = [ln for ln in lines if "done |" in ln]
        assert len(starts) == 1 and len(dones) == 1
        assert len(steps) == 7  # 6 iterations + drain step
        assert reporter.lines_emitted == len(lines)

    def test_throttled_still_prints_first_step_and_summary(self, small_world):
        reporter, lines = self.run_with_reporter(
            small_world, min_interval=1e9
        )
        steps = [ln for ln in lines if "] step " in ln]
        assert len(steps) == 1 and "step 0" in steps[0]
        assert any("done |" in ln for ln in lines)

    def test_swath_phase_in_lines(self, small_world):
        buf = io.StringIO()
        reporter = RunReporter(stream=buf, min_interval=0.0)
        run_traversal(
            small_world, RunConfig(num_workers=2), roots=range(8), kind="bc",
            sizer=StaticSizer(2), extra_observers=[reporter],
        )
        assert any("swath" in ln for ln in buf.getvalue().splitlines())

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            RunReporter(min_interval=-1)

    def test_other_processes_cannot_emit(self, small_world):
        buf = io.StringIO()
        reporter = RunReporter(stream=buf, min_interval=0.0)
        # Simulate being inherited by a forked ProcessBSPEngine child.
        reporter._owner_pid = -1
        reporter._emit("should be dropped")
        assert buf.getvalue() == ""
        assert reporter.lines_emitted == 0

    def test_straggler_annotation_on_lines(self):
        import dataclasses

        from repro.cloud.costmodel import DEFAULT_PERF_MODEL
        from repro.graph import generators as gen
        from repro.obs import DiagnosticMonitor

        buf = io.StringIO()
        monitor = DiagnosticMonitor()
        reporter = RunReporter(stream=buf, min_interval=0.0, monitor=monitor)
        graph = gen.watts_strogatz(240, 6, 0.1, seed=3)
        model = dataclasses.replace(
            DEFAULT_PERF_MODEL, jitter=0.6, jitter_seed=11,
            jitter_workers=(1,),
        )
        # The monitor must observe *before* the reporter prints the line.
        run_pagerank(
            graph,
            RunConfig(num_workers=4, perf_model=model),
            iterations=10,
            observers=[monitor, reporter],
        )
        lines = buf.getvalue().splitlines()
        annotated = [ln for ln in lines if "straggler w1" in ln]
        assert annotated
        assert all("(jitter)" in ln for ln in annotated)


class TestCLI:
    @pytest.fixture
    def graph_file(self, small_world, tmp_path):
        p = tmp_path / "g.txt"
        graph_io.write_edge_list(small_world, p)
        return str(p)

    def test_run_writes_all_artifacts(self, graph_file, tmp_path, capsys):
        m = tmp_path / "m.prom"
        s = tmp_path / "s.json"
        c = tmp_path / "c.json"
        t = tmp_path / "t.json"
        rc = cli_main([
            "run", "--graph", graph_file, "--app", "pagerank",
            "--workers", "3", "--iterations", "6",
            "--metrics-out", str(m), "--spans-out", str(s),
            "--chrome-out", str(c), "--trace-out", str(t),
            "--progress", "--check-invariants",
        ])
        assert rc == 0
        out = capsys.readouterr()
        assert "invariants: ok" in out.out
        assert "[repro] done" in out.err  # --progress went to stderr

        prom = m.read_text()
        assert "# TYPE bsp_supersteps_total counter" in prom
        assert "bsp_sim_time_seconds" in prom

        spans = json.loads(s.read_text())
        trace = json.loads(t.read_text())
        total = sum(
            sp["sim_duration"] for sp in spans["spans"]
            if sp["name"] == "superstep"
        )
        sim_end = trace["steps"][-1]["sim_time_end"]
        assert total == pytest.approx(sim_end, abs=1e-6)

        chrome = json.loads(c.read_text())
        assert chrome["traceEvents"]
        assert all(ev["ph"] in ("X", "C") for ev in chrome["traceEvents"])
        counter_names = {
            ev["name"] for ev in chrome["traceEvents"] if ev["ph"] == "C"
        }
        assert counter_names == {"messages-in-flight", "worker-memory-mb"}

    def test_metrics_json_suffix_switches_format(self, graph_file, tmp_path):
        m = tmp_path / "m.json"
        rc = cli_main([
            "run", "--graph", graph_file, "--workers", "2",
            "--iterations", "4", "--metrics-out", str(m),
        ])
        assert rc == 0
        data = json.loads(m.read_text())
        assert {f["name"] for f in data["metrics"]} >= {
            "bsp_supersteps_total", "bsp_sim_time_seconds"
        }

    def test_trace_summarize(self, graph_file, tmp_path, capsys):
        t = tmp_path / "t.json"
        assert cli_main([
            "run", "--graph", graph_file, "--workers", "2",
            "--iterations", "12", "--trace-out", str(t),
        ]) == 0
        capsys.readouterr()
        assert cli_main(["trace", "summarize", str(t), "--max-rows", "6"]) == 0
        out = capsys.readouterr().out
        assert "run summary" in out
        assert "time along the pacing worker" in out
        assert "per-superstep digest" in out
        assert "middle supersteps elided" in out

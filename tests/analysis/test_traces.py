"""Trace export round trips."""

import numpy as np
import pytest

from repro.algorithms import PageRankProgram
from repro.analysis.traces import (
    read_json,
    trace_from_dict,
    trace_to_dict,
    write_json,
)
from repro.bsp import JobSpec, run_job
from repro.cloud import attribute_cost
from repro.graph import generators as gen


@pytest.fixture(scope="module")
def trace():
    g = gen.watts_strogatz(40, 4, 0.2, seed=4)
    return run_job(JobSpec(program=PageRankProgram(6), graph=g, num_workers=3)).trace


class TestJsonRoundTrip:
    def test_dict_round_trip_is_lossless(self, trace):
        back = trace_from_dict(trace_to_dict(trace))
        assert len(back) == len(trace)
        assert back.total_time == pytest.approx(trace.total_time)
        assert np.array_equal(back.series_messages(), trace.series_messages())
        assert np.array_equal(
            back.matrix("msgs_out"), trace.matrix("msgs_out")
        )
        assert back.utilization() == pytest.approx(trace.utilization())

    def test_file_round_trip(self, trace, tmp_path):
        p = tmp_path / "t.json"
        write_json(trace, p)
        back = read_json(p)
        assert back.series_peak_memory().tolist() == trace.series_peak_memory().tolist()

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            trace_from_dict({"version": 99, "steps": []})

    def test_empty_trace(self):
        from repro.bsp.superstep import JobTrace

        back = trace_from_dict(trace_to_dict(JobTrace()))
        assert len(back) == 0


class TestCLI:
    def test_cli_info_and_run(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "g.txt"
        assert main(["generate", "--dataset", "SD", "--scale", "0.1",
                     "--out", str(out)]) == 0
        assert main(["info", "--graph", str(out)]) == 0
        assert main(["partition", "--graph", str(out), "--workers", "4",
                     "--strategy", "metis"]) == 0
        assert main(["advise", "--graph", str(out), "--workers", "4"]) == 0
        trace_out = tmp_path / "trace.json"
        assert main(["run", "--graph", str(out), "--app", "bc", "--roots", "6",
                     "--workers", "4", "--sizer", "static", "--swath", "3",
                     "--initiation", "dynamic",
                     "--trace-out", str(trace_out)]) == 0
        captured = capsys.readouterr().out
        assert "simulated time" in captured
        back = read_json(trace_out)
        assert len(back) > 0

    def test_cli_pagerank(self, capsys):
        from repro.cli import main

        assert main(["run", "--dataset", "SD", "--scale", "0.1",
                     "--app", "pagerank", "--iterations", "5",
                     "--workers", "2"]) == 0
        assert "pagerank: 6 supersteps" in capsys.readouterr().out

    def test_cli_requires_graph_source(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["info"])

    def test_cli_generate_requires_dataset(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["generate", "--graph", "x", "--out", str(tmp_path / "o")])


def assert_same_fields(back, orig):
    from repro.analysis.traces import _STEP_FIELDS, _WORKER_FIELDS

    assert len(back) == len(orig)
    for o, copy in zip(orig, back):
        for f in _STEP_FIELDS:
            assert getattr(copy, f) == getattr(o, f), f
        assert len(copy.workers) == len(o.workers)
        for ow, cw in zip(o.workers, copy.workers):
            for f in _WORKER_FIELDS:
                assert getattr(cw, f) == getattr(ow, f), f


class TestFullFieldFidelity:
    """Every field survives the trip: disk/jitter/injection (v2), queue
    depth (v3), a scale-out's extra VM-seconds (v4)."""

    @pytest.fixture(scope="class")
    def rich_trace(self):
        from repro.analysis import RunConfig, run_traversal
        from repro.cloud.costmodel import DEFAULT_PERF_MODEL
        from dataclasses import replace

        g = gen.watts_strogatz(48, 4, 0.2, seed=7)
        model = replace(
            DEFAULT_PERF_MODEL, disk_buffering=True, jitter=0.3, jitter_seed=5
        )
        cfg = RunConfig(num_workers=3, perf_model=model)
        run = run_traversal(g, cfg, roots=range(6), kind="bc")
        return run.result.trace

    @pytest.fixture(scope="class")
    def elastic_trace(self):
        from repro.elastic import ElasticResizer, ScalingPolicy

        class Toggle(ScalingPolicy):
            def choose(self, ctx):
                return 6 if ctx.workers == 3 else 3

        g = gen.watts_strogatz(48, 4, 0.2, seed=7)
        job = JobSpec(
            program=PageRankProgram(6), graph=g, num_workers=3,
            observers=[ElasticResizer(Toggle(), low=3, high=6)],
        )
        return run_job(job).trace

    def test_fields_are_exercised(self, rich_trace):
        workers = [w for s in rich_trace for w in s.workers]
        assert any(w.disk_time > 0 for w in workers)
        assert any(w.jitter_factor != 1.0 for w in workers)
        assert any(s.injected > 0 for s in rich_trace)

    def test_round_trip_full_field_equality(self, rich_trace):
        assert_same_fields(trace_from_dict(trace_to_dict(rich_trace)), rich_trace)

    def test_elastic_round_trip_full_field_equality(self, elastic_trace):
        assert any(s.extra_vm_seconds > 0 for s in elastic_trace)
        back = trace_from_dict(trace_to_dict(elastic_trace))
        assert_same_fields(back, elastic_trace)
        assert attribute_cost(back).total == attribute_cost(elastic_trace).total

    def test_version_4_is_declared(self, rich_trace):
        data = trace_to_dict(rich_trace)
        assert data["version"] == 4
        assert "disk_time" in data["steps"][0]["workers"][0]
        assert "jitter_factor" in data["steps"][0]["workers"][0]
        assert "queue_depth" in data["steps"][0]["workers"][0]
        assert "injected" in data["steps"][0]
        assert "extra_vm_seconds" in data["steps"][0]

    def test_version_3_files_still_read(self, elastic_trace):
        data = trace_to_dict(elastic_trace)
        data["version"] = 3
        for sd in data["steps"]:
            sd.pop("extra_vm_seconds")
        back = trace_from_dict(data)
        assert all(s.extra_vm_seconds == 0.0 for s in back)
        assert back.total_time == elastic_trace.total_time
        # Without the field, a scale-out bills only the old fleet.
        assert attribute_cost(back).total < attribute_cost(elastic_trace).total

    def test_version_2_files_still_read(self, rich_trace):
        data = trace_to_dict(rich_trace)
        data["version"] = 2
        for sd in data["steps"]:
            for wd in sd["workers"]:
                wd.pop("queue_depth")
        back = trace_from_dict(data)
        assert len(back) == len(rich_trace)
        assert all(w.queue_depth == 0 for s in back for w in s.workers)
        assert back.total_time == pytest.approx(rich_trace.total_time)

    def test_version_1_files_still_read(self, rich_trace):
        data = trace_to_dict(rich_trace)
        data["version"] = 1
        for sd in data["steps"]:
            sd.pop("injected")
            for wd in sd["workers"]:
                wd.pop("disk_time")
                wd.pop("jitter_factor")
                wd.pop("queue_depth")
        back = trace_from_dict(data)
        assert len(back) == len(rich_trace)
        # the dropped fields come back as their dataclass defaults
        assert all(s.injected == 0 for s in back)
        assert all(w.disk_time == 0.0 for s in back for w in s.workers)
        assert all(w.jitter_factor == 1.0 for s in back for w in s.workers)
        # everything else is preserved
        assert back.total_time == pytest.approx(rich_trace.total_time)
        assert np.array_equal(
            back.series_messages(), rich_trace.series_messages()
        )

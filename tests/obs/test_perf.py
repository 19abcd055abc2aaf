"""`repro perf`: report rendering, regression diffing, and the CLI.

Carries the issue's acceptance scenario: a BC swath run with injected
jitter on one worker must produce a report attributing the straggler to
that worker with the jitter cause, and `perf diff` must flag a 2x compute
slowdown while staying clean on an unchanged run.
"""

import copy
import dataclasses
import json

import pytest

from repro.analysis import RunConfig, run_traversal
from repro.cli import main as cli_main
from repro.cloud.costmodel import DEFAULT_PERF_MODEL
from repro.graph import generators as gen
from repro.graph import io as graph_io
from repro.obs import RunTimeline, perf_diff, perf_report, timeline_from_dict
from repro.scheduling import StaticSizer


@pytest.fixture(scope="module")
def bc_jitter_timeline():
    """BC over swaths on a balanced graph, jitter injected on worker 2."""
    graph = gen.watts_strogatz(480, 8, 0.2, seed=3)
    tl = RunTimeline()
    cfg = RunConfig(
        num_workers=4,
        perf_model=dataclasses.replace(
            DEFAULT_PERF_MODEL, jitter=0.6, jitter_seed=5,
            jitter_workers=(2,),
        ),
        timeline=tl,
    )
    run_traversal(graph, cfg, roots=range(24), kind="bc",
                  sizer=StaticSizer(6))
    return tl


class TestReport:
    def test_attributes_jitter_to_the_injected_worker(
        self, bc_jitter_timeline
    ):
        text = perf_report(bc_jitter_timeline)
        assert "critical path" in text
        assert "per-worker totals" in text
        assert "straggler flags" in text
        assert "dominant cause: jitter" in text
        assert "w2 " in text and "(jitter_factor=" in text
        # Jitter flags must not trigger a repartitioning hint...
        assert "min-cut" not in text.split("hint:")[-1] or "hint:" not in text
        # ...and the swath controller's annotations ride along.
        assert "swath-initiation" in text

    def test_quiet_run_reports_no_flags(self, small_world):
        tl = RunTimeline()
        cfg = RunConfig(num_workers=4, timeline=tl)
        run_traversal(small_world, cfg, roots=range(6), kind="bc",
                      sizer=StaticSizer(3))
        text = perf_report(tl)
        assert "straggler flags: none" in text


def slow_compute_copy(tl, factor=2.0):
    """A doctored timeline whose every row computes ``factor`` x slower."""
    doctored = timeline_from_dict(copy.deepcopy(tl.to_dict()))
    sim = 0.0
    for s in doctored.steps:
        overhead = s.overhead_time
        for w in s.workers:
            w.compute_time *= factor
        s.elapsed = s.slowest_busy + s.barrier_time + s.restart_time + overhead
        sim += s.elapsed
        s.sim_time_end = sim
    return doctored


class TestDiff:
    def test_unchanged_run_is_clean(self, bc_jitter_timeline):
        text, regressed = perf_diff(bc_jitter_timeline, bc_jitter_timeline)
        assert not regressed
        assert "clean" in text
        assert "REGRESSED" not in text

    def test_2x_compute_slowdown_flagged(self, bc_jitter_timeline):
        slow = slow_compute_copy(bc_jitter_timeline)
        text, regressed = perf_diff(bc_jitter_timeline, slow)
        assert regressed
        assert "REGRESSION" in text
        lines = [ln for ln in text.splitlines() if ln.lstrip().startswith("compute")]
        assert lines and "REGRESSED" in lines[0]

    def test_improvement_is_not_a_regression(self, bc_jitter_timeline):
        slow = slow_compute_copy(bc_jitter_timeline)
        _, regressed = perf_diff(slow, bc_jitter_timeline)
        assert not regressed


class TestCLI:
    @pytest.fixture
    def timeline_file(self, small_world, tmp_path, capsys):
        g = tmp_path / "g.txt"
        graph_io.write_edge_list(small_world, g)
        t = tmp_path / "tl.json"
        rc = cli_main([
            "run", "--graph", str(g), "--app", "pagerank",
            "--workers", "3", "--iterations", "6",
            "--timeline-out", str(t),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "timeline written to" in out
        return t

    def test_report_command(self, timeline_file, capsys):
        assert cli_main(["perf", "report", str(timeline_file)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "per-worker totals" in out

    def test_diff_clean_and_regressed_exit_codes(
        self, timeline_file, tmp_path, capsys
    ):
        assert cli_main(
            ["perf", "diff", str(timeline_file), str(timeline_file)]
        ) == 0
        assert "clean" in capsys.readouterr().out

        from repro.obs import read_timeline

        slow = slow_compute_copy(read_timeline(timeline_file))
        slow_path = tmp_path / "slow.json"
        slow.write_json(slow_path)
        assert cli_main(
            ["perf", "diff", str(timeline_file), str(slow_path)]
        ) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_garbage_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 1, "spans": []}))
        assert cli_main(["perf", "report", str(bad)]) == 2
        assert "spans file" in capsys.readouterr().err

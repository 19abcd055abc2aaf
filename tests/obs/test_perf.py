"""`repro trace report|diff`: attribution, regression diffing, and the CLI.

Carries the attribution acceptance scenario: a BC swath run with injected
jitter on one worker must produce a report attributing the straggler to
that worker with the jitter cause, and `trace diff` must flag a 2x compute
slowdown while staying clean on an unchanged run.  Every reader command
also takes the files older releases wrote: version-1 and -3 trace dumps,
and the separate timeline dump (``tests/obs/data/timeline_v4.json``, the
committed steps plus events).
"""

import copy
import dataclasses
import json
import re
from pathlib import Path

import pytest

from repro.algorithms import PageRankProgram
from repro.analysis import RunConfig, run_traversal
from repro.analysis.traces import (
    committed,
    read_json,
    trace_from_dict,
    trace_to_dict,
    write_json,
)
from repro.bsp import JobSpec, run_job
from repro.cli import main as cli_main
from repro.cloud.costmodel import DEFAULT_PERF_MODEL
from repro.graph import generators as gen
from repro.graph import io as graph_io
from repro.obs import (
    FlightEvent,
    RunTimeline,
    summarize_events,
    summarize_trace,
    trace_diff,
    trace_report,
)
from repro.scheduling import StaticSizer

OLD_TIMELINE = Path(__file__).parent / "data" / "timeline_v4.json"


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


def after_run_table(text):
    """A report without its run table (the rolled-back row count)."""
    return text.split("\n\n", 1)[1]


class TestReport:
    def test_attributes_jitter_to_the_injected_worker(
        self, bc_jitter_timeline
    ):
        text = trace_report(bc_jitter_timeline)
        assert "time along the pacing worker" in text
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
        text = trace_report(tl)
        assert "straggler flags: none" in text

    def test_recovery_reports_the_committed_steps(self, small_world):
        tl = RunTimeline()
        res = run_job(JobSpec(
            program=PageRankProgram(6), graph=small_world, num_workers=4,
            checkpoint_interval=3, failure_schedule={4: 1}, timeline=tl,
        ))
        assert [s.index for s in tl] == [0, 1, 2, 3, 4, 3, 4, 5, 6]
        text = trace_report(tl)
        # The failing step 4 was never kept; step 3's 4 rows were.
        assert re.search(r"rows rolled back by recovery +4 ", text)
        kept = RunTimeline(steps=committed(tl).steps, events=tl.events)
        assert "rolled back" not in trace_report(kept)
        assert after_run_table(text) == after_run_table(trace_report(kept))
        # Report dollars price the committed steps; the bill prices all.
        cost = float(text.split("cost: $")[1].split()[0])
        assert cost < res.cost.total


class TestQuantiles:
    """Both summarize readers take p50/p90/p99 from the values they hold,
    not from bucket tallies, which interpolate up to a bucket's bound."""

    #: the recovery probe's shape: eight short steps and one carrying the
    #: 120 s restore
    ELAPSED = [0.0972, 0.0972, 0.0973, 0.0972, 120.0973, 0.0972, 0.0972,
               0.0973, 0.0881]

    @staticmethod
    def numbers(text, label):
        line = next(ln for ln in text.splitlines() if ln.startswith(label))
        return [float(x) for x in re.findall(r"[\d.]+", line[len(label):])]

    def assert_probe_shape(self, p50, p99):
        *short, longest = sorted(self.ELAPSED)
        assert short[0] <= p50 <= short[-1]
        assert p99 <= longest

    def test_run_file_step_quantiles(self, small_world):
        tl = RunTimeline()
        run_job(JobSpec(
            program=PageRankProgram(6), graph=small_world, num_workers=4,
            checkpoint_interval=3, failure_schedule={4: 1}, timeline=tl,
        ))
        assert [s.elapsed for s in tl] == pytest.approx(self.ELAPSED,
                                                         abs=1e-4)
        p50, _, p99 = self.numbers(
            summarize_trace(tl), "superstep elapsed p50/p90/p99 (s)"
        )
        self.assert_probe_shape(p50, p99)

    def test_inter_barrier_quantiles(self):
        exits, host = [], 0.0
        for gap in [0.0] + self.ELAPSED:
            host += gap
            exits.append(FlightEvent(seq=len(exits), kind="barrier-exit",
                                     host=host))
        text = summarize_events(exits)
        [p50], [p99] = self.numbers(text, "p50"), self.numbers(text, "p99")
        self.assert_probe_shape(p50, p99)


def slow_compute_copy(tl, factor=2.0):
    """A doctored timeline whose every row computes ``factor`` x slower."""
    doctored = trace_from_dict(copy.deepcopy(trace_to_dict(tl)))
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
        text, regressed = trace_diff(bc_jitter_timeline, bc_jitter_timeline)
        assert not regressed
        assert "clean" in text
        assert "REGRESSED" not in text

    def test_2x_compute_slowdown_flagged(self, bc_jitter_timeline):
        slow = slow_compute_copy(bc_jitter_timeline)
        text, regressed = trace_diff(bc_jitter_timeline, slow)
        assert regressed
        assert "REGRESSION" in text
        lines = [ln for ln in text.splitlines() if ln.lstrip().startswith("compute")]
        assert lines and "REGRESSED" in lines[0]

    def test_improvement_is_not_a_regression(self, bc_jitter_timeline):
        slow = slow_compute_copy(bc_jitter_timeline)
        _, regressed = trace_diff(slow, bc_jitter_timeline)
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
            "--trace-out", str(t),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace written to" in out
        return t

    def test_report_command(self, timeline_file, capsys):
        assert cli_main(["trace", "report", str(timeline_file)]) == 0
        out = capsys.readouterr().out
        assert "time along the pacing worker" in out
        assert "per-worker totals" in out

    def test_diff_clean_and_regressed_exit_codes(
        self, timeline_file, tmp_path, capsys
    ):
        assert cli_main(
            ["trace", "diff", str(timeline_file), str(timeline_file)]
        ) == 0
        assert "clean" in capsys.readouterr().out

        slow = slow_compute_copy(read_json(timeline_file))
        slow_path = tmp_path / "slow.json"
        write_json(slow, slow_path)
        assert cli_main(
            ["trace", "diff", str(timeline_file), str(slow_path)]
        ) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_garbage_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 1, "spans": []}))
        for argv in (["report", str(bad)], ["summarize", str(bad)],
                     ["diff", str(bad), str(bad)]):
            assert cli_main(["trace", *argv]) == 2
            assert "spans file" in capsys.readouterr().err


def downgrade(data, version):
    """A run file as an older release wrote it."""
    data = copy.deepcopy(data)
    data["version"] = version
    del data["events"]
    for sd in data["steps"]:
        sd.pop("extra_vm_seconds")
        if version == 1:
            sd.pop("injected")
            for wd in sd["workers"]:
                for f in ("disk_time", "jitter_factor", "queue_depth"):
                    wd.pop(f)
    return data


class TestOlderFiles:
    @pytest.mark.parametrize("version", [1, 3])
    def test_old_trace_dumps_read_everywhere(
        self, bc_jitter_timeline, tmp_path, capsys, version
    ):
        path = tmp_path / f"v{version}.json"
        path.write_text(json.dumps(
            downgrade(trace_to_dict(bc_jitter_timeline), version)
        ))
        assert cli_main(["trace", "summarize", str(path)]) == 0
        assert "run summary" in capsys.readouterr().out
        assert cli_main(["trace", "report", str(path)]) == 0
        assert "per-worker totals" in capsys.readouterr().out
        assert cli_main(["trace", "diff", str(path), str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_timeline_dump_reads_everywhere(self, tmp_path, capsys):
        assert cli_main(["trace", "summarize", str(OLD_TIMELINE)]) == 0
        assert "run summary" in capsys.readouterr().out
        assert cli_main(["trace", "report", str(OLD_TIMELINE)]) == 0
        assert "swath-initiation x1" in capsys.readouterr().out
        # The same job today writes the same file.
        tl = RunTimeline()
        run_traversal(gen.ring(4), RunConfig(num_workers=2, timeline=tl),
                      roots=[0, 2], kind="bc")
        new = tmp_path / "new.json"
        write_json(tl, new)
        assert new.read_text() == OLD_TIMELINE.read_text()
        assert cli_main(["trace", "diff", str(OLD_TIMELINE), str(new)]) == 0
        assert "clean" in capsys.readouterr().out

"""RunTimeline: recording, serialization, rollback, engine equivalence.

The contracts: the timeline is the JobTrace of every closed step, one
row per (superstep, worker) carrying only deterministic simulated
quantities; its dump is the trace format plus ``events``; byte-identical
JSON across the sim and process backends on the same seed; and the
committed view derived from the step indices makes a failed-and-recovered
run's rows equal an undisturbed run's — including on the process engine's
real kill/respawn path.
"""

import dataclasses
import json

import pytest

from repro.algorithms import PageRankProgram
from repro.analysis.traces import (
    committed,
    read_json,
    rolled_back_rows,
    trace_from_dict,
    trace_to_dict,
    write_json,
)
from repro.bsp import JobSpec, run_job
from repro.bsp.superstep import SuperstepStats, WorkerStepStats
from repro.cloud.costmodel import DEFAULT_PERF_MODEL
from repro.dist import ProcessBSPEngine
from repro.obs import RunTimeline


def rows(tl):
    """Every worker row of a timeline, in step order."""
    return [w for s in tl.steps for w in s.workers]


def make_job(graph, timeline, **kw):
    kw.setdefault("num_workers", 4)
    kw.setdefault("checkpoint_interval", 2)
    return JobSpec(
        program=PageRankProgram(6), graph=graph, timeline=timeline, **kw
    )


class TestRecording:
    def test_one_row_per_step_and_worker(self, small_world):
        tl = RunTimeline()
        res = run_job(make_job(small_world, tl))
        assert len(tl.steps) == res.supersteps
        assert len(rows(tl)) == res.supersteps * 4
        assert {r.worker for r in rows(tl)} == {0, 1, 2, 3}
        assert tl.num_workers == 4
        assert rolled_back_rows(tl) == 0

    def test_totals_match_job_result(self, small_world):
        tl = RunTimeline()
        res = run_job(make_job(small_world, tl))
        assert tl.total_time == pytest.approx(res.total_time)
        assert tl.steps[-1].sim_time_end == pytest.approx(res.total_time)
        assert tl.total_messages == res.trace.total_messages

    def test_no_timeline_is_fine(self, small_world):
        res = run_job(make_job(small_world, None))
        assert res.supersteps > 0

    def test_queue_depth_recorded(self, small_world):
        tl = RunTimeline()
        run_job(make_job(small_world, tl))
        # PageRank floods every edge each round: mid-run rows buffer work.
        assert any(r.queue_depth > 0 for r in rows(tl))
        # The last superstep (past max iterations) buffers nothing.
        assert all(r.queue_depth == 0 for r in tl.steps[-1].workers)

    def test_matrix_and_per_worker_total(self, small_world):
        tl = RunTimeline()
        run_job(make_job(small_world, tl))
        m = tl.matrix("compute_calls")
        assert m.shape == (len(tl.steps), 4)
        assert m.sum() == sum(r.compute_calls for r in rows(tl))
        per_w = tl.per_worker_total("msgs_out")
        assert per_w.sum() == tl.total_messages
        # Float totals accumulate in step order, as a plain loop does.
        loop = [0.0] * 4
        for r in rows(tl):
            loop[r.worker] += r.elapsed
        assert tl.per_worker_total("elapsed").tolist() == loop


class TestSerialization:
    def test_round_trip(self, small_world, tmp_path):
        tl = RunTimeline()
        run_job(make_job(small_world, tl))
        tl.annotate(2, "note", detail="x")
        p = tmp_path / "tl.json"
        write_json(tl, p)
        back = read_json(p)
        assert trace_to_dict(back) == trace_to_dict(tl)
        assert back.events == [{"superstep": 2, "kind": "note", "detail": "x"}]

    def test_version_checked(self):
        with pytest.raises(ValueError, match="version"):
            trace_from_dict({"version": 99, "steps": []})

    def test_rejects_non_timeline_dumps(self):
        with pytest.raises(ValueError, match="spans file"):
            trace_from_dict({"version": 1, "spans": []})

    def test_dump_is_the_trace_dump_plus_events(self, small_world):
        # Failure-free, so every trace row is committed.
        tl = RunTimeline()
        res = run_job(make_job(small_world, tl))
        dump = trace_to_dict(tl)
        assert list(dump) == ["version", "steps", "events"]
        assert dump["steps"] == trace_to_dict(res.trace)["steps"]
        assert dump["version"] == trace_to_dict(res.trace)["version"]

    def test_refuses_the_retired_row_format(self):
        old = {"version": 1, "steps": [], "rows": [], "events": []}
        with pytest.raises(ValueError, match="retired"):
            trace_from_dict(old)


def fake_stats(index, elapsed_by_worker, barrier=0.5):
    """A committed step whose workers compute for the given times."""
    slowest = max(elapsed_by_worker)
    return SuperstepStats(
        index=index, num_workers=len(elapsed_by_worker),
        workers=[
            WorkerStepStats(worker=w, compute_time=t)
            for w, t in enumerate(elapsed_by_worker)
        ],
        barrier_time=barrier, elapsed=slowest + barrier,
        sim_time_end=(index + 1) * (slowest + barrier),
    )


class TestRollback:
    def test_rollback_drops_and_counts(self):
        # Step 5 fails and resumes from 3, in the engine's order: the
        # rollback prunes events, then the failing step closes and the
        # replay appends.
        tl = RunTimeline()
        for i in range(5):
            tl.append(fake_stats(i, [1.0, 2.0]))
        tl.annotate(1, "early")
        tl.annotate(4, "late")
        tl.rollback(3)
        for i in (5, 3, 4, 5):
            tl.append(fake_stats(i, [1.0, 2.0]))
        assert [s.index for s in tl.steps] == [0, 1, 2, 3, 4, 5, 3, 4, 5]
        assert [s.index for s in committed(tl)] == [0, 1, 2, 3, 4, 5]
        assert committed(tl).steps[3] is tl.steps[6]
        # Steps 3 and 4 had committed; the failing step 5's row had not.
        assert rolled_back_rows(tl) == 4
        assert [e["kind"] for e in tl.events] == ["early"]

    def test_recovered_run_records_like_clean_run(self, small_world):
        # checkpoint_interval=3 checkpoints cover through steps 2 and 5, so
        # a failure at step 4 rolls the already-recorded step 3 back and
        # replays it.
        clean, failed = RunTimeline(), RunTimeline()
        run_job(make_job(small_world, clean, checkpoint_interval=3))
        res = run_job(
            make_job(
                small_world, failed, checkpoint_interval=3,
                failure_schedule={4: 1},
            )
        )
        assert res.recoveries
        assert [s.index for s in failed] == [0, 1, 2, 3, 4, 3, 4, 5, 6]
        assert failed.steps == res.trace.steps
        assert rolled_back_rows(failed) == 4
        # Rows replay identically; only the recovery-charged step's
        # elapsed/cumulative sim times differ.
        assert rows(clean) == rows(committed(failed))
        assert len(clean.steps) == len(committed(failed))

    def test_failure_on_checkpoint_boundary_keeps_committed_row(
        self, small_world
    ):
        # interval=2 checkpoints at the same boundary the failure fires
        # (step 3's checkpoint covers through step 3): the step is
        # committed, so its rows must survive even though the epoch failed.
        clean, failed = RunTimeline(), RunTimeline()
        run_job(make_job(small_world, clean))
        res = run_job(make_job(small_world, failed, failure_schedule={3: 1}))
        assert res.recoveries and res.recoveries[0].resumed_from == 4
        assert rows(clean) == rows(failed) == rows(committed(failed))

    def test_process_engine_kill_respawn_rows_roll_back(self, small_world):
        clean, killed = RunTimeline(), RunTimeline()
        run_job(make_job(small_world, clean, checkpoint_interval=3))
        engine = ProcessBSPEngine(
            make_job(small_world, killed, checkpoint_interval=3)
        )
        engine.kill_worker_at(4, 1)
        res = engine.run()
        assert res.recoveries and res.recoveries[0].failed_worker == 1
        assert [s.index for s in killed] == [0, 1, 2, 3, 4, 3, 4, 5, 6]
        assert rolled_back_rows(killed) == 4
        assert rows(clean) == rows(committed(killed))
        # The replacement worker reports under the same worker id.
        assert {r.worker for r in rows(killed)} == {0, 1, 2, 3}


class TestEngineEquivalence:
    def test_timeline_byte_identical_across_backends(self, small_world):
        model = dataclasses.replace(
            DEFAULT_PERF_MODEL, jitter=0.3, jitter_seed=7
        )
        dumps = {}
        for name in ("sim", "process"):
            tl = RunTimeline()
            run_job(make_job(small_world, tl, perf_model=model), engine=name)
            dumps[name] = json.dumps(trace_to_dict(tl), sort_keys=True)
        assert dumps["sim"] == dumps["process"]


class TestOverheadTime:
    def test_overhead_isolates_checkpoint_cost(self, small_world):
        tl = RunTimeline()
        run_job(make_job(small_world, tl, checkpoint_interval=2))
        # Checkpointing supersteps carry the write cost as overhead beyond
        # slowest-worker + barrier; non-checkpoint steps carry none.
        overheads = [s.overhead_time for s in tl.steps]
        assert overheads[1] > 0 and overheads[3] > 0
        assert overheads[0] == overheads[2] == 0.0

    def test_overhead_is_the_unexplained_elapsed(self):
        step = fake_stats(0, [1.0, 2.0])
        assert step.overhead_time == 0.0
        step.elapsed += 0.25  # a stall charged at the boundary
        assert step.overhead_time == pytest.approx(0.25)
        step.elapsed = 0.0  # never negative
        assert step.overhead_time == 0.0

"""RunTimeline: recording, serialization, rollback, engine equivalence.

The tentpole contracts: one row per committed (superstep, worker) carrying
only deterministic simulated quantities; byte-identical JSON across the
sim/threaded/process backends on the same seed; and rollback that makes a
failed-and-recovered run's timeline equal an undisturbed run's — including
on the process engine's real kill/respawn path.
"""

import dataclasses
import json

import pytest

from repro.algorithms import PageRankProgram
from repro.bsp import JobSpec, run_job
from repro.cloud.costmodel import DEFAULT_PERF_MODEL
from repro.dist import ProcessBSPEngine
from repro.obs import (
    RunTimeline,
    read_timeline,
    timeline_from_dict,
    timeline_to_dict,
)
from repro.obs.timeline import StepMeta, TimelineRow


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
        assert len(tl.rows) == res.supersteps * 4
        assert {r.worker for r in tl.rows} == {0, 1, 2, 3}
        assert tl.num_workers == 4
        assert tl.rolled_back_rows == 0

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
        assert any(r.queue_depth > 0 for r in tl.rows)
        # The last superstep (past max iterations) buffers nothing.
        assert all(
            r.queue_depth == 0 for r in tl.rows_of_step(tl.steps[-1].superstep)
        )

    def test_matrix_and_per_worker_total(self, small_world):
        tl = RunTimeline()
        run_job(make_job(small_world, tl))
        m = tl.matrix("compute_calls")
        assert m.shape == (len(tl.steps), 4)
        assert m.sum() == sum(r.compute_calls for r in tl.rows)
        per_w = tl.per_worker_total("msgs_out")
        assert per_w.sum() == tl.total_messages


class TestSerialization:
    def test_round_trip(self, small_world, tmp_path):
        tl = RunTimeline()
        run_job(make_job(small_world, tl))
        tl.annotate(2, "note", detail="x")
        p = tmp_path / "tl.json"
        tl.write_json(p)
        back = read_timeline(p)
        assert timeline_to_dict(back) == timeline_to_dict(tl)
        assert back.events == [{"superstep": 2, "kind": "note", "detail": "x"}]

    def test_version_checked(self):
        with pytest.raises(ValueError, match="version"):
            timeline_from_dict({"version": 99, "rows": [], "steps": []})

    def test_rejects_non_timeline_dumps(self):
        with pytest.raises(ValueError, match="trace or spans"):
            timeline_from_dict({"version": 1, "spans": []})


def fake_stats(index, elapsed_by_worker, barrier=0.5):
    """Minimal SuperstepStats stand-in for unit-level recording."""
    workers = [
        TimelineRow(superstep=index, worker=w, compute_time=t)
        for w, t in enumerate(elapsed_by_worker)
    ]
    slowest = max(elapsed_by_worker)
    return dataclasses.make_dataclass(
        "S",
        [
            "index", "num_workers", "active_begin", "active_end", "injected",
            "barrier_time", "restart_time", "elapsed", "sim_time_end",
            "workers",
        ],
    )(
        index, len(workers), 1, 1, 0, barrier, 0.0, slowest + barrier,
        (index + 1) * (slowest + barrier), workers,
    )


class TestRollback:
    def test_rollback_drops_and_counts(self):
        tl = RunTimeline()
        for i in range(5):
            tl.record_superstep(fake_stats(i, [1.0, 2.0]))
        tl.annotate(1, "early")
        tl.annotate(4, "late")
        tl.rollback(3)
        assert [s.superstep for s in tl.steps] == [0, 1, 2]
        assert tl.rolled_back_rows == 4
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
        assert failed.rolled_back_rows > 0
        d_clean, d_failed = timeline_to_dict(clean), timeline_to_dict(failed)
        # Rows replay identically; only the recovery-charged step's
        # elapsed/cumulative sim times differ.
        assert d_clean["rows"] == d_failed["rows"]
        assert len(d_clean["steps"]) == len(d_failed["steps"])

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
        assert timeline_to_dict(clean)["rows"] == timeline_to_dict(failed)["rows"]

    def test_process_engine_kill_respawn_rows_roll_back(self, small_world):
        clean, killed = RunTimeline(), RunTimeline()
        run_job(make_job(small_world, clean, checkpoint_interval=3))
        engine = ProcessBSPEngine(
            make_job(small_world, killed, checkpoint_interval=3)
        )
        engine.kill_worker_at(4, 1)
        res = engine.run()
        assert res.recoveries and res.recoveries[0].failed_worker == 1
        assert killed.rolled_back_rows > 0
        assert timeline_to_dict(clean)["rows"] == timeline_to_dict(killed)["rows"]
        # The replacement worker reports under the same worker id.
        assert {r.worker for r in killed.rows} == {0, 1, 2, 3}


class TestEngineEquivalence:
    def test_timeline_byte_identical_across_backends(self, small_world):
        model = dataclasses.replace(
            DEFAULT_PERF_MODEL, jitter=0.3, jitter_seed=7
        )
        dumps = {}
        for name in ("sim", "threaded", "process"):
            tl = RunTimeline()
            run_job(make_job(small_world, tl, perf_model=model), engine=name)
            dumps[name] = json.dumps(timeline_to_dict(tl), sort_keys=True)
        assert dumps["sim"] == dumps["threaded"] == dumps["process"]


class TestStepMetaOverhead:
    def test_overhead_isolates_checkpoint_cost(self, small_world):
        tl = RunTimeline()
        run_job(make_job(small_world, tl, checkpoint_interval=2))
        # Checkpointing supersteps carry the write cost as overhead beyond
        # slowest-worker + barrier; non-checkpoint steps carry none.
        assert any(s.overhead_time > 0 for s in tl.steps)
        assert isinstance(tl.steps[0], StepMeta)

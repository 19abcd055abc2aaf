"""Failure + checkpointed recovery must not change extract() output.

The satellite contract: for PageRank and SSSP, a run with an injected
worker failure (and the checkpoint/rollback recovery it triggers) produces
``extract()`` output identical to a failure-free run — on both the
simulated-failure engine (sim) and the real-process engine (process, where
the failure is an actual SIGKILL and recovery restarts a replacement
process).
"""

import os

import pytest

from repro.algorithms import PageRankProgram, SSSPProgram
from repro.bsp import JobSpec, run_job
from repro.dist import ProcessBSPEngine
from repro.obs import SpanTracer

PROGRAMS = {
    "pagerank": lambda: PageRankProgram(8),
    "sssp": lambda: SSSPProgram(source=0),
}


def make_job(graph, program_factory, **kw):
    return JobSpec(
        program=program_factory(), graph=graph, num_workers=4,
        checkpoint_interval=2, **kw,
    )


@pytest.mark.parametrize("app", sorted(PROGRAMS))
@pytest.mark.parametrize("engine", ["sim", "process"])
class TestScheduledFailure:
    def test_recovered_equals_failure_free(self, small_world, app, engine):
        factory = PROGRAMS[app]
        clean = run_job(make_job(small_world, factory), engine=engine)
        failed = run_job(
            make_job(small_world, factory, failure_schedule={3: 1}),
            engine=engine,
        )
        assert failed.recoveries, "the scheduled failure must have fired"
        assert failed.recoveries[0].failed_worker == 1
        assert clean.values == failed.values
        # Recovery costs simulated time; it must never be free.
        assert failed.total_time > clean.total_time


class TestKillWorkerAt:
    def test_real_sigkill_recovers_bit_identical(self, small_world):
        clean = run_job(make_job(small_world, PROGRAMS["pagerank"]))
        engine = ProcessBSPEngine(make_job(small_world, PROGRAMS["pagerank"]))
        engine.kill_worker_at(2, 0)
        res = engine.run()
        assert res.recoveries and res.recoveries[0].failed_worker == 0
        assert clean.values == res.values

    def test_matches_sim_engine_accounting(self, small_world):
        """The same schedule prices identically on sim and process."""
        schedule = {2: 3}
        sim = run_job(
            make_job(small_world, PROGRAMS["pagerank"], failure_schedule=schedule)
        )
        proc = run_job(
            make_job(small_world, PROGRAMS["pagerank"], failure_schedule=schedule),
            engine="process",
        )
        assert sim.values == proc.values
        assert sim.total_time == pytest.approx(proc.total_time)
        assert [r.resumed_from for r in sim.recoveries] == [
            r.resumed_from for r in proc.recoveries
        ]


class TestUnplannedDeath:
    def test_mid_compute_exit_recovers(self, small_world, tmp_path):
        """A worker that dies *unscheduled* mid-compute (os._exit, no reply)
        is detected by the liveness monitor and replayed from checkpoint."""
        flag = tmp_path / "died-once"

        class DieOnce(PageRankProgram):
            def compute(self, ctx, state, messages):
                if (
                    ctx.superstep == 3
                    and ctx.vertex_id == 0
                    and not flag.exists()
                ):
                    flag.write_text("x")  # the respawned replacement survives
                    os._exit(1)
                return super().compute(ctx, state, messages)

        clean = run_job(make_job(small_world, PROGRAMS["pagerank"]))
        tracer = SpanTracer()
        res = run_job(
            make_job(small_world, lambda: DieOnce(8), tracer=tracer),
            engine="process",
        )
        assert flag.exists()
        assert res.recoveries
        assert clean.values == res.values
        # The attempt that died closes its compute span aborted, so the
        # recovery and the retried attempt hang off the superstep again.
        phases = [
            s for s in tracer.spans
            if s.name in ("compute", "flush", "aggregate-merge",
                          "master-compute", "checkpoint", "recovery")
        ]
        assert [s for s in phases if s.attrs.get("aborted")]
        assert {s.name for s in phases} >= {"compute", "recovery"}
        assert all(tracer.spans[s.parent].name == "superstep" for s in phases)
        assert tracer.open_spans == 0

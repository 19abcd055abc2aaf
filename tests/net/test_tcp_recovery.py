"""Daemon loss and socket drops: checkpointed recovery over TCP.

Satellite contract: a mid-superstep socket disconnect (daemon SIGKILLed,
connection RST) recovers from the last committed checkpoint, lands the
lost workers on surviving daemons (respawn-or-reassign), produces
bit-identical extract() output, and rolls its :class:`RunTimeline` back
byte-identically to the process-engine kill/respawn path.
"""

import os

import pytest

from repro.algorithms import PageRankProgram
from repro.bsp import JobSpec, run_job
from repro.net import TcpBSPEngine
from repro.obs import FlightRecorder, RunTimeline


def pr_job(graph, **kw):
    return JobSpec(
        program=PageRankProgram(8), graph=graph, num_workers=4,
        checkpoint_interval=2, **kw,
    )


class TestScheduledDaemonKill:
    def test_daemon_sigkill_recovers_bit_identical(self, small_world):
        clean = run_job(pr_job(small_world))
        engine = TcpBSPEngine(pr_job(small_world), auto_daemons=3)
        engine.kill_worker_at(2, 1)
        res = engine.run()
        assert res.recoveries and res.recoveries[0].failed_worker == 1
        assert clean.values == res.values
        # Recovery costs simulated time; it must never be free.
        assert res.total_time > clean.total_time

    def test_multi_session_daemon_death(self, small_world):
        """Killing one daemon loses *every* worker it hosts at once.

        4 workers round-robin onto 3 daemons: the daemon of worker 0 also
        hosts worker 3.  Both are lost in one kill, both land on the
        survivors, and the output stays bit-identical.
        """
        clean = run_job(pr_job(small_world))
        flight = FlightRecorder()
        engine = TcpBSPEngine(
            pr_job(small_world, flight=flight), auto_daemons=3
        )
        engine.kill_worker_at(2, 0)
        res = engine.run()
        assert res.recoveries
        assert clean.values == res.values
        reconnected = {
            e.attrs["connected_worker"]
            for e in flight.snapshot() if e.kind == "worker-reconnect"
        }
        assert {0, 3} <= reconnected  # co-hosted worker 3 died too
        # The survivors absorbed the orphans: only 2 daemons remain.
        endpoints = {r["endpoint"] for r in engine.worker_liveness()}
        assert len(endpoints) == 2

    def test_failure_schedule_matches_sim_accounting(self, small_world):
        schedule = {2: 3}
        sim = run_job(pr_job(small_world, failure_schedule=schedule))
        engine = TcpBSPEngine(
            pr_job(small_world, failure_schedule=schedule), auto_daemons=3
        )
        tcp = engine.run()
        assert sim.values == tcp.values
        assert sim.total_time == pytest.approx(tcp.total_time)
        assert [r.resumed_from for r in sim.recoveries] == [
            r.resumed_from for r in tcp.recoveries
        ]


class TestTimelineRollback:
    def test_rollback_byte_identical_to_pipe_backend(self, small_world):
        """The same kill produces the same RunTimeline on both backends.

        Rows, step metas, annotations, and the rolled-back-row count are
        compared as values — rollback over TCP must discard exactly what
        the process engine's SIGKILL/respawn path discards.

        The failure (superstep 2) strikes *before* the first periodic
        checkpoint (interval 4), so recovery resumes from superstep 0 and
        the already-committed rows for steps 0-1 really are discarded.
        """

        def job(timeline):
            return JobSpec(
                program=PageRankProgram(8), graph=small_world,
                num_workers=4, checkpoint_interval=4,
                failure_schedule={2: 2}, timeline=timeline,
            )

        tl_pipe, tl_tcp = RunTimeline(), RunTimeline()
        pipe = run_job(job(tl_pipe), engine="process")
        engine = TcpBSPEngine(job(tl_tcp), auto_daemons=3)
        tcp = engine.run()
        assert pipe.values == tcp.values
        assert tl_pipe.rolled_back_rows > 0
        assert tl_tcp.rolled_back_rows == tl_pipe.rolled_back_rows
        assert tl_tcp.steps == tl_pipe.steps
        assert tl_tcp.rows == tl_pipe.rows
        assert tl_tcp.events == tl_pipe.events


class _DieOnce(PageRankProgram):
    """Kills its hosting daemon mid-compute, once (flag-file guarded).

    Module-level so it pickles by reference across the TCP handshake.
    ``os._exit`` takes the whole daemon down mid-superstep — no reply, no
    FIN handshake — which is exactly the unplanned-crash shape the
    liveness monitor must catch.
    """

    def __init__(self, iterations, flag_path):
        super().__init__(iterations)
        self.flag = str(flag_path)

    def compute(self, ctx, state, messages):
        if (
            ctx.superstep == 3
            and ctx.vertex_id == 0
            and not os.path.exists(self.flag)
        ):
            with open(self.flag, "w") as f:
                f.write("x")
            os._exit(1)
        return super().compute(ctx, state, messages)


class TestUnplannedDaemonCrash:
    def test_mid_compute_daemon_exit_recovers(self, small_world, tmp_path):
        flag = tmp_path / "died-once"
        clean = run_job(pr_job(small_world))
        engine = TcpBSPEngine(
            JobSpec(
                program=_DieOnce(8, flag), graph=small_world,
                num_workers=4, checkpoint_interval=2,
            ),
            auto_daemons=3,
            heartbeat_timeout=10.0,
        )
        res = engine.run()
        assert flag.exists()
        assert res.recoveries
        assert clean.values == res.values

    def test_unplanned_crash_without_checkpoints_raises(self, ring10, tmp_path):
        engine = TcpBSPEngine(
            JobSpec(
                program=_DieOnce(8, tmp_path / "flag"),
                graph=ring10, num_workers=2,
            ),
            auto_daemons=2,
            heartbeat_timeout=10.0,
        )
        with pytest.raises(RuntimeError, match="checkpointing"):
            engine.run()


class TestKillDaemonOf:
    def test_returns_the_killed_endpoint(self, ring10):
        engine = TcpBSPEngine(pr_job(ring10), auto_daemons=2)
        try:
            target = engine._handles[1].endpoint
            assert engine.kill_daemon_of(1) == target
            assert not engine._handles[1].healthy()
        finally:
            engine.shutdown()

"""One session per host: co-hosted workers share one command stream, fold
each other's buckets in memory, and fail and relaunch together.

Placement is ``w mod n`` over the daemons, so ``auto_daemons`` decides
which workers share a session; none of it may show in values, trace
rows, the clock or the bill.
"""

import pytest

from repro.algorithms import BCProgram, PageRankProgram
from repro.algorithms.bc import start_messages
from repro.bsp import JobSpec, run_job
from repro.dist import ProcessBSPEngine
from repro.net import LocalDaemonFleet, TcpBSPEngine, TcpChannel, probe_endpoint
from repro.obs import FlightRecorder, MetricsRegistry, to_json_dict
from tests.bsp.test_dense_trace import GRAPHS, assert_same_run

JOBS = {
    # lifts: every worker is a dense shard
    "pagerank-dense": lambda g, **kw: JobSpec(
        PageRankProgram(6), g, num_workers=4, **kw),
    # refuses to lift: PartitionWorkers, object payloads, no combiner
    "bc-per-vertex": lambda g, **kw: JobSpec(
        BCProgram(), g, num_workers=4, initially_active=False,
        initial_messages=start_messages([0, 7, 33, 90]), **kw),
}


@pytest.mark.parametrize("job", list(JOBS))
def test_placement_is_invisible(job):
    g = GRAPHS["ws"]()
    sim = run_job(JOBS[job](g), "sim")
    runs = [ProcessBSPEngine(JOBS[job](g))] + [
        TcpBSPEngine(JOBS[job](g), auto_daemons=n) for n in (1, 2, 3, 4)
    ]
    for engine in runs:
        hosts = [h.worker_ids for h in engine._handles]
        res = engine.run()
        assert_same_run(sim, res)
        assert res.values == sim.values, hosts
    # 1 daemon: one session of four; 3 daemons: worker 3 joins worker 0
    assert [h.worker_ids for h in runs[1]._handles] == [(0, 1, 2, 3)]
    assert [h.worker_ids for h in runs[3]._handles] == [(0, 3), (1,), (2,)]
    assert [h.worker_ids for h in runs[0]._handles] == [(0,), (1,), (2,), (3,)]


def _commands_and_frames(monkeypatch, daemons):
    """Run W=2 PageRank on ``daemons`` auto daemons; count the commands
    the coordinator sends, by kind, and the frames it routes."""
    sent: dict[str, int] = {}
    send = TcpChannel.send

    def counting(channel, msg):
        sent[msg[0]] = sent.get(msg[0], 0) + 1
        return send(channel, msg)

    monkeypatch.setattr(TcpChannel, "send", counting)
    metrics = MetricsRegistry()
    job = JobSpec(PageRankProgram(10), GRAPHS["ws"](), num_workers=2,
                  metrics=metrics)
    res = TcpBSPEngine(job, auto_daemons=daemons).run()
    assert res.values == run_job(
        JobSpec(PageRankProgram(10), GRAPHS["ws"](), num_workers=2)).values
    frames = sum(
        s["value"] for m in to_json_dict(metrics)["metrics"]
        if m["name"] == "dist_frames_total" for s in m["series"])
    return res.supersteps, sent, frames


def test_one_daemon_gets_one_command_per_phase_and_no_payload(monkeypatch):
    steps, sent, frames = _commands_and_frames(monkeypatch, 1)
    assert steps > 5
    assert sent["compute"] == sent["deliver"] == steps
    assert sent["inject"] == sent["extract"] == 1
    assert frames == 0  # co-hosted buckets never reach the coordinator


def test_two_daemons_route_two_frames_per_superstep(monkeypatch):
    steps, sent, frames = _commands_and_frames(monkeypatch, 2)
    assert sent["compute"] == sent["deliver"] == 2 * steps
    # each worker's bucket for the other, every superstep but the last,
    # in which PageRank only halts
    assert frames == 2 * (steps - 1)


def _pair_job(**kw):
    return JobSpec(PageRankProgram(8), GRAPHS["ws"](), num_workers=2,
                   checkpoint_interval=2, **kw)


class TestHostIsTheUnitOfFailure:
    def test_both_workers_relaunch_as_one_session(self):
        sim = run_job(_pair_job(failure_schedule={2: 1}))
        fleet = LocalDaemonFleet(1)
        try:
            endpoint = fleet.endpoints()[0]
            flight = FlightRecorder()
            engine = TcpBSPEngine(_pair_job(flight=flight),
                                  endpoints=[endpoint])
            engine.kill_worker_at(2, 1)
            res = engine.run()
            served = probe_endpoint(endpoint)["sessions_served"]
        finally:
            fleet.shutdown()
        assert_same_run(sim, res)
        assert res.values == sim.values
        # one session at launch, one relaunch holding both workers
        assert served == 2
        assert [h.worker_ids for h in engine._handles] == [(0, 1)]
        respawns = [e for e in flight.snapshot() if e.kind == "worker-respawn"]
        assert [e.attrs["respawned_worker"] for e in respawns] == [0, 1]
        assert [e.attrs["respawns"] for e in respawns] == [1, 2]
        lost = {e.attrs["lost_worker"] for e in flight.snapshot()
                if e.kind == "worker-lost"}
        assert lost == {0, 1}

    def test_each_lost_worker_counts_against_the_budget(self):
        fleet = LocalDaemonFleet(1)
        try:
            engine = TcpBSPEngine(_pair_job(), endpoints=fleet.endpoints(),
                                  max_respawns=1)
            engine.kill_worker_at(2, 1)
            with pytest.raises(RuntimeError, match="respawn budget"):
                engine.run()
        finally:
            fleet.shutdown()

"""Worker sessions host a dense shard when the program lifts.

Contract (a) of docs/runtime.md: process and tcp stay bitwise equal to
the sim at the same worker count — values, every trace row, the clock,
the bill, the cost report and the aggregates — whichever operator a
session runs.  The shard folds like the partition worker it replaces:
local boxes at compute time, remote boxes in source-worker order,
injected messages after the data plane's; a peel plan prunes the arcs a
worker's overlay would.
"""

import numpy as np
import pytest

from repro.algorithms import BCProgram, KCoreProgram, PageRankProgram, SSSPProgram
from repro.algorithms.bc import start_messages
from repro.bsp import JobSpec, SuperstepObserver, run_job
from repro.bsp.dense_ref import shard_plan
from repro.bsp.dense_shard import DenseLayout, DenseShard
from repro.bsp.worker import PartitionWorker
from repro.check import SanitizingProgram
from repro.dist import ProcessBSPEngine
from repro.net import TcpBSPEngine, WorkerInit, WorkerSession
from repro.net.codec import unpack_frame
from tests.bsp.test_dense_trace import GRAPHS, PROGRAMS, assert_same_run

def _engine(kind, job):
    if kind == "tcp":
        return TcpBSPEngine(job, auto_daemons=1)
    return ProcessBSPEngine(job)


def _equal_to_sim(kind, make_job, shard=True):
    sim = run_job(make_job(), "sim")
    engine = _engine(kind, make_job())
    assert (engine._plan is not None) == shard
    res = engine.run()
    assert_same_run(sim, res)
    assert res.values == sim.values
    return res


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("graph", list(GRAPHS))
@pytest.mark.parametrize("program", list(PROGRAMS))
def test_process_shards_equal_sim(program, graph, workers):
    g = GRAPHS[graph]()
    _equal_to_sim(
        "process", lambda: JobSpec(PROGRAMS[program](), g, num_workers=workers)
    )


@pytest.mark.parametrize("graph", list(GRAPHS))
@pytest.mark.parametrize("program", list(PROGRAMS))
def test_tcp_shards_equal_sim(program, graph):
    g = GRAPHS[graph]()
    _equal_to_sim("tcp", lambda: JobSpec(PROGRAMS[program](), g, num_workers=3))


@pytest.mark.parametrize("kind", ["process", "tcp"])
def test_refused_jobs_keep_the_partition_worker(kind):
    g = GRAPHS["ws"]()
    _equal_to_sim(  # a peel plan started from injected messages
        kind, lambda: JobSpec(KCoreProgram(k=6), g, num_workers=3,
                              initial_messages=[(0, (0, 1))]),
        shard=False,
    )
    _equal_to_sim(  # a wrapped program: compute() must really run
        kind, lambda: JobSpec(SanitizingProgram(PageRankProgram(4)), g,
                              num_workers=3),
        shard=False,
    )
    _equal_to_sim(  # does not lift
        kind, lambda: JobSpec(BCProgram(), g, num_workers=3,
                              initially_active=False,
                              initial_messages=start_messages([0, 5])),
        shard=False,
    )


@pytest.mark.parametrize("program", ["pagerank", "sssp", "kcore"])
def test_checkpoint_and_scheduled_failure(program):
    g = GRAPHS["ws"]()
    res = _equal_to_sim("process", lambda: JobSpec(
        PROGRAMS[program](), g, num_workers=3,
        checkpoint_interval=2, failure_schedule={3: 1},
    ))
    assert res.recoveries


@pytest.mark.parametrize("program", ["pagerank", "sssp", "kcore"])
def test_tcp_daemon_kill_recovers_bit_identical(program):
    g = GRAPHS["ws"]()

    def job():
        return JobSpec(PROGRAMS[program](), g, num_workers=3, checkpoint_interval=2)

    clean = run_job(job(), "sim")
    engine = TcpBSPEngine(job(), auto_daemons=2)
    assert engine._plan is not None
    engine.kill_worker_at(3, 1)
    res = engine.run()
    assert res.recoveries and res.values == clean.values
    assert res.total_time > clean.total_time


@pytest.mark.parametrize("kind", ["process", "tcp"])
def test_injected_messages_follow_the_data_plane(kind):
    g = GRAPHS["rmat"]()
    for kwargs in (
        dict(initially_active=False, initial_messages=[(0, 0.0), (0, 1.5)]),
        dict(initially_active=[0, 3, 9]),
    ):
        _equal_to_sim(kind, lambda: JobSpec(
            SSSPProgram(source=0), g, num_workers=3, **kwargs))

    class InjectAt(SuperstepObserver):
        """Control-plane messages landing beside an all-arcs scatter's."""

        def on_superstep_end(self, engine, stats):
            if stats.index in (1, 2, 4):
                engine.inject_messages([(0, 0.125), (0, 0.5), (7, 0.25)])

    for use_combiner in (True, False):
        res = _equal_to_sim(kind, lambda: JobSpec(
            PageRankProgram(6, use_combiner=use_combiner), g, num_workers=3,
            initial_messages=[(0, 0.25), (5, 0.5), (5, 1.0)],
            observers=[InjectAt()],
        ))
        assert sum(step.injected for step in res.trace) == 12


def test_sessions_host_the_kind_their_init_names():
    # what the coordinator sends decides what a session hosts: a shard when
    # the program lifts, a per-vertex worker otherwise
    g = GRAPHS["ws"]()
    for make_job, kind in (
        (lambda: JobSpec(PageRankProgram(4), g, num_workers=3), DenseShard),
        (lambda: JobSpec(BCProgram(), g, num_workers=3, initially_active=False,
                         initial_messages=start_messages([0, 5])),
         PartitionWorker),
    ):
        sim = run_job(make_job(), "sim")
        engine = ProcessBSPEngine(make_job())
        for w in range(3):
            session = WorkerSession(engine._host_init((w,)))
            assert [type(x) for x in session.workers] == [kind]
            assert session.hosts_shard == (kind is DenseShard)
        res = engine.run()
        assert_same_run(sim, res)
        assert res.values == sim.values


def _sessions(program, graph, workers=2):
    job = JobSpec(program, graph, num_workers=workers)
    plan = shard_plan(program)
    layout = DenseLayout(graph, job.resolve_partition().assignment, workers,
                         plan)
    return [
        WorkerSession(WorkerInit((w,), program, job.perf_model, 0.1, False,
                                 plan=plan, shards=[layout.slice(w)]))
        for w in range(workers)
    ]


@pytest.mark.parametrize("use_combiner", [True, False])
def test_session_frames_are_array_pairs_and_snapshots_round_trip(use_combiner):
    g = GRAPHS["ws"]()
    sessions = _sessions(PageRankProgram(6, use_combiner=use_combiner), g)
    assert all(isinstance(s.workers[0], DenseShard) for s in sessions)

    def superstep(step):
        computed = [s.handle("compute", 0, (step, {}))[2] for s in sessions]
        for dst, s in enumerate(sessions):
            inbound = {key: frame for c in computed
                       for key, frame in c["frames"].items() if key[1] == dst}
            kind, _epoch, report = s.handle("deliver", 0, inbound)
            assert kind == "delivered"
        return computed

    frames = superstep(0)[0]["frames"]
    (frame,) = frames.values()
    rows, vals = unpack_frame(frame)
    assert rows.dtype == np.int64 and vals.dtype == np.float64
    assert rows.shape == vals.shape and rows.size
    if use_combiner:  # one box per destination row, in row order
        assert (np.diff(rows) > 0).all()

    snaps = [s.handle("snapshot", 0, None) for s in sessions]
    assert {kind for kind, _epoch, _snap in snaps} == {"snapshotted"}

    def states():  # each session's state column, as Python scalars
        return [s.workers[0].columns()[1].tolist() for s in sessions]

    before = states()
    superstep(1)
    after = states()
    assert after != before
    for s, (_kind, _epoch, snap) in zip(sessions, snaps):
        kind, _epoch, (report,) = s.handle("restore", 0, snap)
        assert kind == "restored"
        assert report["queue_depth"] == s.workers[0].buffered_message_count() > 0
    assert states() == before
    superstep(1)  # the replay from the restored inboxes is exact
    assert states() == after


def test_peel_frames_carry_the_source_vertices():
    g = GRAPHS["ws"]()
    (a, b) = _sessions(KCoreProgram(k=6), g)
    computed = a.handle("compute", 0, (0, {}))[2]
    (frame,) = computed["frames"].values()
    rows, vals, sources = unpack_frame(frame)
    assert rows.shape == vals.shape == sources.shape and rows.size
    # every source is a vertex of the sending worker, in its emit order
    assert set(sources.tolist()) <= set(a.workers[0].vertex_ids.tolist())
    assert (np.diff(sources) >= 0).all()

"""Superstep statistics and JobTrace series extraction."""

import numpy as np
import pytest

from repro.algorithms import PageRankProgram
from repro.bsp import JobSpec, run_job
from repro.bsp.superstep import JobTrace, SuperstepStats, WorkerStepStats


def make_step(index, msgs_per_worker, elapsed=1.0):
    s = SuperstepStats(index=index, num_workers=len(msgs_per_worker))
    for w, m in enumerate(msgs_per_worker):
        ws = WorkerStepStats(worker=w, msgs_out_remote=m, compute_time=0.1)
        s.workers.append(ws)
    s.elapsed = elapsed
    return s


class TestWorkerStepStats:
    def test_busy_time_sums_components(self):
        ws = WorkerStepStats(
            worker=0, compute_time=1.0, serialize_time=0.5, network_time=0.25
        )
        assert ws.busy_time == 1.75

    def test_elapsed_applies_slowdown(self):
        ws = WorkerStepStats(worker=0, compute_time=2.0, mem_slowdown=3.0)
        assert ws.elapsed == 6.0

    def test_msgs_out_totals(self):
        ws = WorkerStepStats(worker=0, msgs_out_local=3, msgs_out_remote=4)
        assert ws.msgs_out == 7


class TestSuperstepStats:
    def test_totals(self):
        s = make_step(0, [10, 20, 30])
        assert s.total_messages == 60
        assert s.messages_per_worker.tolist() == [10, 20, 30]

    def test_imbalance(self):
        s = make_step(0, [10, 10, 40])
        assert s.message_imbalance == pytest.approx(2.0)

    def test_imbalance_no_messages(self):
        s = make_step(0, [0, 0])
        assert s.message_imbalance == 1.0

    def test_peak_memory(self):
        s = make_step(0, [1, 1])
        s.workers[1].memory_bytes = 500.0
        assert s.peak_memory == 500.0


class TestJobTrace:
    @pytest.fixture
    def trace(self):
        t = JobTrace()
        t.append(make_step(0, [5, 5], elapsed=1.0))
        t.append(make_step(1, [50, 10], elapsed=2.0))
        t.append(make_step(2, [1, 1], elapsed=0.5))
        return t

    def test_total_time(self, trace):
        assert trace.total_time == 3.5

    def test_series_messages(self, trace):
        assert trace.series_messages().tolist() == [10, 60, 2]

    def test_series_per_worker_matrix(self, trace):
        m = trace.matrix("msgs_out")
        assert m.shape == (3, 2)
        assert m[1].tolist() == [50, 10]

    def test_series_per_worker_pads_elastic_runs(self):
        t = JobTrace()
        t.append(make_step(0, [5, 5, 5, 5]))
        t.append(make_step(1, [9, 9]))
        m = t.matrix("msgs_out")
        assert m.shape == (2, 4)
        assert m[1].tolist() == [9, 9, 0, 0]

    def test_indexing_and_iteration(self, trace):
        assert len(trace) == 3
        assert trace[1].index == 1
        assert [s.index for s in trace] == [0, 1, 2]

    def test_empty_trace(self):
        t = JobTrace()
        assert t.total_time == 0.0
        assert t.peak_memory == 0.0
        assert t.matrix("msgs_out").shape == (0, 0)
        assert t.utilization() == 0.0


class TestTraceFromRealRun:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.graph import generators as gen

        g = gen.watts_strogatz(60, 4, 0.3, seed=7)
        return run_job(JobSpec(program=PageRankProgram(10), graph=g, num_workers=4))

    def test_pagerank_messages_flat(self, result):
        msgs = result.trace.series_messages()[1:-1]  # steady-state steps
        assert msgs.std() / msgs.mean() < 0.01  # the paper's flat line

    def test_utilization_between_zero_and_one(self, result):
        u = result.trace.utilization()
        assert 0.0 < u < 1.0

    def test_breakdown_sums_to_total(self, result):
        b = result.trace.breakdown()
        assert b["compute_io"] + b["barrier_wait"] == pytest.approx(b["total"])
        assert b["compute_io"] > 0 and b["barrier_wait"] > 0

    def test_sim_time_is_cumulative(self, result):
        st = result.trace.series_sim_time()
        assert np.all(np.diff(st) > 0)
        assert st[-1] == pytest.approx(result.total_time)

    def test_active_vertices_drop_at_end(self, result):
        active = result.trace.series_active_vertices()
        assert active[0] == 60
        assert active[-1] == 0

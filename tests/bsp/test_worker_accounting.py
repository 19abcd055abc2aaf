"""Worker-level resource accounting: routing, buffers, memory footprint."""

import numpy as np
import pytest

from repro.bsp import JobSpec, VertexProgram, run_job
from repro.cloud.costmodel import PerfModel
from repro.graph import generators as gen


class Broadcaster(VertexProgram):
    """Every vertex sends one fixed-size message per neighbor in step 0."""

    def compute(self, ctx, state, messages):
        if ctx.superstep == 0:
            ctx.send_to_neighbors("payload")
        ctx.vote_to_halt()
        return state

    def payload_nbytes(self, payload):
        return 100


class TestRouting:
    def test_local_remote_split_matches_partition(self, ring10):
        from repro.partition import ModuloPartitioner

        # Modulo on a ring: every edge crosses workers when k=2.
        res = run_job(
            JobSpec(
                program=Broadcaster(), graph=ring10, num_workers=2,
                partitioner=ModuloPartitioner(),
            )
        )
        step0 = res.trace.steps[0]
        assert step0.remote_messages == 20
        assert sum(w.msgs_out_local for w in step0.workers) == 0

    def test_single_worker_all_local(self, ring10):
        res = run_job(JobSpec(program=Broadcaster(), graph=ring10, num_workers=1))
        step0 = res.trace.steps[0]
        assert step0.remote_messages == 0
        assert step0.workers[0].msgs_out_local == 20

    def test_bytes_out_use_wire_size(self, ring10):
        from repro.partition import ModuloPartitioner

        model = PerfModel()
        res = run_job(
            JobSpec(
                program=Broadcaster(), graph=ring10, num_workers=2,
                partitioner=ModuloPartitioner(), perf_model=model,
            )
        )
        step0 = res.trace.steps[0]
        total_out = sum(w.bytes_out for w in step0.workers)
        assert total_out == 20 * model.message_wire_bytes(100)

    def test_bytes_in_equal_bytes_out_cluster_wide(self, small_world):
        res = run_job(JobSpec(program=Broadcaster(), graph=small_world, num_workers=4))
        step0 = res.trace.steps[0]
        assert sum(w.bytes_in for w in step0.workers) == pytest.approx(
            sum(w.bytes_out for w in step0.workers)
        )

    def test_peer_counts_bounded_by_fleet(self, small_world):
        res = run_job(JobSpec(program=Broadcaster(), graph=small_world, num_workers=4))
        for s in res.trace:
            for w in s.workers:
                assert 0 <= w.peers_out <= 3
                assert 0 <= w.peers_in <= 3


class TestMemoryAccounting:
    def test_footprint_includes_buffered_messages(self, ring10):
        res = run_job(JobSpec(program=Broadcaster(), graph=ring10, num_workers=2))
        # Step 0 buffers 20 messages for step 1; step 1 buffers none.
        assert res.trace.steps[0].peak_memory > res.trace.steps[1].peak_memory

    def test_state_growth_is_tracked(self):
        class Accumulator(VertexProgram):
            def init_state(self, v, g):
                return []

            def compute(self, ctx, state, messages):
                state.extend(["x"] * 50)
                if ctx.superstep < 3:
                    ctx.send(ctx.vertex_id, 1)
                ctx.vote_to_halt()
                return state

            def state_nbytes(self, state):
                return 16 + len(state)

        g = gen.ring(6)
        res = run_job(JobSpec(program=Accumulator(), graph=g, num_workers=2))
        mems = res.trace.series_peak_memory()
        assert np.all(np.diff(mems[:3]) > 0)  # grows while accumulating

    def test_spill_penalty_applied_when_tiny_memory(self, small_world):
        from repro.cloud.specs import scaled_large

        ample = run_job(
            JobSpec(
                program=Broadcaster(), graph=small_world, num_workers=2,
                vm_spec=scaled_large(1 << 40),
            )
        )
        tiny = run_job(
            JobSpec(
                program=Broadcaster(), graph=small_world, num_workers=2,
                vm_spec=scaled_large(10_000),
                perf_model=PerfModel(restart_overflow_ratio=1e9),
            )
        )
        assert tiny.total_time > ample.total_time
        assert tiny.trace.steps[0].workers[0].mem_slowdown > 1.0

    def test_restart_recorded_and_charged(self, small_world):
        from repro.cloud.specs import scaled_large

        model = PerfModel(restart_overflow_ratio=0.01, restart_time=500.0)
        res = run_job(
            JobSpec(
                program=Broadcaster(), graph=small_world, num_workers=2,
                vm_spec=scaled_large(10_000), perf_model=model,
            )
        )
        assert res.trace.num_restarts > 0
        assert res.total_time > 500.0


class TestStateBytesEstimator:
    def test_default_estimates(self):
        from repro.bsp.api import _estimate_nbytes

        assert _estimate_nbytes(None) == 0
        assert _estimate_nbytes(3) == 8
        assert _estimate_nbytes(3.5) == 8
        assert _estimate_nbytes("abcd") == 4
        assert _estimate_nbytes(np.zeros(10)) == 80
        assert _estimate_nbytes((1, 2)) == 16 + 2 * 16
        assert _estimate_nbytes({"a": 1}) > 0

    def test_deep_nesting_capped(self):
        from repro.bsp.api import _estimate_nbytes

        deep = [[[[[1]]]]]
        assert _estimate_nbytes(deep) < 1000

"""Pregel execution semantics: supersteps, halting, message delivery."""

import numpy as np
import pytest

from repro.bsp import BSPEngine, JobSpec, SumCombiner, VertexProgram, run_job
from repro.cloud import SMALL_VM
from repro.graph import generators as gen
from repro.graph.builder import from_edges


class EchoOnce(VertexProgram):
    """Sends its id to neighbors in superstep 0, then halts."""

    def compute(self, ctx, state, messages):
        if ctx.superstep == 0:
            ctx.send_to_neighbors(ctx.vertex_id)
        ctx.vote_to_halt()
        return sorted(messages)


class CountSupersteps(VertexProgram):
    def __init__(self, rounds):
        self.rounds = rounds

    def compute(self, ctx, state, messages):
        state = (state or 0) + 1
        if ctx.superstep < self.rounds:
            ctx.send(ctx.vertex_id, "tick")  # self-message keeps it alive
        ctx.vote_to_halt()
        return state


class TestHalting:
    def test_all_halt_no_messages_ends_job(self, ring10):
        res = run_job(JobSpec(program=EchoOnce(), graph=ring10, num_workers=2))
        assert res.halted
        assert res.supersteps == 2  # step 0 sends, step 1 drains

    def test_message_reactivates_halted_vertex(self, ring10):
        res = run_job(JobSpec(program=EchoOnce(), graph=ring10, num_workers=2))
        # every vertex received both neighbors' ids in superstep 1
        assert res.values[0] == [1, 9]
        assert res.values[5] == [4, 6]

    def test_self_message_loop_runs_n_rounds(self, ring10):
        res = run_job(
            JobSpec(program=CountSupersteps(5), graph=ring10, num_workers=2)
        )
        assert res.supersteps == 6
        assert all(v == 6 for v in res.values.values())

    def test_max_supersteps_cap(self, ring10):
        class Forever(VertexProgram):
            def compute(self, ctx, state, messages):
                ctx.send(ctx.vertex_id, 1)
                ctx.vote_to_halt()
                return None

        res = run_job(
            JobSpec(program=Forever(), graph=ring10, num_workers=2, max_supersteps=7)
        )
        assert not res.halted
        assert res.supersteps == 7

    def test_initially_inactive_job_ends_immediately(self, ring10):
        res = run_job(
            JobSpec(
                program=EchoOnce(), graph=ring10, num_workers=2,
                initially_active=False,
            )
        )
        assert res.supersteps == 0
        assert res.halted

    def test_initially_active_subset(self, ring10):
        res = run_job(
            JobSpec(
                program=EchoOnce(), graph=ring10, num_workers=2,
                initially_active=[3],
            )
        )
        # Only vertex 3 computes in step 0; its neighbors drain in step 1.
        assert res.values[2] == [3] and res.values[4] == [3]
        assert res.values[7] is None  # never computed: initial state

    def test_initial_messages_wake_targets(self, ring10):
        res = run_job(
            JobSpec(
                program=EchoOnce(), graph=ring10, num_workers=2,
                initially_active=False, initial_messages=[(4, "go")],
            )
        )
        # Vertex 4 computed (receiving "go"), its sends reached 3 and 5.
        assert res.values[4] == ["go"]
        assert res.values[3] == [4] and res.values[5] == [4]


class TestMessageSemantics:
    def test_messages_visible_next_superstep_only(self, path5):
        seen_at = {}

        class Recorder(VertexProgram):
            def compute(self, ctx, state, messages):
                if messages:
                    seen_at[ctx.vertex_id] = ctx.superstep
                if ctx.superstep == 0 and ctx.vertex_id == 0:
                    ctx.send(1, "x")
                ctx.vote_to_halt()
                return None

        run_job(JobSpec(program=Recorder(), graph=path5, num_workers=2))
        assert seen_at == {1: 1}

    def test_send_to_unknown_vertex_raises(self, path5):
        class Bad(VertexProgram):
            def compute(self, ctx, state, messages):
                ctx.send(999, "x")
                return None

        with pytest.raises(ValueError, match="unknown vertex"):
            run_job(JobSpec(program=Bad(), graph=path5, num_workers=2))

    def test_messages_travel_one_edge_per_superstep(self):
        g = gen.path(6)
        arrival = {}

        class Wave(VertexProgram):
            def compute(self, ctx, state, messages):
                if messages and ctx.vertex_id not in arrival:
                    arrival[ctx.vertex_id] = ctx.superstep
                    ctx.send_to_neighbors("w")
                if ctx.superstep == 0 and ctx.vertex_id == 0:
                    arrival[0] = 0
                    ctx.send_to_neighbors("w")
                ctx.vote_to_halt()
                return None

        run_job(JobSpec(program=Wave(), graph=g, num_workers=3))
        assert arrival == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5}

    def test_message_to_self_delivered(self, ring10):
        class SelfSend(VertexProgram):
            def compute(self, ctx, state, messages):
                if ctx.superstep == 0:
                    ctx.send(ctx.vertex_id, "me")
                ctx.vote_to_halt()
                return list(messages)

        res = run_job(JobSpec(program=SelfSend(), graph=ring10, num_workers=3))
        assert all(v == ["me"] for v in res.values.values())

    def test_duplicate_messages_all_delivered(self, path5):
        class Multi(VertexProgram):
            def compute(self, ctx, state, messages):
                if ctx.superstep == 0 and ctx.vertex_id == 0:
                    for _ in range(3):
                        ctx.send(1, 7)
                ctx.vote_to_halt()
                return list(messages)

        res = run_job(JobSpec(program=Multi(), graph=path5, num_workers=2))
        assert res.values[1] == [7, 7, 7]


class TestDeterminism:
    def test_identical_runs_identical_traces(self, small_world):
        from repro.algorithms import PageRankProgram

        specs = [
            JobSpec(program=PageRankProgram(5), graph=small_world, num_workers=4)
            for _ in range(2)
        ]
        r1, r2 = run_job(specs[0]), run_job(specs[1])
        assert r1.values == r2.values
        assert r1.trace.series_messages().tolist() == r2.trace.series_messages().tolist()
        assert r1.total_time == r2.total_time

    def test_worker_count_does_not_change_results(self, small_world):
        from repro.algorithms import PageRankProgram

        vals = []
        for w in (1, 3, 8):
            res = run_job(
                JobSpec(program=PageRankProgram(8), graph=small_world, num_workers=w)
            )
            vals.append(res.values_array())
        assert np.allclose(vals[0], vals[1])
        assert np.allclose(vals[0], vals[2])

    def test_partitioner_does_not_change_results(self, small_world):
        from repro.algorithms import PageRankProgram
        from repro.partition import MultilevelPartitioner, StreamingGreedy

        base = run_job(
            JobSpec(program=PageRankProgram(8), graph=small_world, num_workers=4)
        ).values_array()
        for part in (MultilevelPartitioner(seed=1), StreamingGreedy()):
            res = run_job(
                JobSpec(
                    program=PageRankProgram(8), graph=small_world, num_workers=4,
                    partitioner=part,
                )
            )
            assert np.allclose(base, res.values_array())


class TestJobSpecValidation:
    def test_zero_workers_rejected(self, ring10):
        with pytest.raises(ValueError):
            JobSpec(program=EchoOnce(), graph=ring10, num_workers=0)

    def test_failure_without_checkpointing_rejected(self, ring10):
        with pytest.raises(ValueError, match="checkpoint"):
            JobSpec(
                program=EchoOnce(), graph=ring10, num_workers=2,
                failure_schedule={1: 0},
            )

    def test_explicit_partition_must_match_workers(self, ring10):
        from repro.partition import HashPartitioner

        p = HashPartitioner().partition(ring10, 3)
        with pytest.raises(ValueError, match="num_parts"):
            JobSpec(program=EchoOnce(), graph=ring10, num_workers=2, partition=p)

    def test_explicit_partition_must_cover_graph(self, ring10, path5):
        from repro.partition import HashPartitioner

        p = HashPartitioner().partition(path5, 2)
        with pytest.raises(ValueError, match="cover"):
            JobSpec(program=EchoOnce(), graph=ring10, num_workers=2, partition=p)

    def test_inject_to_unknown_vertex_raises(self, ring10):
        engine = BSPEngine(JobSpec(program=EchoOnce(), graph=ring10, num_workers=2))
        with pytest.raises(ValueError):
            engine.inject_message(42, "x")


class TestAccountingBasics:
    def test_time_and_cost_positive(self, ring10):
        res = run_job(JobSpec(program=EchoOnce(), graph=ring10, num_workers=2))
        assert res.total_time > 0
        assert res.total_cost > 0

    def test_more_workers_cost_more_for_same_steps(self, small_world):
        from repro.algorithms import PageRankProgram

        costs = {}
        for w in (2, 8):
            res = run_job(
                JobSpec(program=PageRankProgram(5), graph=small_world, num_workers=w)
            )
            costs[w] = res.total_cost / res.total_time  # $ per second
        assert costs[8] > costs[2]

    def test_remote_vs_local_message_split(self, ring10):
        # 1 worker -> all messages local; 10 workers -> mostly remote.
        res1 = run_job(JobSpec(program=EchoOnce(), graph=ring10, num_workers=1))
        resN = run_job(JobSpec(program=EchoOnce(), graph=ring10, num_workers=10))
        assert res1.trace.steps[0].remote_messages == 0
        assert resN.trace.steps[0].remote_messages > 0
        assert res1.trace.total_messages == resN.trace.total_messages

    def test_manager_vm_billed(self, ring10):
        res = run_job(JobSpec(program=EchoOnce(), graph=ring10, num_workers=2))
        assert "small" in res.cost.manager_spec
        assert res.cost.manager == pytest.approx(
            res.total_time * SMALL_VM.price_per_second, rel=1e-12
        )
        assert res.cost.manager > 0

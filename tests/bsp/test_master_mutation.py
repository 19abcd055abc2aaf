"""Master compute (GPS-style) and topology mutation (Pregel extension)."""

import networkx as nx
import numpy as np
import pytest

from repro.algorithms import (
    ConvergentPageRankProgram,
    KCoreProgram,
    PageRankProgram,
)
from repro.bsp import JobSpec, SumAggregator, VertexProgram, run_job
from tests.conftest import to_networkx


class TestMasterCompute:
    def test_master_halt_stops_job(self, ring10):
        class HaltAtThree(VertexProgram):
            def compute(self, ctx, state, messages):
                ctx.send(ctx.vertex_id, 1)  # would run forever
                ctx.vote_to_halt()
                return (state or 0) + 1

            def master_compute(self, master):
                if master.superstep == 3:
                    master.halt_job()

        res = run_job(JobSpec(program=HaltAtThree(), graph=ring10, num_workers=2))
        assert res.halted
        assert res.supersteps == 4  # supersteps 0..3

    def test_master_publish_visible_to_vertices(self, ring10):
        seen = {}

        class PublishDemo(VertexProgram):
            def aggregators(self):
                return {"broadcast": SumAggregator()}

            def compute(self, ctx, state, messages):
                if ctx.superstep == 1:
                    seen[ctx.vertex_id] = ctx.aggregated("broadcast")
                    ctx.vote_to_halt()
                else:
                    ctx.send(ctx.vertex_id, 1)
                    ctx.vote_to_halt()
                return state

            def master_compute(self, master):
                if master.superstep == 0:
                    master.publish("broadcast", 42)

        run_job(JobSpec(program=PublishDemo(), graph=ring10, num_workers=3))
        assert all(v == 42 for v in seen.values())

    def test_publish_unknown_aggregator_raises(self, ring10):
        class Bad(VertexProgram):
            def compute(self, ctx, state, messages):
                ctx.vote_to_halt()
                return state

            def master_compute(self, master):
                master.publish("nope", 1)

        with pytest.raises(KeyError):
            run_job(JobSpec(program=Bad(), graph=ring10, num_workers=2))

    def test_master_context_exposes_job_state(self, ring10):
        observed = []

        class Spy(VertexProgram):
            def compute(self, ctx, state, messages):
                ctx.vote_to_halt()
                return state

            def master_compute(self, master):
                observed.append(
                    (master.superstep, master.num_workers, master.active_vertices)
                )

        run_job(JobSpec(program=Spy(), graph=ring10, num_workers=3))
        assert observed == [(0, 3, 0)]


class TestConvergentPageRank:
    def test_converges_to_fixed_iteration_answer(self, small_world):
        prog = ConvergentPageRankProgram(tol=1e-12)
        res = run_job(JobSpec(program=prog, graph=small_world, num_workers=4))
        fixed = run_job(
            JobSpec(program=PageRankProgram(100), graph=small_world, num_workers=4)
        )
        assert np.allclose(res.values_array(), fixed.values_array(), atol=1e-9)
        assert prog.converged_at is not None

    def test_loose_tolerance_halts_earlier(self, small_world):
        loose = run_job(
            JobSpec(
                program=ConvergentPageRankProgram(tol=1e-3),
                graph=small_world, num_workers=4,
            )
        )
        tight = run_job(
            JobSpec(
                program=ConvergentPageRankProgram(tol=1e-12),
                graph=small_world, num_workers=4,
            )
        )
        assert loose.supersteps < tight.supersteps

    def test_max_iterations_guard(self, small_world):
        res = run_job(
            JobSpec(
                program=ConvergentPageRankProgram(tol=1e-30, max_iterations=5),
                graph=small_world, num_workers=4,
            )
        )
        assert res.supersteps <= 6

    def test_validation(self):
        with pytest.raises(ValueError):
            ConvergentPageRankProgram(tol=0)
        with pytest.raises(ValueError):
            ConvergentPageRankProgram(damping=1.5)


class TestTopologyMutation:
    def test_removed_edge_invisible_next_superstep(self, ring10):
        degrees = {}

        class RemoveOne(VertexProgram):
            def compute(self, ctx, state, messages):
                if ctx.superstep == 0:
                    ctx.remove_out_edge(int(ctx.out_neighbors[0]))
                    assert ctx.out_degree == 2  # not yet applied
                    ctx.send(ctx.vertex_id, 1)
                else:
                    degrees[ctx.vertex_id] = ctx.out_degree
                ctx.vote_to_halt()
                return state

        run_job(JobSpec(program=RemoveOne(), graph=ring10, num_workers=3))
        assert all(d == 1 for d in degrees.values())

    def test_added_edge_used_by_send_to_neighbors(self, path5):
        received = {}

        class AddShortcut(VertexProgram):
            def compute(self, ctx, state, messages):
                for m in messages:
                    received.setdefault(ctx.vertex_id, []).append(m)
                if ctx.superstep == 0 and ctx.vertex_id == 0:
                    ctx.add_out_edge(4)
                    ctx.send(ctx.vertex_id, "tick")
                elif ctx.superstep == 1 and ctx.vertex_id == 0:
                    ctx.send_to_neighbors("hello")
                ctx.vote_to_halt()
                return state

        run_job(JobSpec(program=AddShortcut(), graph=path5, num_workers=2))
        assert "hello" in received.get(4, [])
        assert "hello" in received.get(1, [])

    def test_remove_nonexistent_edge_is_noop(self, ring10):
        class RemoveBogus(VertexProgram):
            def compute(self, ctx, state, messages):
                if ctx.superstep == 0:
                    ctx.remove_out_edge((ctx.vertex_id + 5) % 10)
                    ctx.send(ctx.vertex_id, 1)
                else:
                    assert ctx.out_degree == 2
                ctx.vote_to_halt()
                return state

        run_job(JobSpec(program=RemoveBogus(), graph=ring10, num_workers=2))

    def test_mutation_to_unknown_vertex_rejected(self, ring10):
        class Bad(VertexProgram):
            def compute(self, ctx, state, messages):
                ctx.add_out_edge(999)
                return state

        with pytest.raises(ValueError, match="unknown vertex"):
            run_job(JobSpec(program=Bad(), graph=ring10, num_workers=2))

    def test_mutations_survive_checkpoint_recovery(self, ring10):
        class RemoveThenCount(VertexProgram):
            def compute(self, ctx, state, messages):
                if ctx.superstep == 0:
                    ctx.remove_out_edge(int(ctx.out_neighbors[0]))
                if ctx.superstep < 6:
                    ctx.send(ctx.vertex_id, 1)
                ctx.vote_to_halt()
                return ctx.out_degree

        res = run_job(
            JobSpec(
                program=RemoveThenCount(), graph=ring10, num_workers=2,
                checkpoint_interval=2, failure_schedule={4: 1},
            )
        )
        assert len(res.recoveries) == 1
        assert all(v == 1 for v in res.values.values())


class TestKCore:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_networkx(self, small_world, k):
        res = run_job(
            JobSpec(program=KCoreProgram(k), graph=small_world, num_workers=4)
        )
        ours = {v for v, alive in res.values.items() if alive}
        theirs = set(nx.k_core(to_networkx(small_world), k).nodes())
        assert ours == theirs

    def test_k2_on_tree_is_empty(self, tree3):
        res = run_job(JobSpec(program=KCoreProgram(2), graph=tree3, num_workers=2))
        assert not any(res.values.values())

    def test_complete_graph_survives(self, k5):
        res = run_job(JobSpec(program=KCoreProgram(4), graph=k5, num_workers=2))
        assert all(res.values.values())

    def test_ring_with_tail(self):
        from repro.graph.builder import from_edges

        # Ring 0-5 plus a dangling path 6-7: 2-core = the ring.
        edges = [(i, (i + 1) % 6) for i in range(6)] + [(0, 6), (6, 7)]
        g = from_edges(8, edges, undirected=True)
        res = run_job(JobSpec(program=KCoreProgram(2), graph=g, num_workers=3))
        assert {v for v, a in res.values.items() if a} == {0, 1, 2, 3, 4, 5}

    def test_validation(self):
        with pytest.raises(ValueError):
            KCoreProgram(0)

    def test_kcore_under_live_scaling(self, small_world):
        """Mutations must migrate correctly when the fleet resizes."""
        from repro.elastic import ElasticResizer, ScalingPolicy

        class Toggle(ScalingPolicy):
            def choose(self, ctx):
                return 6 if ctx.workers == 3 else 3

        res = run_job(
            JobSpec(
                program=KCoreProgram(2), graph=small_world, num_workers=3,
                observers=[ElasticResizer(Toggle(), low=3, high=6)],
            )
        )
        ours = {v for v, alive in res.values.items() if alive}
        theirs = set(nx.k_core(to_networkx(small_world), 2).nodes())
        assert ours == theirs

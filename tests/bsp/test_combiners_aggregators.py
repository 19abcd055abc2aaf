"""Combiners and aggregators (Pregel extensions)."""

import pytest

from repro.bsp import (
    AndAggregator,
    CountAggregator,
    JobSpec,
    MaxAggregator,
    MaxCombiner,
    MinAggregator,
    MinCombiner,
    OrAggregator,
    SumAggregator,
    SumCombiner,
    VertexProgram,
    run_job,
)


class TestCombinerPrimitives:
    def test_sum(self):
        assert SumCombiner().combine(2, 3) == 5

    def test_min(self):
        assert MinCombiner().combine(2, 3) == 2

    def test_max(self):
        assert MaxCombiner().combine(2, 3) == 3


class TestAggregatorPrimitives:
    @pytest.mark.parametrize(
        "agg,values,expected",
        [
            (SumAggregator(), [1, 2, 3], 6),
            (MinAggregator(), [5, 2, 9], 2),
            (MaxAggregator(), [5, 2, 9], 9),
            (AndAggregator(), [True, True, False], False),
            (AndAggregator(), [True, True], True),
            (OrAggregator(), [False, False, True], True),
            (OrAggregator(), [False], False),
            (CountAggregator(), ["a", "b", "c"], 3),
        ],
    )
    def test_reduce(self, agg, values, expected):
        acc = agg.identity()
        for v in values:
            acc = agg.reduce(acc, v)
        assert acc == expected

    def test_count_merge_adds_partials(self):
        agg = CountAggregator()
        assert agg.merge(3, 4) == 7

    def test_default_merge_is_reduce(self):
        agg = SumAggregator()
        assert agg.merge(3, 4) == 7


class _StarBroadcast(VertexProgram):
    """Hub sends one value to every leaf; leaves sum what they get."""

    combiner = SumCombiner()

    def compute(self, ctx, state, messages):
        if ctx.superstep == 0 and ctx.vertex_id == 1:
            for _ in range(4):
                ctx.send(0, 10)  # four messages to the hub, combinable
        ctx.vote_to_halt()
        return sum(messages) if messages else state


class TestCombinerInEngine:
    def test_combined_value_correct(self, star8):
        res = run_job(JobSpec(program=_StarBroadcast(), graph=star8, num_workers=3))
        assert res.values[0] == 40

    def test_combiner_reduces_transferred_messages(self, star8):
        class NoCombiner(_StarBroadcast):
            combiner = None

        with_c = run_job(
            JobSpec(program=_StarBroadcast(), graph=star8, num_workers=3)
        )
        without_c = run_job(
            JobSpec(program=NoCombiner(), graph=star8, num_workers=3)
        )
        assert with_c.values[0] == without_c.values[0] == 40
        # Combined messages count once post-combine at the receiving side.
        assert (
            with_c.trace.steps[1].workers[0].msgs_in
            < without_c.trace.steps[1].workers[0].msgs_in
            or with_c.trace.steps[1].compute_calls
            == without_c.trace.steps[1].compute_calls
        )

    def test_combiner_applies_local_and_remote(self, ring10):
        class FanIn(VertexProgram):
            combiner = SumCombiner()

            def compute(self, ctx, state, messages):
                if ctx.superstep == 0:
                    ctx.send(0, 1)  # all 10 vertices send to vertex 0
                ctx.vote_to_halt()
                return sum(messages) if messages else None

        res = run_job(JobSpec(program=FanIn(), graph=ring10, num_workers=4))
        assert res.values[0] == 10


class _AggregatingProgram(VertexProgram):
    def aggregators(self):
        return {"total": SumAggregator(), "largest": MaxAggregator()}

    def compute(self, ctx, state, messages):
        if ctx.superstep == 0:
            ctx.aggregate("total", ctx.vertex_id)
            ctx.aggregate("largest", ctx.vertex_id)
            ctx.send(ctx.vertex_id, "again")
            ctx.vote_to_halt()
            return None
        ctx.vote_to_halt()
        return (ctx.aggregated("total"), ctx.aggregated("largest"))


class TestAggregatorsInEngine:
    def test_values_visible_next_superstep(self, ring10):
        res = run_job(
            JobSpec(program=_AggregatingProgram(), graph=ring10, num_workers=3)
        )
        assert all(v == (45, 9) for v in res.values.values())

    def test_final_aggregates_in_result(self, ring10):
        res = run_job(
            JobSpec(program=_AggregatingProgram(), graph=ring10, num_workers=3)
        )
        # Last superstep had no contributions -> identity values.
        assert res.aggregates["total"] == 0

    def test_unknown_aggregator_raises(self, ring10):
        class Bad(VertexProgram):
            def compute(self, ctx, state, messages):
                ctx.aggregate("nope", 1)
                return None

        with pytest.raises(KeyError):
            run_job(JobSpec(program=Bad(), graph=ring10, num_workers=2))

    def test_unknown_aggregated_read_raises(self, ring10):
        class Bad(VertexProgram):
            def compute(self, ctx, state, messages):
                ctx.aggregated("nope")
                return None

        with pytest.raises(KeyError):
            run_job(JobSpec(program=Bad(), graph=ring10, num_workers=2))

    def test_engine_aggregated_accessor(self, ring10):
        from repro.bsp import BSPEngine

        engine = BSPEngine(
            JobSpec(program=_AggregatingProgram(), graph=ring10, num_workers=2)
        )
        assert engine.aggregated("total") == 0  # identity before run
        with pytest.raises(KeyError):
            engine.aggregated("nope")

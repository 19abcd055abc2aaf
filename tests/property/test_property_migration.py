"""Property-based tests: migration machinery and trace serialization."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.algorithms import PageRankProgram, pagerank_reference
from repro.analysis.traces import trace_from_dict, trace_to_dict
from repro.bsp import JobSpec, run_job
from repro.elastic import ElasticResizer, ScalingPolicy
from repro.graph.builder import from_edges
from repro.partition.dynamic import DynamicRepartitioner


@st.composite
def connected_graphs(draw, max_n=20):
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=n,
        )
    )
    return from_edges(n, edges + extra, undirected=True)


class _Toggle(ScalingPolicy):
    def __init__(self, period):
        self.period = period

    def choose(self, ctx):
        if ctx.step % self.period:
            return ctx.workers
        return ctx.high if ctx.workers == ctx.low else ctx.low


class TestMigrationProperties:
    @given(connected_graphs(), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_live_scaling_preserves_pagerank(self, g, low, extra):
        high = low + extra
        job = JobSpec(
            program=PageRankProgram(6), graph=g, num_workers=low,
            observers=[ElasticResizer(_Toggle(period=2), low, high)],
        )
        res = run_job(job)
        ref = pagerank_reference(g, iterations=6)
        assert np.allclose(res.values_array(), ref, atol=1e-10)

    @given(connected_graphs(), st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_dynamic_repartitioning_preserves_pagerank(self, g, workers, interval):
        job = JobSpec(
            program=PageRankProgram(6), graph=g, num_workers=workers,
            observers=[DynamicRepartitioner(interval=interval)],
        )
        res = run_job(job)
        ref = pagerank_reference(g, iterations=6)
        assert np.allclose(res.values_array(), ref, atol=1e-10)


class TestTraceSerializationProperties:
    @given(connected_graphs(), st.integers(1, 4), st.integers(2, 8))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_preserves_all_series(self, g, workers, iters):
        res = run_job(
            JobSpec(program=PageRankProgram(iters), graph=g, num_workers=workers)
        )
        back = trace_from_dict(trace_to_dict(res.trace))
        assert back.total_time == res.trace.total_time
        assert np.array_equal(back.series_messages(), res.trace.series_messages())
        assert np.array_equal(
            back.series_peak_memory(), res.trace.series_peak_memory()
        )
        assert back.breakdown() == res.trace.breakdown()

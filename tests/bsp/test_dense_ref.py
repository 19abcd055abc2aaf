"""DenseRefEngine: bit-equivalence against BSPEngine, refusal gates, and
the engine-selection wiring (sanitizer, runner, run_job).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    BCProgram,
    ConnectedComponentsProgram,
    KCoreProgram,
    LabelPropagationProgram,
    PageRankProgram,
    SSSPProgram,
    WCCProgram,
)
from repro.bsp import BSPEngine, JobSpec, run_job
from repro.bsp.dense_ref import DenseRefEngine, PlanRefusedError
from repro.bsp.dense_shard import _ALL_ARCS
from repro.graph import generators as gen
from repro.graph.builder import GraphBuilder
from repro.graph.csr import CSRGraph


def _bits(value) -> tuple:
    """A value as its type and repr: exact, ``-0.0`` and ``nan`` included."""
    return type(value), repr(value)


def _equivalent(ref, dense):
    """Contract (a) of docs/runtime.md: bitwise at the same worker count
    and partition, values and aggregates alike."""
    assert ref.supersteps == dense.supersteps
    assert ref.halted == dense.halted
    assert set(ref.values) == set(dense.values)
    for v in ref.values:
        assert _bits(ref.values[v]) == _bits(dense.values[v]), v
    assert set(ref.aggregates) == set(dense.aggregates)
    for k in ref.aggregates:
        assert _bits(ref.aggregates[k]) == _bits(dense.aggregates[k]), k


def _run_both(program_factory, graph, **kwargs):
    ref = BSPEngine(
        JobSpec(program=program_factory(), graph=graph, num_workers=4,
                **kwargs)
    ).run()
    dense = DenseRefEngine(
        JobSpec(program=program_factory(), graph=graph, num_workers=4,
                **kwargs)
    ).run()
    return ref, dense


@pytest.fixture(scope="module")
def directed():
    return gen.erdos_renyi(60, 0.08, seed=3, directed=True)


@pytest.fixture(scope="module")
def undirected():
    return gen.watts_strogatz(60, 4, 0.3, seed=7).as_undirected()


def test_pagerank_equivalence(directed):
    ref, dense = _run_both(lambda: PageRankProgram(iterations=12), directed)
    _equivalent(ref, dense)
    assert dense.kernel_plan is not None
    assert dense.kernel_plan.reduce == "sum"


@pytest.mark.parametrize("graph", [
    lambda: gen.watts_strogatz(200, 6, 0.1, seed=2),
    # RMAT leaves dangling vertices, so the "dangling" aggregate is a real
    # float sum: it must fold in vertex order like a worker's, not pairwise
    # (70 of 256 and 3 673 of 4 096 values differed when it did not).
    lambda: gen.rmat(8, 6, seed=1),
    lambda: gen.rmat(12, 8, seed=3),
], ids=["ws", "rmat8", "rmat12"])
def test_pagerank_bitwise_equal_to_one_worker_sim(graph):
    # ... and to the sim at any other worker count, that one included
    g = graph()
    for workers in (1, 4):
        job = JobSpec(PageRankProgram(8), g, num_workers=workers)
        ref, dense = run_job(job, "sim"), run_job(job, "dense-ref")
        assert dense.values == ref.values
        assert dense.aggregates == ref.aggregates


def test_sssp_weighted_equivalence(directed):
    rng = np.random.default_rng(4)
    gw = CSRGraph(
        directed.num_vertices, directed.indptr, directed.indices,
        weights=rng.uniform(0.5, 3.0, directed.num_arcs),
    )
    ref, dense = _run_both(lambda: SSSPProgram(source=0), gw)
    _equivalent(ref, dense)


def test_cc_and_wcc_equivalence(undirected):
    for factory in (ConnectedComponentsProgram, WCCProgram):
        ref, dense = _run_both(factory, undirected)
        _equivalent(ref, dense)


def test_kcore_peel_cascade_equivalence():
    # A path peels one layer per round under k=2: the longest mutation
    # cascade a small fixture can force.
    g = gen.path(24).as_undirected()
    ref, dense = _run_both(lambda: KCoreProgram(k=2), g)
    _equivalent(ref, dense)
    assert ref.supersteps > 5  # the cascade actually happened


def test_lpa_equivalence_with_mode_ties(undirected):
    ref, dense = _run_both(
        lambda: LabelPropagationProgram(max_rounds=20), undirected
    )
    _equivalent(ref, dense)


def test_max_supersteps_cap(undirected):
    ref, dense = _run_both(WCCProgram, undirected, max_supersteps=2)
    _equivalent(ref, dense)
    assert not dense.halted


def test_initially_active_subset(undirected):
    ref, dense = _run_both(
        WCCProgram, undirected, initially_active=[0, 7, 13]
    )
    _equivalent(ref, dense)


def test_initial_messages(directed):
    ref, dense = _run_both(
        lambda: SSSPProgram(source=0), directed,
        initially_active=False, initial_messages=[(0, 0.0)],
    )
    _equivalent(ref, dense)


def test_refused_program_raises_with_rule_and_span(directed):
    with pytest.raises(PlanRefusedError, match="RPC016"):
        DenseRefEngine(
            JobSpec(program=BCProgram(), graph=directed, num_workers=2)
        )


def test_param_bound_outside_plan_is_refused(directed):
    # The plan was lifted for weight_fn=None; binding a callable breaks
    # the precondition and must refuse, not silently ignore the function.
    prog = SSSPProgram(source=0, weight_fn=lambda u, v: 2.0)
    with pytest.raises(PlanRefusedError, match="weight_fn"):
        DenseRefEngine(
            JobSpec(program=prog, graph=directed, num_workers=2)
        )


def test_peel_plan_refuses_injected_messages():
    g = gen.path(10).as_undirected()
    with pytest.raises(PlanRefusedError, match="injected"):
        DenseRefEngine(
            JobSpec(
                program=KCoreProgram(k=2), graph=g, num_workers=2,
                initial_messages=[(0, (1, 2))],
            )
        )


def test_wrapped_program_is_refused_not_silently_unwrapped(directed, capsys):
    # dense-ref never calls compute(), so a sanitizing wrapper would report
    # "ok" having checked nothing.
    from repro.check import SanitizingProgram
    from repro.cli import main

    wrapped = SanitizingProgram(PageRankProgram(iterations=3))
    with pytest.raises(PlanRefusedError, match="--sanitize"):
        DenseRefEngine(JobSpec(program=wrapped, graph=directed, num_workers=2))
    code = main([
        "run", "--dataset", "SD", "--scale", "0.05", "--app", "pagerank",
        "--iterations", "3", "--engine", "dense-ref", "--sanitize",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "--sanitize" in captured.err and "hint:" in captured.err
    assert "sanitizer: ok" not in captured.out


def test_run_job_dense_ref_helper(directed):
    res = run_job(
        JobSpec(
            program=PageRankProgram(iterations=5), graph=directed,
            num_workers=2,
        ),
        engine="dense-ref",
    )
    assert res.supersteps == 6
    assert res.halted


def test_runner_engine_dense_ref(directed):
    from repro.analysis.runner import RunConfig, run_pagerank

    sim = run_pagerank(directed, RunConfig(num_workers=2), iterations=8)
    dense = run_pagerank(
        directed, RunConfig(num_workers=2, engine="dense-ref"),
        iterations=8,
    )
    _equivalent(sim, dense)


def test_certify_determinism_dense_ref_engine(undirected):
    from repro.check.sanitizer import certify_determinism

    report = certify_determinism(
        WCCProgram, undirected, num_workers=4, engine="dense-ref"
    )
    assert report.ok, report.summary()
    assert report.engine == "dense-ref"


def test_explicit_plan_override(directed):
    from repro.check.vectorize import lift_of

    plan = lift_of(PageRankProgram).plan
    assert plan is not None
    res = DenseRefEngine(
        JobSpec(
            program=PageRankProgram(iterations=4), graph=directed,
            num_workers=2,
        ),
        plan=plan,
    ).run()
    assert res.kernel_plan is plan


# -- all-arcs supersteps ------------------------------------------------
def _compaction(shard, mask):
    """What ``_live_arcs`` did before it recognised "every arc": three
    O(m) passes, kept here as the reference."""
    arc_sel = mask[shard.src]
    if shard.edge_alive is not None:
        arc_sel &= shard.edge_alive
    return np.flatnonzero(arc_sel)


def _pagerank_engine(graph, workers=4, **program_kwargs):
    return DenseRefEngine(JobSpec(
        PageRankProgram(3, **program_kwargs), graph, num_workers=workers,
    ))


@pytest.mark.parametrize("graph", [
    lambda: gen.rmat(7, 6, seed=1, undirected=False),  # dangling vertices
    lambda: gen.watts_strogatz(80, 4, 0.2, seed=9),
    lambda: GraphBuilder(5).build(),  # m == 0: every arc, nothing to send
], ids=["rmat", "ws", "no-arcs"])
def test_live_arcs_is_all_arcs_exactly_when_the_compaction_is(graph):
    (eng,) = _pagerank_engine(graph(), workers=1).workers
    n, m = eng.n, eng.m
    rng = np.random.default_rng(20)
    has_out = eng.static_degree > 0
    masks = [np.ones(n, bool), np.zeros(n, bool), has_out, ~has_out]
    for v in rng.integers(0, n, 6):  # one vertex short of everything
        masks.append(has_out.copy())
        masks[-1][v] = False
    masks += [rng.random(n) < p for p in (0.05, 0.5, 0.95) for _ in range(4)]
    alive = [None, np.ones(m, bool)]
    for p in (0.5, 0.99):
        alive.append(rng.random(m) < p)
    if m:
        alive.append(np.ones(m, bool))
        alive[-1][rng.integers(m)] = False  # a single removed edge
    seen_all = seen_some = 0
    for edge_alive in alive:
        eng.edge_alive = edge_alive
        out_degree = eng.static_degree if edge_alive is None else np.bincount(
            eng.src[edge_alive], minlength=n)
        for mask in masks:
            want = _compaction(eng, mask)
            arcs, count = eng._live_arcs(mask, out_degree)
            assert count == want.size
            if want.size == m:
                assert arcs is _ALL_ARCS
                assert eng._take(eng.dst, arcs) is eng.dst
                seen_all += 1
            else:
                assert arcs is not _ALL_ARCS
                assert arcs.dtype == want.dtype and arcs.tolist() == want.tolist()
                seen_some += 1
    assert seen_all and (seen_some or m == 0)


def test_arc_sized_arrays_exist_only_when_a_plan_reads_them(directed):
    pr = _pagerank_engine(directed)
    pr.run()
    for shard in pr.workers:
        assert "weights" not in vars(shard)
        assert "_reached" in vars(shard)  # every arc, combined, once
    sssp = DenseRefEngine(JobSpec(SSSPProgram(source=0), directed, num_workers=4))
    sssp.run()
    for shard in sssp.workers:
        assert shard.weights.tolist() == [1.0] * shard.m  # read by edge_weight
        # frontier scatters are strict subsets: they count their boxes
        assert "_reached" not in vars(shard)


def test_pagerank_peak_is_under_six_arc_sized_arrays():
    # The shards' src and dst, the payloads being routed and one
    # transient (a gathered arc column, a group's fold) stay under 4.5
    # 8-byte arrays per arc; the whole-graph executor peaked at 42 B.
    import tracemalloc

    from repro.check.planopt import optimize_plan
    from repro.check.vectorize import lift_of

    g = gen.rmat(12, 8, seed=3)
    # the plan a default run executes, compiled outside the traced region
    plan = optimize_plan(lift_of(PageRankProgram).plan).plan
    job = JobSpec(PageRankProgram(8), g, num_workers=4)
    tracemalloc.start()
    try:
        DenseRefEngine(job, plan=plan).run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 36 * g.num_arcs, peak / g.num_arcs


def test_state_init_runs_under_the_compute_errstate():
    # 1/n at n == 0: sim never evaluates it, dense-ref must not warn
    import warnings

    job = JobSpec(PageRankProgram(2), GraphBuilder(0).build(), num_workers=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dense = run_job(job, "dense-ref")
    assert dense.values == run_job(job, "sim").values == {}


def test_extract_override_is_still_called(directed):
    class Scaled(PageRankProgram):
        def extract(self, vertex_id, state):
            return (vertex_id, state * 2)

    from repro.check.vectorize import lift_of

    job = JobSpec(Scaled(3), directed, num_workers=1)
    dense = run_job(job, "dense-ref", plan=lift_of(PageRankProgram).plan)
    assert dense.values == run_job(job, "sim").values
    assert dense.values[4][0] == 4

"""Static engine auto-selection: ranking, exclusions, runner wiring."""

from __future__ import annotations

import json

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
from repro.analysis.engine_select import (
    EngineDecision,
    dense_refused_features,
    select_engine,
)
from repro.analysis.runner import RunConfig, run_pagerank, run_traversal
from repro.check.costmodel import profile_of
from repro.check.vectorize import lift_of
from repro.graph import generators as gen

SIX_LIFTED = [
    PageRankProgram(iterations=5),
    SSSPProgram(source=0),
    ConnectedComponentsProgram(),
    WCCProgram(),
    KCoreProgram(k=2),
    LabelPropagationProgram(max_rounds=10),
]


def _decide(program, **kwargs) -> EngineDecision:
    return select_engine(
        verdict=lift_of(program), profile=profile_of(program), **kwargs
    )


def test_all_six_lifted_algorithms_select_dense_ref():
    for program in SIX_LIFTED:
        decision = _decide(program, num_workers=4)
        assert decision.engine == "dense-ref", (
            type(program).__name__, decision.render(),
        )
        assert any("KernelPlan" in r for r in decision.reasons)
        assert decision.ranking[0] == ("dense-ref", 100)
        assert not decision.hazards


def test_refused_program_falls_back_with_recorded_reason():
    decision = _decide(BCProgram(), num_workers=4)
    assert decision.engine == "process"  # picklable, multi-worker
    dense_reasons = [r for e, r in decision.excluded if e == "dense-ref"]
    assert dense_reasons and "RPC016" in dense_reasons[0]


def test_job_features_exclude_dense_ref():
    # What is left of the job-level exclusions now that dense-ref runs the
    # one superstep body: a wrapped program (--sanitize), a bound attribute
    # the plan needed None, a peel plan started from injected messages.
    from repro.check import SanitizingProgram

    cases = [
        (SanitizingProgram(PageRankProgram(iterations=5)), {}, "--sanitize"),
        (SSSPProgram(source=0, weight_fn=lambda u, v: 2.0), {}, "weight_fn"),
        (KCoreProgram(k=2), {"initial_messages": [(0, 1)]}, "injected"),
    ]
    for program, kwargs, names in cases:
        verdict = lift_of(program)
        [feature] = dense_refused_features(program, verdict.plan, **kwargs)
        assert names in feature
        decision = select_engine(
            verdict=verdict, profile=profile_of(program), num_workers=4,
            features=[feature],
        )
        assert decision.engine != "dense-ref"
        assert [r for e, r in decision.excluded if e == "dense-ref"] == [
            feature
        ]


def test_peel_plan_with_injected_messages_excludes_dense_ref():
    # Regression: the prune check used to read an attribute KernelPlan never
    # had, so auto picked dense-ref and DenseRefEngine then refused the job.
    from repro.bsp import JobSpec
    from repro.bsp.dense_ref import DenseRefEngine, PlanRefusedError

    program = KCoreProgram(k=2)
    verdict = lift_of(program)
    features = dense_refused_features(
        program, verdict.plan, initial_messages=[(0, 1)]
    )
    assert features == ["peel plans cannot start from injected messages"]
    decision = select_engine(
        verdict=verdict, profile=profile_of(program), num_workers=4,
        features=features,
    )
    assert decision.engine != "dense-ref"
    # the selector's verdict and the engine's own gate agree
    job = JobSpec(
        program=program, graph=gen.ring(6), num_workers=2,
        initial_messages=[(0, 1)],
    )
    with pytest.raises(PlanRefusedError, match="injected messages"):
        DenseRefEngine(job)
    # ... and the runners hand the job's injected messages to the selector
    from repro.analysis.runner import _resolve_auto

    cfg, auto = _resolve_auto(
        RunConfig(engine="auto", num_workers=2), job,
        profile_of(program), verdict,
    )
    assert cfg.engine == auto.engine != "dense-ref"
    assert dense_refused_features(program, verdict.plan) == []


def test_flight_recorder_is_not_a_dense_blocker():
    program = PageRankProgram(iterations=5)
    assert dense_refused_features(program, lift_of(program).plan) == []


def test_observers_and_sinks_do_not_change_the_selected_engine():
    from repro.cloud.costmeter import CostMeter
    from repro.obs import MetricsRegistry, RunTimeline, SpanTracer

    metrics = MetricsRegistry()
    meter = CostMeter(metrics)
    res = run_pagerank(
        gen.barabasi_albert(40, 2, seed=3),
        RunConfig(
            num_workers=4, engine="auto", metrics=metrics,
            tracer=SpanTracer(), timeline=RunTimeline(),
        ),
        iterations=5, observers=[meter],
    )
    assert res.engine_decision.engine == "dense-ref"
    assert len(res.trace) == 5 + 1
    assert res.total_time > 0
    assert meter.total == res.cost.total


def test_auto_with_sanitizer_excludes_dense_ref():
    from repro.check import SanitizingProgram

    res = run_pagerank(
        gen.barabasi_albert(40, 2, seed=3),
        RunConfig(num_workers=4, engine="auto"), iterations=3,
        wrap_program=SanitizingProgram,
    )
    assert res.engine_decision.engine != "dense-ref"
    assert any(
        e == "dense-ref" and "--sanitize" in r
        for e, r in res.engine_decision.excluded
    )


def test_pickle_risks_exclude_process_and_tcp():
    class Unpicklable(BCProgram):
        pass

    profile = profile_of(BCProgram())
    assert not profile.pickle_risks  # sanity: BC itself is picklable

    class FakeRisk:
        line = 7
        detail = "a lambda (unpicklable function object)"

    class FakeProfile:
        fanout = profile.fanout
        pickle_risks = (FakeRisk(),)

    decision = select_engine(
        verdict=None, profile=FakeProfile(), num_workers=4,
        tcp_hosts=[("h", 1)],
    )
    assert decision.engine == "threaded"
    excluded = dict(decision.excluded)
    assert "RPC011" in excluded["process"]
    assert "RPC011" in excluded["tcp"]
    del Unpicklable


def test_tcp_needs_endpoints():
    decision = _decide(BCProgram(), num_workers=4)
    assert ("tcp", "no worker endpoints configured (--hosts)") in \
        decision.excluded
    with_hosts = _decide(
        BCProgram(), num_workers=4, tcp_hosts=[("127.0.0.1", 9000)]
    )
    assert with_hosts.ranking[0][0] in ("tcp", "dense-ref")
    assert with_hosts.engine == "tcp"


def test_single_worker_prefers_sim_fallback():
    decision = _decide(BCProgram(), num_workers=1)
    assert decision.engine == "sim"
    assert any("sequential" in r for r in decision.reasons)


def test_broadcast_to_single_process_engine_is_a_hazard():
    from repro.check.costmodel import FanoutClass, PickleRisk

    class FakeProfile:
        fanout = FanoutClass.BROADCAST
        pickle_risks = (  # blocks process/tcp
            PickleRisk(line=3, method="__init__", detail="a lambda"),
        )

    decision = select_engine(
        verdict=None, profile=FakeProfile(), num_workers=4
    )
    assert decision.engine == "threaded"
    assert decision.hazards and "RPC022" in decision.hazards[0]


def test_decision_envelope_round_trips():
    decision = _decide(PageRankProgram(iterations=3), num_workers=2)
    d = decision.as_dict()
    json.dumps(d)
    assert d["engine"] == "dense-ref"
    assert d["ranking"][0] == ["dense-ref", 100]
    assert "engine auto-selection: dense-ref" in decision.render()


# ----------------------------------------------------------------------
# Runner integration
# ----------------------------------------------------------------------
def test_run_pagerank_auto_selects_dense_ref_and_records():
    from repro.obs import FlightRecorder

    flight = FlightRecorder(capacity=64)
    g = gen.barabasi_albert(40, 2, seed=3)
    res = run_pagerank(
        g, RunConfig(num_workers=4, engine="auto", flight=flight),
        iterations=5,
    )
    assert res.engine_decision is not None
    assert res.engine_decision.engine == "dense-ref"
    events = [
        e for e in flight.snapshot() if e.kind == "engine.autoselect"
    ]
    assert len(events) == 1
    assert events[0].attrs["engine"] == "dense-ref"
    assert events[0].attrs["reasons"]
    assert events[0].attrs["ranking"][0] == ["dense-ref", 100]


def test_run_pagerank_auto_matches_explicit_dense_ref():
    g = gen.erdos_renyi(40, 0.1, seed=2, directed=True)
    auto = run_pagerank(
        g, RunConfig(num_workers=2, engine="auto"), iterations=6
    )
    dense = run_pagerank(
        g, RunConfig(num_workers=2, engine="dense-ref"), iterations=6
    )
    assert auto.values == dense.values
    assert dense.engine_decision is None  # explicit engines record nothing


def test_run_traversal_auto_falls_back_from_observers():
    g = gen.barabasi_albert(40, 2, seed=3)
    run = run_traversal(
        g, RunConfig(num_workers=4, engine="auto"), roots=range(4),
        kind="bc",
    )
    decision = run.result.engine_decision
    assert decision is not None
    assert decision.engine == "process"
    assert any(
        "observer" in r or "RPC016" in r
        for e, r in decision.excluded if e == "dense-ref"
    )


def test_make_engine_rejects_unresolved_auto():
    from repro.analysis.runner import _make_engine

    cfg = RunConfig(engine="auto")
    with pytest.raises(ValueError, match="resolved by the runner"):
        _make_engine(cfg, job=None)

"""Dynamic-sanitizer tests: payload fingerprinting, the 1-vs-N worker
determinism diff, aggregator law probes, and the CI smoke harness.

The racy fixtures here are *deliberately* order-dependent; they exist to
prove the sanitizer catches what the static rules cannot.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.bsp.aggregators import Aggregator, CountAggregator, SumAggregator
from repro.bsp.api import VertexProgram
from repro.bsp.engine import BSPEngine
from repro.bsp.job import JobSpec
from repro.check import (
    SanitizerObserver,
    SanitizingProgram,
    certify_determinism,
    check_aggregator_laws,
    freeze,
    run_sanitize_smoke,
)
from repro.graph import generators as gen
from repro.obs.metrics import MetricsRegistry


# ----------------------------------------------------------------------
# freeze(): structural fingerprints
# ----------------------------------------------------------------------
def test_freeze_detects_container_mutation():
    payload = {"dist": [1.0, 2.0], "hops": 3}
    before = freeze(payload)
    assert freeze(payload) == before
    payload["dist"].append(9.0)
    assert freeze(payload) != before


def test_freeze_detects_ndarray_mutation():
    arr = np.zeros(4)
    before = freeze(arr)
    arr[2] = 1.5
    assert freeze(arr) != before


def test_freeze_distinguishes_list_from_tuple_but_not_set_order():
    assert freeze([1, 2]) != freeze((1, 2))
    assert freeze({1, 2, 3}) == freeze({3, 1, 2})


# ----------------------------------------------------------------------
# Sanitizer fixtures
# ----------------------------------------------------------------------
class EchoProgram(VertexProgram):
    """Well-behaved: floods one list payload, then halts."""

    def compute(self, ctx, state, messages):
        if ctx.superstep == 0:
            ctx.send_to_neighbors([float(ctx.vertex_id)])
            return state
        ctx.vote_to_halt()
        return sum(m[0] for m in messages) if messages else state


class MutatingEcho(EchoProgram):
    """Broken: mutates delivered payloads in place at superstep 1."""

    def compute(self, ctx, state, messages):
        if ctx.superstep >= 1:
            for m in messages:
                m.append(99.0)  # repro: noqa[RPC001] — deliberate violation
        return super().compute(ctx, state, messages)


class _StubCtx(SimpleNamespace):
    superstep = 2
    vertex_id = 7


def test_sanitizing_program_catches_direct_payload_mutation():
    wrapper = SanitizingProgram(MutatingEcho())
    wrapper.compute(_StubCtx(vote_to_halt=lambda: None), 0.0, [[1.0], [2.0]])
    kinds = {v.kind for v in wrapper.violations}
    assert kinds == {"payload-mutated"}
    assert wrapper.violations[0].vertex == 7
    assert wrapper.violations[0].superstep == 2


def test_sanitizing_program_catches_resized_messages():
    class Resizer(VertexProgram):
        def compute(self, ctx, state, messages):
            messages.append(0.0)  # repro: noqa[RPC001]
            return state

    wrapper = SanitizingProgram(Resizer())
    wrapper.compute(_StubCtx(), None, [1.0])
    assert [v.kind for v in wrapper.violations] == ["messages-resized"]


def test_sanitizing_program_is_transparent():
    inner = EchoProgram()
    wrapper = SanitizingProgram(inner)
    assert wrapper.name == "Sanitizing(EchoProgram)"
    assert wrapper.combiner is inner.combiner
    assert wrapper.extract(0, 1.25) == inner.extract(0, 1.25)
    assert wrapper.payload_nbytes((1.0, 2.0)) == inner.payload_nbytes((1.0, 2.0))
    assert wrapper.state_nbytes(3.0) == inner.state_nbytes(3.0)
    assert wrapper.aggregators() == inner.aggregators()


def test_observer_catches_mutation_in_real_run_and_emits_metrics():
    registry = MetricsRegistry()
    program = SanitizingProgram(MutatingEcho())
    observer = SanitizerObserver(program, metrics=registry)
    BSPEngine(
        JobSpec(
            program=program, graph=gen.ring(10), num_workers=2,
            observers=[observer],
        )
    ).run()
    assert not observer.ok
    assert {v.kind for v in observer.violations} == {"payload-mutated"}
    counter = registry.get(
        "repro_sanitizer_violations_total", kind="payload-mutated"
    )
    assert counter is not None and counter.value == len(observer.violations)


def test_observer_binds_program_lazily_from_job():
    program = SanitizingProgram(MutatingEcho())
    observer = SanitizerObserver()  # no program at construction
    BSPEngine(
        JobSpec(
            program=program, graph=gen.ring(6), num_workers=2,
            observers=[observer],
        )
    ).run()
    assert not observer.ok


def test_clean_program_produces_no_violations():
    program = SanitizingProgram(EchoProgram())
    observer = SanitizerObserver(program)
    BSPEngine(
        JobSpec(
            program=program, graph=gen.ring(10), num_workers=2,
            observers=[observer],
        )
    ).run()
    assert observer.ok


# ----------------------------------------------------------------------
# Worker-count determinism
# ----------------------------------------------------------------------
class DeliveryOrderLeak(VertexProgram):
    """Racy: vertex 0's result depends on message delivery order — local
    sends land before remote flush batches, so the order (legally) differs
    by worker count and any program that keys on it is nondeterministic."""

    def compute(self, ctx, state, messages):
        if ctx.superstep == 0:
            if ctx.vertex_id != 0:
                ctx.send(0, float(ctx.vertex_id))
            ctx.vote_to_halt()
            return ()
        if ctx.vertex_id == 0 and messages:
            state = tuple(float(m) for m in messages)
        ctx.vote_to_halt()
        return state


class SharedCounter(VertexProgram):
    """Racy: counts compute() calls on the program instance, so a vertex's
    result is its position in the compute order, which changes with the
    worker count and partition."""

    def __init__(self) -> None:
        self.calls = 0

    def compute(self, ctx, state, messages):
        self.calls += 1  # repro: noqa[RPC003] — deliberate violation
        ctx.vote_to_halt()
        return self.calls


@pytest.mark.parametrize(
    "program", [DeliveryOrderLeak, SharedCounter], ids=lambda p: p.__name__
)
def test_determinism_diff_catches_order_dependent_program(program):
    report = certify_determinism(program, gen.ring(16), num_workers=4)
    assert not report.ok
    assert report.total_mismatches >= 1
    assert any(v == 0 for v, _, _ in report.mismatches)
    assert "NONDETERMINISTIC" in report.summary()


def test_determinism_diff_passes_order_independent_program():
    report = certify_determinism(EchoProgram, gen.ring(16), num_workers=4)
    assert report.ok
    assert "deterministic across 1 vs 4 workers" in report.summary()


def test_determinism_requires_multiple_workers():
    with pytest.raises(ValueError):
        certify_determinism(EchoProgram, gen.ring(4), num_workers=1)


# ----------------------------------------------------------------------
# Aggregator algebra probes
# ----------------------------------------------------------------------
class LastWinsAggregator(Aggregator):
    """Broken on purpose: reduce keeps the most recent contribution."""

    def identity(self):
        return None

    def reduce(self, acc, value):
        return value

    def merge(self, acc, partial):
        return partial


class _AggProgram(VertexProgram):
    def __init__(self, agg):
        self._agg = agg

    def aggregators(self):
        return {"probe": self._agg}

    def compute(self, ctx, state, messages):
        ctx.vote_to_halt()
        return state


def test_lawful_aggregators_pass():
    for agg in (SumAggregator(), CountAggregator()):
        reports = check_aggregator_laws(_AggProgram(agg))
        assert len(reports) == 1 and reports[0].ok, reports[0].failures


def test_order_dependent_aggregator_fails_commutativity():
    (report,) = check_aggregator_laws(_AggProgram(LastWinsAggregator()))
    assert not report.ok
    assert any("commutative" in f for f in report.failures)


def test_observer_reports_aggregator_law_violations_at_job_start():
    program = SanitizingProgram(_AggProgram(LastWinsAggregator()))
    observer = SanitizerObserver(program)
    observer.on_job_start(SimpleNamespace(job=SimpleNamespace(program=program)))
    assert not observer.ok
    assert {v.kind for v in observer.violations} == {"aggregator-law"}


# ----------------------------------------------------------------------
# The CI smoke harness
# ----------------------------------------------------------------------
def test_smoke_passes_on_pagerank_and_bc():
    report = run_sanitize_smoke(scale=0.05, num_workers=4)
    assert [c.name for c in report.cases] == ["pagerank", "bc"]
    assert report.ok, report.summary()
    payload = report.as_dict()
    assert payload["ok"] and payload["num_workers"] == 4
    assert all("deterministic" in c["determinism"] for c in payload["cases"])

"""KernelPlan optimizer: passes, digests, rules RPC019-022, certification."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.algorithms import (
    ConnectedComponentsProgram,
    KCoreProgram,
    PageRankProgram,
)
from repro.bsp import JobSpec
from repro.bsp.dense_ref import DenseRefEngine
from repro.check.costmodel import FanoutClass, profile_source
from repro.check.planopt import (
    PASS_VERSIONS,
    PLANOPT_SIGNATURE,
    certify_optimization,
    optimize_plan,
    optimize_source,
    plan_profile_disagreements,
)
from repro.check.vectorize import lift_of, lift_source, render_expr
from repro.graph import generators as gen

# ----------------------------------------------------------------------
# Fixture programs
# ----------------------------------------------------------------------
MINI_CC = """\
from repro.bsp.api import VertexProgram
from repro.bsp.combiners import MinCombiner

class MiniCC(VertexProgram):
    combiner = MinCombiner()
    def init_state(self, vertex_id, graph):
        return vertex_id
    def compute(self, ctx, state, messages):
        candidate = min(messages, default=state)
        if ctx.superstep == 0:
            ctx.send_to_neighbors(state)
        elif candidate < state:
            state = candidate
            ctx.send_to_neighbors(state)
        ctx.vote_to_halt()
        return state
"""

# Two phases guarded `superstep == 0` separated by an unguarded phase
# whose scatter float-sums: merging would reorder accumulation (RPC020).
BLOCKED = """\
from repro.bsp.api import VertexProgram

class Blocky(VertexProgram):
    def init_state(self, vertex_id, graph):
        return 0.0
    def compute(self, ctx, state, messages):
        total = sum(messages)
        if ctx.superstep == 0:
            ctx.send_to_neighbors(1.0)
        ctx.send_to_neighbors(state + total)
        if ctx.superstep == 0:
            ctx.send_to_neighbors(2.0)
        if ctx.superstep > 4:
            ctx.vote_to_halt()
        return state + total
"""

# Same shape but min-gather: delivery order is irrelevant, so the
# same-guard phases fuse across the intervening scatter.
FUSABLE = """\
from repro.bsp.api import VertexProgram
from repro.bsp.combiners import MinCombiner

class Fusy(VertexProgram):
    combiner = MinCombiner()
    def init_state(self, vertex_id, graph):
        return float(vertex_id)
    def compute(self, ctx, state, messages):
        best = min(messages, default=state)
        if ctx.superstep == 0:
            ctx.send_to_neighbors(1.0)
        ctx.send_to_neighbors(best)
        if ctx.superstep == 0:
            ctx.send_to_neighbors(2.0)
        if ctx.superstep > 4:
            ctx.vote_to_halt()
        return best
"""

# Broadcast fan-out (data-dependent send targets -> RPC016 refusal) plus
# an unpicklable lambda attribute (RPC011) -> only the sim remains.
HAZARD = """\
from repro.bsp.api import VertexProgram

class Gossip(VertexProgram):
    def __init__(self):
        self.score = lambda x: x + 1
    def init_state(self, vertex_id, graph):
        return vertex_id
    def compute(self, ctx, state, messages):
        for m in messages:
            for n in ctx.out_neighbors():
                ctx.send(n, m)
        for n in ctx.out_neighbors():
            for m in ctx.out_neighbors():
                ctx.send(m, state)
        ctx.vote_to_halt()
        return state
"""


def _plan(source: str):
    (res,) = lift_source(source, filename="<test>")
    assert res.plan is not None, (res.rule_id, res.reason)
    return res.plan


def _findings(source: str):
    from repro.check.analyzer import analyze_source

    return analyze_source(source, filename="<test>", kernel_plan=True)


# ----------------------------------------------------------------------
# Pass behavior
# ----------------------------------------------------------------------
def test_signature_mirrors_pass_versions():
    assert PLANOPT_SIGNATURE == ";".join(
        f"{n}={v}" for n, v in PASS_VERSIONS
    )
    assert [n for n, _ in PASS_VERSIONS] == [
        "fuse-masks", "const-fold", "dead-op", "phase-fuse",
        "hoist-scatter", "cse",
    ]


def test_mask_fusion_collapses_restated_conditions():
    out = optimize_plan(lift_of(ConnectedComponentsProgram()).plan)
    assert out.changed
    (phase,) = out.plan.phases
    scatter = next(op for op in phase.ops if op.kind == "scatter")
    # the lifted mask restates the superstep==0 test inside a where;
    # assumption tracking folds it to a flat disjunction
    assert render_expr(scatter.where) == (
        "(or (eq superstep 0) (lt msg state))"
    )


def test_optimized_digest_is_recomputed_and_stable():
    out = optimize_plan(_plan(MINI_CC))
    assert out.plan.digest != out.original.digest
    assert len(out.plan.digest) == 64
    again = optimize_plan(_plan(MINI_CC))
    assert again.plan.digest == out.plan.digest
    assert out.plan.digest == out.plan.as_dict()["digest"]


def test_optimizer_is_idempotent():
    once = optimize_plan(_plan(MINI_CC))
    twice = optimize_plan(once.plan)
    assert not twice.changed
    assert twice.plan.digest == once.plan.digest


def test_const_folding_uses_numpy_semantics():
    from repro.check.planopt import _fold_compound

    assert _fold_compound("add", [2, 3]) == ("const", 5)
    assert _fold_compound("mul", [2.0, 4.0]) == ("const", 8.0)
    # div-by-zero folds to the executor's inf, not a ZeroDivisionError
    folded = _fold_compound("div", [1.0, 0.0])
    assert folded is not None and folded[1] == float("inf")
    assert _fold_compound("min2", [3, 7]) == ("const", 3)
    assert _fold_compound("not", [True]) == ("const", False)
    # results are python scalars (json-serializable for the digest)
    assert all(
        type(_fold_compound(op, args)[1]) in (bool, int, float)
        for op, args in [("add", [1, 1]), ("lt", [1, 2]), ("abs", [-2.0])]
    )
    json.dumps(_fold_compound("add", [1, 2]))


def test_phase_fusion_blocked_for_sum_reduce():
    plan = _plan(BLOCKED)
    assert plan.reduce == "sum"
    out = optimize_plan(plan)
    assert out.fused_phases == 0
    assert out.blocked, "expected a FusionBlock for the sum-reduce scatter"
    block = out.blocked[0]
    assert block.op == "scatter"
    assert "sum" in block.reason
    # phase structure untouched: the same-guard phases stay separate
    assert len(out.plan.phases) == len(plan.phases)


def test_phase_fusion_merges_order_free_reduce():
    plan = _plan(FUSABLE)
    assert plan.reduce == "min"
    out = optimize_plan(plan)
    assert out.fused_phases >= 1
    assert not out.blocked
    assert len(out.plan.phases) < len(plan.phases)
    # ops survive the merge, nothing dropped
    assert out.plan.num_ops == plan.num_ops


def test_scatter_hoisting_marks_shared_payloads():
    verdict = lift_of(PageRankProgram(iterations=5))
    out = optimize_plan(verdict.plan)
    assert out.hoisted == 1
    hoisted = [
        op for p in out.plan.phases for op in p.ops if op.hoist
    ]
    assert len(hoisted) == 1 and hoisted[0].kind == "scatter"
    # the mark rides the digest: hoisted and unhoisted plans differ
    assert "hoist" in json.dumps(out.plan.as_dict())


def test_cse_is_digest_invariant():
    from repro.check.planopt import _cse_pass

    plan = _plan(MINI_CC)
    interned, shared = _cse_pass(plan)
    assert interned.digest == plan.digest
    assert shared > 0


def test_dead_op_elimination():
    # `if False:` guards never lift (constant branches fold at lift time),
    # so exercise the pass directly on a doctored plan.
    from dataclasses import replace

    from repro.check.planopt import _dead_op_pass
    from repro.check.vectorize import KernelPhase, KOp

    plan = _plan(MINI_CC)
    dead_phase = KernelPhase(
        guard=("const", False), ops=(KOp(kind="vote"),)
    )
    dead_op = KOp(kind="vote", where=("const", False))
    live = KernelPhase(
        guard=("const", True),
        ops=(dead_op, KOp(kind="vote", where=("const", True))),
    )
    doctored = replace(plan, phases=(*plan.phases, dead_phase, live))
    out, removed = _dead_op_pass(doctored)
    assert removed > 0
    assert len(out.phases) == len(plan.phases) + 1
    tail = out.phases[-1]
    assert tail.guard is None  # const-true guard normalized away
    (kept,) = tail.ops
    assert kept.where is None  # const-true mask normalized away


# ----------------------------------------------------------------------
# Differential certification
# ----------------------------------------------------------------------
def test_certify_optimization_bit_identical():
    und = gen.watts_strogatz(40, 4, 0.3, seed=5).as_undirected()
    cert = certify_optimization(
        lambda: JobSpec(ConnectedComponentsProgram(), und, num_workers=1)
    )
    assert cert.ok, cert.summary()
    assert cert.optimized_digest != cert.original_digest
    assert "bit-identical" in cert.summary()


def test_certify_optimization_rejects_unliftable():
    from repro.algorithms import BCProgram

    und = gen.path(8).as_undirected()
    with pytest.raises(ValueError, match="liftable"):
        certify_optimization(
            lambda: JobSpec(BCProgram(), und, num_workers=1)
        )


def test_dense_ref_runs_optimized_plan_by_default():
    g = gen.erdos_renyi(40, 0.1, seed=2, directed=True)
    job = JobSpec(PageRankProgram(iterations=6), g, num_workers=1)
    raw = lift_of(job.program).plan
    engine = DenseRefEngine(job)
    assert engine.plan.digest != raw.digest  # optimized form
    unopt = DenseRefEngine(
        JobSpec(PageRankProgram(iterations=6), g, num_workers=1), plan=raw,
    )
    assert unopt.plan.digest == raw.digest
    a = engine.run()
    b = unopt.run()
    assert a.values == b.values and a.supersteps == b.supersteps


def test_explicit_plan_is_never_optimized():
    g = gen.path(10).as_undirected()
    plan = lift_of(ConnectedComponentsProgram()).plan
    job = JobSpec(ConnectedComponentsProgram(), g, num_workers=1)
    engine = DenseRefEngine(job, plan=plan)
    assert engine.plan is plan


def test_hoisted_evaluation_matches_plain_arc_eval():
    rng = np.random.default_rng(9)
    g = gen.erdos_renyi(50, 0.12, seed=4, directed=True)
    mk = lambda: JobSpec(  # noqa: E731
        PageRankProgram(iterations=8), g, num_workers=1
    )
    raw = lift_of(mk().program).plan
    opt = optimize_plan(raw).plan
    assert any(op.hoist for p in opt.phases for op in p.ops)
    res = DenseRefEngine(mk(), plan=opt).run()
    ref = DenseRefEngine(mk(), plan=raw).run()
    for v in ref.values:
        assert res.values[v] == ref.values[v]  # bitwise, not approx
    del rng


# ----------------------------------------------------------------------
# Rules RPC019-022
# ----------------------------------------------------------------------
def test_rpc019_reports_optimized_digest():
    findings = [f for f in _findings(MINI_CC) if f.rule_id == "RPC019"]
    assert len(findings) == 1
    (verdict,) = optimize_source(MINI_CC)
    assert verdict.opt.plan.digest[:16] in findings[0].message
    assert verdict.lift.plan.digest[:16] in findings[0].message
    assert str(findings[0].severity) == "info"


def test_rpc020_names_the_blocking_op():
    findings = [f for f in _findings(BLOCKED) if f.rule_id == "RPC020"]
    assert len(findings) == 1
    assert "scatter" in findings[0].message
    assert str(findings[0].severity) == "info"
    # the order-free variant does not fire it
    assert not [f for f in _findings(FUSABLE) if f.rule_id == "RPC020"]


def test_rpc021_disagreement_helper():
    class FakeProfile:
        fanout = FanoutClass.NONE
        reduction = "max"

    plan = _plan(MINI_CC)  # has scatters, reduce=min
    reasons = plan_profile_disagreements(FakeProfile(), plan)
    assert len(reasons) == 2
    assert any("fanout=none" in r for r in reasons)
    assert any("reduce='min'" in r and "'max'" in r for r in reasons)
    assert plan_profile_disagreements(None, plan) == []


def test_rpc021_silent_when_analyses_agree():
    for source in (MINI_CC, BLOCKED, FUSABLE):
        assert not [
            f for f in _findings(source) if f.rule_id == "RPC021"
        ], source


def test_rpc022_fires_on_pinned_broadcast():
    (profile,) = profile_source(HAZARD, filename="<test>")
    assert profile.fanout is FanoutClass.BROADCAST
    assert profile.pickle_risks
    findings = [f for f in _findings(HAZARD) if f.rule_id == "RPC022"]
    assert len(findings) == 1
    assert "broadcast" in findings[0].message
    assert str(findings[0].severity) == "warning"


def test_rpc022_silent_when_dense_eligible_or_picklable():
    # lifted program: no hazard even though it scatters
    assert not [f for f in _findings(MINI_CC) if f.rule_id == "RPC022"]


# ----------------------------------------------------------------------
# Envelope plumbing
# ----------------------------------------------------------------------
def test_plan_verdict_envelope_carries_passes():
    (verdict,) = optimize_source(MINI_CC)
    d = verdict.as_dict()
    assert d["status"] == "lifted"
    opt = d["opt"]
    assert opt["original_digest"] == verdict.lift.plan.digest
    assert opt["digest"] == verdict.opt.plan.digest
    names = [p["name"] for p in opt["passes"]]
    assert names == [n for n, _ in PASS_VERSIONS]
    assert all("elapsed_ms" in p for p in opt["passes"])
    json.dumps(d)  # JSON-serializable end to end


def test_refused_programs_have_no_opt_payload():
    source = HAZARD
    (verdict,) = optimize_source(source)
    assert not verdict.lifted
    assert verdict.opt is None
    assert "opt" not in verdict.as_dict()


def test_kcore_peel_plan_optimizes_and_certifies():
    path = gen.path(24).as_undirected()
    cert = certify_optimization(
        lambda: JobSpec(KCoreProgram(k=2), path, num_workers=1)
    )
    assert cert.ok, cert.summary()

"""Vectorization front-end tests: lift verdicts, refusal precision, and
the certification contract (every RPC015 claim must replay bit-equivalent
on the dense executor — a false positive here is a test failure).
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.algorithms import (
    ConnectedComponentsProgram,
    KCoreProgram,
    LabelPropagationProgram,
    PageRankProgram,
    SSSPProgram,
    WCCProgram,
)
from repro.check.sanitizer import certify_determinism
from repro.check.vectorize import (
    lift_of,
    lift_paths,
    lift_source,
)
from repro.graph import generators as gen

REPO_ROOT = Path(__file__).resolve().parents[2]
ALGOS = REPO_ROOT / "src" / "repro" / "algorithms"
EXAMPLES = REPO_ROOT / "examples"


def _lift_one(body: str):
    src = "from repro.bsp.api import VertexProgram\n" + textwrap.dedent(body)
    results = lift_source(src, "fixture.py")
    assert len(results) == 1, results
    return results[0]


# ----------------------------------------------------------------------
# Definitive verdicts for every bundled algorithm (acceptance criteria)
# ----------------------------------------------------------------------
#: program -> ("lifted", reduce, state_dtype) or ("refused", rule_id)
EXPECTED_VERDICTS = {
    "PageRankProgram": ("lifted", "sum", "float64"),
    "SSSPProgram": ("lifted", "min", "float64"),
    "ConnectedComponentsProgram": ("lifted", "min", "int64"),
    "WCCProgram": ("lifted", "min", "int64"),
    "KCoreProgram": ("lifted", "count", "bool"),
    "LabelPropagationProgram": ("lifted", "mode", "int64"),
    "ConvergentPageRankProgram": ("refused", "RPC016"),
    "SemiClusteringProgram": ("refused", "RPC016"),
    "BCProgram": ("refused", "RPC016"),
    "APSPProgram": ("refused", "RPC016"),
    "TriangleCountProgram": ("refused", "RPC016"),
    "DiameterEstimationProgram": ("refused", "RPC017"),
    "BipartiteMatchingProgram": ("refused", "RPC017"),
}


def test_every_bundled_algorithm_gets_a_definitive_verdict():
    verdicts = {v.program: v for v in lift_paths([str(ALGOS)])}
    assert set(verdicts) == set(EXPECTED_VERDICTS)
    for name, expected in EXPECTED_VERDICTS.items():
        v = verdicts[name]
        if expected[0] == "lifted":
            assert v.lifted, f"{name}: {v.rule_id} {v.reason}"
            assert v.plan.reduce == expected[1], name
            assert v.plan.state_dtype == expected[2], name
            assert v.plan.digest and len(v.plan.digest) == 64
        else:
            assert not v.lifted, name
            assert v.rule_id == expected[1], (name, v.rule_id, v.reason)
            # Refusals must point at the blocking construct, not just
            # the class line.
            assert v.refusal_line is not None and v.refusal_line > 0
            assert v.reason


def test_refusals_point_inside_the_program_body():
    verdicts = {v.program: v for v in lift_paths([str(ALGOS)])}
    for name, v in verdicts.items():
        if v.lifted:
            continue
        assert v.refusal_line >= v.line, (
            f"{name}: refusal at {v.refusal_line} precedes class "
            f"definition at {v.line}"
        )


def test_digests_are_stable_across_lifts():
    first = {v.program: v for v in lift_paths([str(ALGOS)]) if v.lifted}
    second = {v.program: v for v in lift_paths([str(ALGOS)]) if v.lifted}
    assert {n: v.plan.digest for n, v in first.items()} == {
        n: v.plan.digest for n, v in second.items()
    }


def test_digest_ignores_file_location_but_not_semantics():
    base = """
    class P(VertexProgram):
        def init_state(self, vertex_id, graph):
            return 0.0
        def compute(self, ctx, state, messages):
            total = 0.0
            for m in messages:
                total += m
            ctx.send_to_neighbors(total)
            ctx.vote_to_halt()
            return total
    """
    a = _lift_one(base)
    moved = "\n\n\n" + "from repro.bsp.api import VertexProgram\n" + (
        textwrap.dedent(base)
    )
    b = lift_source(moved, "elsewhere.py")[0]
    assert a.plan.digest == b.plan.digest  # line/file content-addressed out
    changed = _lift_one(
        base.replace(
            "ctx.send_to_neighbors(total)",
            "ctx.send_to_neighbors(total * 0.5)",
        )
    )
    assert changed.lifted
    assert changed.plan.digest != a.plan.digest


# ----------------------------------------------------------------------
# The certification contract: zero uncertified RPC015 over the corpus
# ----------------------------------------------------------------------
#: Every program the lifter claims RPC015 for must have a certification
#: entry here; a lifted program without one fails the sweep below.  The
#: factory builds a fresh instance; the graph exercises its plan.
def _certification_matrix():
    ws = gen.watts_strogatz(60, 4, 0.3, seed=7)
    wsu = ws.as_undirected()
    ba = gen.barabasi_albert(50, 2, seed=11)
    return {
        "PageRankProgram": (lambda: PageRankProgram(iterations=15), ba),
        "SSSPProgram": (lambda: SSSPProgram(source=0), ws),
        "ConnectedComponentsProgram": (
            lambda: ConnectedComponentsProgram(), wsu,
        ),
        "WCCProgram": (lambda: WCCProgram(), wsu),
        "KCoreProgram": (lambda: KCoreProgram(k=3), wsu),
        "LabelPropagationProgram": (
            lambda: LabelPropagationProgram(max_rounds=20), wsu,
        ),
    }


def test_no_uncertified_rpc015_claims_in_the_corpus():
    """Sweep src/repro/algorithms + examples: every lifted program must be
    in the certification matrix and actually certify against BSPEngine."""
    matrix = _certification_matrix()
    lifted = [
        v for v in lift_paths([str(ALGOS), str(EXAMPLES)]) if v.lifted
    ]
    assert lifted, "corpus sweep found no lifted programs at all"
    for v in lifted:
        assert v.program in matrix, (
            f"{v.program} claims RPC015 but has no certification entry — "
            "add one (a false-positive lift claim must fail tests)"
        )
    for name, (factory, graph) in matrix.items():
        report = certify_determinism(
            factory, graph, num_workers=4, engine="dense-ref"
        )
        assert report.ok, f"{name}: {report.summary()}"
        assert report.supersteps[0] == report.supersteps[1], name
        assert report.engine == "dense-ref"


def test_certify_weighted_sssp_on_dense_ref():
    g = gen.erdos_renyi(70, 0.08, seed=5, directed=True)
    import numpy as np

    rng = np.random.default_rng(9)
    weights = rng.uniform(0.5, 3.0, g.num_arcs)
    from repro.graph.csr import CSRGraph

    gw = CSRGraph(
        g.num_vertices, g.indptr, g.indices, weights=weights
    )
    report = certify_determinism(
        lambda: SSSPProgram(source=0), gw, num_workers=3,
        engine="dense-ref",
    )
    assert report.ok, report.summary()
    assert report.supersteps[0] == report.supersteps[1]


def test_lift_of_unwraps_live_wrappers():
    class Wrapper:
        def __init__(self, inner):
            self.inner = inner

    v = lift_of(Wrapper(PageRankProgram()))
    assert v is not None and v.lifted
    assert v.program == "PageRankProgram"


# ----------------------------------------------------------------------
# Near-miss fixtures: programs that *almost* lift, and why they don't
# ----------------------------------------------------------------------
def test_rpc016_data_dependent_branch_points_at_the_span():
    v = _lift_one("""
    class DataBranch(VertexProgram):
        def init_state(self, vertex_id, graph):
            return 0.0
        def compute(self, ctx, state, messages):
            total = 0.0
            for m in messages:
                total += m
            if total > state:
                for i, m in enumerate(messages):
                    if i < 3:
                        ctx.send_to_neighbors(m)
            ctx.vote_to_halt()
            return total
    """)
    assert not v.lifted
    assert v.rule_id == "RPC016"
    assert v.refusal_line is not None


def test_rpc017_container_state_is_refused():
    v = _lift_one("""
    class DictState(VertexProgram):
        def init_state(self, vertex_id, graph):
            return {"dist": 0.0}
        def compute(self, ctx, state, messages):
            ctx.vote_to_halt()
            return state
    """)
    assert not v.lifted
    assert v.rule_id == "RPC017"
    assert "init_state" in v.reason


def test_rpc017_tuple_message_payload_refused():
    v = _lift_one("""
    class ListPayload(VertexProgram):
        def init_state(self, vertex_id, graph):
            return 0.0
        def compute(self, ctx, state, messages):
            ctx.send_to_neighbors([state, 1.0])
            ctx.vote_to_halt()
            return state
    """)
    assert not v.lifted
    assert v.rule_id in ("RPC016", "RPC017")


def test_rpc018_unknown_reduction_is_refused():
    v = _lift_one("""
    class ProductFold(VertexProgram):
        def init_state(self, vertex_id, graph):
            return 1.0
        def compute(self, ctx, state, messages):
            total = 1.0
            for m in messages:
                total *= m
            ctx.send_to_neighbors(total)
            ctx.vote_to_halt()
            return total
    """)
    assert not v.lifted
    assert v.rule_id == "RPC018"


def test_rpc018_combiner_monoid_mismatch_is_refused():
    v = _lift_one("""
    from repro.bsp.combiners import MaxCombiner

    class Mismatch(VertexProgram):
        combiner = MaxCombiner()
        def init_state(self, vertex_id, graph):
            return 0.0
        def compute(self, ctx, state, messages):
            total = 0.0
            for m in messages:
                total += m
            ctx.send_to_neighbors(total)
            ctx.vote_to_halt()
            return total
    """)
    assert not v.lifted
    assert v.rule_id == "RPC018"


def test_walrus_and_match_lift():
    v = _lift_one("""
    class WalrusMatch(VertexProgram):
        def init_state(self, vertex_id, graph):
            return vertex_id
        def compute(self, ctx, state, messages):
            candidate = min(messages, default=state)
            match ctx.superstep:
                case 0:
                    ctx.send_to_neighbors(state)
                case _:
                    if (better := candidate < state):
                        state = candidate
                        ctx.send_to_neighbors(state)
            ctx.vote_to_halt()
            return state
    """)
    assert v.lifted, (v.rule_id, v.reason)
    assert v.plan.reduce == "min"


def test_chained_send_alias_lifts():
    v = _lift_one("""
    from repro.bsp.combiners import SumCombiner

    class Alias(VertexProgram):
        combiner = SumCombiner()
        def init_state(self, vertex_id, graph):
            return 1.0
        def compute(self, ctx, state, messages):
            total = 0.0
            for m in messages:
                total += m
            emit = ctx.send_to_neighbors
            send = emit
            send(total / 2.0)
            ctx.vote_to_halt()
            return total
    """)
    assert v.lifted, (v.rule_id, v.reason)
    assert v.plan.reduce == "sum"


# ----------------------------------------------------------------------
# Analyzer integration: the kernel rules are opt-in and INFO-severity
# ----------------------------------------------------------------------
def test_kernel_rules_do_not_run_by_default():
    from repro.check.analyzer import analyze_source

    src = (
        "from repro.bsp.api import VertexProgram\n"
        "class P(VertexProgram):\n"
        "    def init_state(self, vertex_id, graph):\n"
        "        return 0.0\n"
        "    def compute(self, ctx, state, messages):\n"
        "        ctx.vote_to_halt()\n"
        "        return state\n"
    )
    assert analyze_source(src, "p.py") == []
    kernel = analyze_source(src, "p.py", kernel_plan=True)
    assert [f.rule_id for f in kernel] == ["RPC015"]
    assert all(str(f.severity) == "info" for f in kernel)


def test_cli_json_envelope_carries_plan_digests(tmp_path, capsys):
    import argparse

    from repro.check.cli import add_check_arguments, run_check

    target = tmp_path / "prog.py"
    target.write_text(
        "from repro.bsp.api import VertexProgram\n"
        "from repro.bsp.combiners import MinCombiner\n"
        "class MiniCC(VertexProgram):\n"
        "    combiner = MinCombiner()\n"
        "    def init_state(self, vertex_id, graph):\n"
        "        return vertex_id\n"
        "    def compute(self, ctx, state, messages):\n"
        "        candidate = min(messages, default=state)\n"
        "        if ctx.superstep == 0:\n"
        "            ctx.send_to_neighbors(state)\n"
        "        elif candidate < state:\n"
        "            state = candidate\n"
        "            ctx.send_to_neighbors(state)\n"
        "        ctx.vote_to_halt()\n"
        "        return state\n"
    )
    parser = argparse.ArgumentParser()
    add_check_arguments(parser)
    args = parser.parse_args(
        [str(target), "--no-config", "--format", "json", "--kernel-plan",
         "--no-cache", "--strict"]
    )
    # INFO findings must never fail the build, even under --strict.
    assert run_check(args) == 0
    payload = json.loads(capsys.readouterr().out)
    # RPC015 (lifted) + RPC019 (the optimizer fuses MiniCC's masks)
    assert payload["infos"] == 2
    assert payload["warnings"] == 0
    (plan,) = payload["plans"]
    assert plan["status"] == "lifted"
    assert len(plan["digest"]) == 64
    assert plan["reduce"] == "min"
    info = [f for f in payload["findings"] if f["rule"] == "RPC015"]
    assert info and plan["digest"][:16] in info[0]["message"]
    opt = plan["opt"]
    assert opt["changed"] and opt["original_digest"] == plan["digest"]
    assert len(opt["digest"]) == 64 and opt["digest"] != plan["digest"]
    # the small-fix satellite: per-pass elapsed_ms rides in the envelope
    assert [p["name"] for p in opt["passes"]] == [
        "fuse-masks", "const-fold", "dead-op", "phase-fuse",
        "hoist-scatter", "cse",
    ]
    assert all(p["elapsed_ms"] >= 0 for p in opt["passes"])
    opt_info = [f for f in payload["findings"] if f["rule"] == "RPC019"]
    assert opt_info and opt["digest"][:16] in opt_info[0]["message"]


def test_runner_attaches_plan_and_coverage_gauges():
    from repro.analysis.runner import RunConfig, run_pagerank
    from repro.obs import MetricsRegistry

    metrics = MetricsRegistry()
    g = gen.barabasi_albert(40, 2, seed=3)
    res = run_pagerank(g, RunConfig(num_workers=2, metrics=metrics),
                       iterations=5)
    assert res.kernel_plan is not None
    assert res.kernel_plan.reduce == "sum"
    lifted = metrics.get(
        "repro_kernel_plan_lifted", program="PageRankProgram"
    )
    assert lifted is not None and lifted.value == 1
    phases = metrics.get(
        "repro_kernel_plan_phases", program="PageRankProgram"
    )
    assert phases is not None and phases.value == 2

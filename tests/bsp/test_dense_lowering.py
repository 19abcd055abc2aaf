"""The lowered node table against the tree walker it replaced, bit for bit.

``dense_eval_reference.ReferenceShard`` evaluates the plan by walking its
expression tree every superstep, as every shard did before plans were
lowered once per shard.  Each case runs one dense-ref job with lowered
shards and one with reference shards and compares, every superstep and
every worker, the dtype and bytes of the state column, the halted and
computed masks, each scatter's arcs and payload, and the aggregator
partials (type and repr, so ``-0.0`` and ``nan`` count).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.bsp import JobSpec
from repro.bsp import dense_ref
from repro.bsp.dense_ref import DenseRefEngine, PlanRefusedError
from repro.bsp.dense_shard import _ALL_ARCS, DenseShard
from repro.check.planopt import optimize_plan
from repro.check.vectorize import KernelPhase, KOp, lift_of, lift_source

from ..check.test_planopt import BLOCKED, FUSABLE, HAZARD, MINI_CC
from .dense_eval_reference import ReferenceShard
from .test_dense_trace import GRAPHS, PROGRAMS


def _source_program(source: str):
    """The one program ``source`` defines, as a factory and its raw plan."""
    namespace: dict = {}
    exec(compile(source, "<test>", "exec"), namespace)
    (res,) = lift_source(source, filename="<test>")
    return namespace[res.program], res.plan


SOURCES = {"MiniCC": MINI_CC, "Blocky": BLOCKED, "Fusy": FUSABLE}
CASES = [*PROGRAMS, *SOURCES]


def _case(name: str):
    if name in SOURCES:
        return _source_program(SOURCES[name])
    factory = PROGRAMS[name]
    return factory, lift_of(factory()).plan


def _bytes(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _scalar(v) -> tuple:
    return type(v).__name__, repr(v)


class _Logged:
    """Records the shard's boot state and every superstep's outputs."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.log = [_bytes(self.state)]

    def _step(self, pending, msg_count):
        computed, sends, contribs = super()._step(pending, msg_count)
        self.log.append((
            _bytes(self.state), _bytes(self.halted), _bytes(computed),
            [(arcs is _ALL_ARCS, _bytes(arcs), _bytes(vals))
             for arcs, vals in sends],
            {k: _scalar(v) for k, v in contribs.items()},
            [(_bytes(rows), _bytes(arcs)) for rows, arcs in self._mutations],
        ))
        return computed, sends, contribs


class Lowered(_Logged, DenseShard):
    pass


class Walked(_Logged, ReferenceShard):
    pass


def _logs(monkeypatch, shard_cls, job, plan) -> list[list]:
    monkeypatch.setattr(dense_ref, "DenseShard", shard_cls)
    engine = DenseRefEngine(job, plan=plan)
    engine.run()
    return [shard.log for shard in engine.workers]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("graph", list(GRAPHS))
@pytest.mark.parametrize("optimized", [False, True], ids=["raw", "opt"])
@pytest.mark.parametrize("program", CASES)
def test_lowered_shard_equals_the_tree_walker(monkeypatch, program, optimized,
                                              graph, workers):
    factory, plan = _case(program)
    if optimized:
        plan = optimize_plan(plan).plan
    g = GRAPHS[graph]()

    def job():  # Blocky never halts: its sends need no message
        return JobSpec(factory(), g, num_workers=workers, max_supersteps=30)

    ours = _logs(monkeypatch, Lowered, job(), plan)
    theirs = _logs(monkeypatch, Walked, job(), plan)
    assert len(ours) == len(theirs) == workers
    for w, (a, b) in enumerate(zip(ours, theirs)):
        assert len(a) == len(b) > 1, w
        for step, (x, y) in enumerate(zip(a, b)):
            assert x == y, (w, step)


def test_gossip_has_no_plan_to_lower():
    # planopt's hazard fixture refuses to lift (data-dependent targets), so
    # no shard is ever built for it
    (res,) = lift_source(HAZARD, filename="<test>")
    assert res.plan is None
    factory, _ = _source_program(HAZARD)
    with pytest.raises(PlanRefusedError):
        DenseRefEngine(JobSpec(factory(), GRAPHS["ws"](), num_workers=1))


def test_fixed_subtrees_fold_once():
    # (1 - damping) / nv reads only param/nv leaves: a constant in the
    # table, no node a superstep runs
    factory, plan = _case("pagerank")
    (shard,) = DenseRefEngine(
        JobSpec(factory(), GRAPHS["ws"](), num_workers=1), plan=plan).workers
    at, order = shard._init
    assert order == () and shard._template[at] is not None


def test_a_fold_that_raises_waits_for_a_read(monkeypatch):
    # 2 ** -1 raises in NumPy integer arithmetic; the payload of a scatter
    # that never sends is never read, so neither shard may raise
    factory, plan = _case("MiniCC")
    never = KOp("scatter", where=("const", False),
                payload=("pow", ("const", 2), ("neg", ("const", 1))))
    plan = replace(plan, phases=(*plan.phases, KernelPhase(None, (never,))))
    g = GRAPHS["ws"]()
    ours = _logs(monkeypatch, Lowered, JobSpec(factory(), g, num_workers=3), plan)
    theirs = _logs(monkeypatch, Walked, JobSpec(factory(), g, num_workers=3), plan)
    assert ours == theirs

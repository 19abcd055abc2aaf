"""NumPy executor for lifted KernelPlans (``--engine dense-ref``).

A :class:`BSPEngine` whose workers are :class:`~repro.bsp.dense_shard.
DenseShard`\\ s: each interprets the declarative
:class:`~repro.check.vectorize.KernelPlan` IR over its own rows' arrays, so
no per-vertex Python executes inside a superstep — that is the entire
point.  The superstep body, the flush of bulk buckets between workers,
the halting test, aggregator merge, ``master_compute``, clock, bill,
checkpoints, observers, telemetry and extract are :class:`BSPEngine`'s,
unchanged.  Each shard is built from its slice of the job's arc layout
(:class:`~repro.bsp.dense_shard.DenseLayout`), computed once; the process
and tcp engines ship each session its slice when every session hosts one.

Role in the honesty contract of ``repro check --kernel-plan``: every plan
the static lifter emits is certified against :class:`BSPEngine` by
running both engines on the same job and diffing values, supersteps, and
aggregates (``repro.check.sanitizer.certify_determinism`` with
``engine="dense-ref"``).  The analyzer may only claim RPC015 for programs
this executor provably replays.

Contract (``docs/runtime.md``): values, trace, clock and bill are bitwise
the sim's at the same worker count and partition.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .dense_shard import _FOLD, _PEEL_INJECTED, DenseLayout, DenseShard
from .dense_shard import PlanRefusedError
from .engine import BSPEngine
from .job import JobResult, JobSpec

if TYPE_CHECKING:  # import cycle: repro.check imports repro.bsp
    from ..check.vectorize import KernelPlan

__all__ = [
    "DenseRefEngine", "PlanRefusedError", "dense_refused_features",
    "shard_plan",
]


def dense_refused_features(program: Any, plan: "KernelPlan | None",
                           initial_messages: Any = ()) -> list[str]:
    """Why the dense plane cannot run this binding of ``plan``.

    The lifter proves the *program*; these are properties of the *job*
    binding it.  The one statement of them: :class:`DenseRefEngine` raises
    the first, ``--engine auto`` excludes dense-ref for each, and process
    and tcp sessions then host :class:`~repro.bsp.worker.PartitionWorker`\\ s
    (:func:`shard_plan`).  Observers and sinks are not among them: dense-ref
    feeds them like every engine.
    """
    if hasattr(program, "inner"):
        return ["the program is wrapped (--sanitize): dense-ref never calls "
                "compute(), so the wrapper would check nothing"]
    out: list[str] = []
    if plan is not None:
        for name in plan.requires_none:
            bound = getattr(program, name, None)
            if bound is not None:
                out.append(
                    f"plan was lifted for {name}=None but the program "
                    f"binds {name}={bound!r}"
                )
        out.extend(f"program lacks plan parameter {name!r}"
                   for name in plan.params if not hasattr(program, name))
        if program.combiner is not None and plan.reduce not in _FOLD:
            out.append(
                f"the plan reduces by {plan.reduce!r}: a worker folds its "
                "combined boxes by sum, min or max only"
            )
        if plan.needs_prune and len(initial_messages) > 0:
            out.append(_PEEL_INJECTED)
    return out


def _lifted(program: Any) -> "KernelPlan":
    """The program's lifted plan, optimised; a refusal raises
    :class:`PlanRefusedError` naming the blocking rule."""
    from ..check.planopt import optimized  # lazy: avoids cycle
    from ..check.vectorize import lift_of

    verdict = lift_of(program)
    if verdict is None:
        raise PlanRefusedError(f"cannot locate source for {type(program).__name__}; "
                               "no kernel plan to execute")
    if verdict.plan is None:
        raise PlanRefusedError(f"{verdict.rule_id} at {verdict.file}:"
                               f"{verdict.refusal_line}: {verdict.reason}")
    return optimized(verdict.plan)


def shard_plan(program: Any, initial_messages: Any = ()) -> "KernelPlan | None":
    """The optimised plan every worker runs as a :class:`DenseShard`, or
    None when :func:`dense_refused_features` refuses the job (or the
    program does not lift): the workers are then
    :class:`~repro.bsp.worker.PartitionWorker`\\ s."""
    try:
        plan = _lifted(program)
    except PlanRefusedError:
        return None
    return None if dense_refused_features(program, plan, initial_messages) else plan


class DenseRefEngine(BSPEngine):
    """Run a :class:`JobSpec` by interpreting the program's KernelPlan.

    ``plan`` defaults to lifting the job's program from source (via
    :func:`repro.check.vectorize.lift_of`); a refusal raises
    :class:`PlanRefusedError` with the blocking rule and reason.
    Auto-lifted plans run through the static optimizer
    (:func:`repro.check.planopt.optimize_plan`, certified bit-identical
    by the test suite); an explicitly passed ``plan`` is always executed
    exactly as given (``lift_of(program).plan`` runs unoptimised).
    """

    migrates = False  # shards hold rows in arrays, not per-vertex dicts

    def __init__(self, job: JobSpec, plan: "KernelPlan | None" = None):
        program = job.program
        if plan is None:
            plan = _lifted(program)
        refusals = dense_refused_features(program, plan, job.initial_messages)
        if refusals:
            raise PlanRefusedError(refusals[0])
        self.plan = plan
        super().__init__(job)

    def _build_workers(self) -> None:
        job, w = self.job, self.num_workers
        layout = DenseLayout(self.graph, self.partition.assignment, w,
                             self.plan, job.initial_active_ids())
        self.workers = [DenseShard(layout.slice(i), job.program, self.model,
                                   self.plan) for i in range(w)]

    def run(self) -> JobResult:
        result = super().run()
        result.kernel_plan = self.plan
        return result

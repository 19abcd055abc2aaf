"""KernelPlan optimizer: static fusion passes over the vectorize IR.

The lifter (:mod:`.vectorize`) translates ``compute()`` bodies literally,
so its plans are riddled with redundancy: every branch folds into nested
``where`` expressions that restate their enclosing conditions, op masks
conjoin the phase guard they already run under, and the scatter payload
usually recomputes the exact subtree the state update evaluates anyway.
This module rewrites plans into a cheaper, equivalent form:

* **fuse-masks** — assumption-driven simplification: inside the true
  branch of ``(where c a b)``, ``c`` is a fact; under a phase guard, the
  guard is a fact; under an op mask, the mask is a fact.  Facts collapse
  restated conditions, fusing op masks with their phase guards.
* **const-fold** — folds closed constant subtrees with *NumPy ufunc
  semantics* (the executor's arithmetic, not Python's) and removes
  bit-safe identities (``x*1``; ``x+0`` only for non-float operands —
  ``-0.0 + 0.0`` is ``+0.0``, so float add-identity is not bitwise-safe).
* **dead-op** — drops ops whose mask is constant-false, phases whose
  guard is constant-false, and empty phases.
* **phase-fuse** — merges phases with structurally equal guards.  Merging
  across an intervening phase is *blocked* (RPC020) when it would reorder
  float-significant accumulation: message delivery under ``reduce="sum"``
  or same-name aggregator contributions.
* **hoist-scatter** — marks scatter payloads whose vertex-space subtrees
  are shared with the state update or an op mask; the dense executor then
  evaluates them once over vertices and indexes per-arc (elementwise ufuncs
  commute with indexing, so this is bit-identical).
* **cse** — hash-conses structurally identical subtrees so the executor's
  ``id()``-keyed memo sees the sharing the digest already implies.

Honesty contract (same as RPC015): every rewrite must leave the plan
**bit-identical** under :class:`~repro.bsp.dense_ref.DenseRefEngine` —
:func:`certify_optimization` runs the raw and optimized plans and diffs
values/supersteps/aggregates at the bit level (``-0.0 != 0.0``); the test
suite certifies every bundled algorithm, so a divergent rewrite is a test
failure, not a silent wrong answer.

Value-preservation rules the rewriter obeys:

* A rewrite may change an expression's *dtype* only behind an explicit
  cast (``_keep_dtype``) — except in **mask context** (op ``where``,
  phase guards, condition slots), where consumers cast to bool and only
  truthiness must be preserved.
* Facts are sound elementwise: a value selected only where ``c`` holds
  may be simplified assuming ``c``.
* ``logical_and(a, b)`` is false wherever ``a`` is false, so ``b`` may be
  simplified assuming ``a`` (and dually for ``or``).

The verdicts surface as four catalog rules (``repro check
--kernel-plan``): RPC019 (plan optimized; carries the optimized digest),
RPC020 (fusion blocked; names the blocking op), RPC021 (costmodel /
vectorize verdict disagreement), RPC022 (engine-selection hazard).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .costmodel import FanoutClass, profile_program
from .findings import Severity
from .rules import ModuleInfo, ProgramInfo, Rule
from .vectorize import (
    Expr,
    KOp,
    KernelPhase,
    KernelPlan,
    LiftResult,
    _dtype_of,
    _plan_digest,
    lift_verdict,
    render_expr,
)

__all__ = [
    "PASS_VERSIONS",
    "PLANOPT_SIGNATURE",
    "PLANOPT_RULES",
    "FusionBlock",
    "PassReport",
    "PlanOptResult",
    "PlanVerdict",
    "OptCertification",
    "optimize_plan",
    "optimize_verdict",
    "optimize_source",
    "optimize_file",
    "certify_optimization",
    "plan_profile_disagreements",
]

#: (pass name, pass version) in execution order.  Bump a version whenever
#: that pass's rewrites change — the analyzer cache keys on the combined
#: signature, so stale optimized plans can never be replayed.
PASS_VERSIONS: tuple[tuple[str, int], ...] = (
    ("fuse-masks", 1),
    ("const-fold", 1),
    ("dead-op", 1),
    ("phase-fuse", 1),
    ("hoist-scatter", 1),
    ("cse", 1),
)

PLANOPT_SIGNATURE = ";".join(f"{n}={v}" for n, v in PASS_VERSIONS)

_TRUE: Expr = ("const", True)
_FALSE: Expr = ("const", False)

_LEAF_HEADS = {
    "const", "param", "state", "vertex", "superstep", "nv", "out_degree",
    "msg", "msg_count", "agg", "edge_weight",
}

#: NumPy semantics for folding — the executor's exact arithmetic.
_NP_UNARY = {"not": np.logical_not, "neg": np.negative, "abs": np.abs}
_NP_BINARY = {
    "add": np.add, "sub": np.subtract, "mul": np.multiply,
    "div": np.true_divide, "floordiv": np.floor_divide, "mod": np.mod,
    "pow": np.power, "min2": np.minimum, "max2": np.maximum,
    "lt": np.less, "le": np.less_equal, "gt": np.greater,
    "ge": np.greater_equal, "eq": np.equal, "ne": np.not_equal,
    "and": np.logical_and, "or": np.logical_or,
}
#: the executor casts non-array scalars with the Python constructors
_PY_CAST = {"cast_int": int, "cast_float": float, "cast_bool": bool}

_COMPLEMENT = {"lt": "ge", "ge": "lt", "gt": "le", "le": "gt",
               "eq": "ne", "ne": "eq"}

_CAST_FOR = {"bool": "cast_bool", "int64": "cast_int",
             "float64": "cast_float"}
_PY_FOR = {"bool": bool, "int64": int, "float64": float}


def _is_const(e: Any) -> bool:
    return isinstance(e, tuple) and e[0] == "const"


def _neg(e: Expr) -> Expr:
    if e[0] == "not":
        return e[1]
    return ("not", e)


# ----------------------------------------------------------------------
# Fact sets (assumption tracking)
# ----------------------------------------------------------------------
def _assume_true(e: Expr, t: frozenset, f: frozenset):
    head = e[0]
    if head == "and":
        t, f = _assume_true(e[1], t, f)
        return _assume_true(e[2], t, f)
    if head == "not":
        return _assume_false(e[1], t, f)
    if head == "const":
        return t, f
    return t | {e}, f


def _assume_false(e: Expr, t: frozenset, f: frozenset):
    head = e[0]
    if head == "or":
        t, f = _assume_false(e[1], t, f)
        return _assume_false(e[2], t, f)
    if head == "not":
        return _assume_true(e[1], t, f)
    if head == "const":
        return t, f
    return t, f | {e}


def _lookup(e: Expr, t: frozenset, f: frozenset) -> bool | None:
    """Truth value of ``e`` under the facts, or None when undetermined."""
    if e in t:
        return True
    if e in f:
        return False
    head = e[0]
    comp = _COMPLEMENT.get(head)
    if comp is not None:
        ce = (comp,) + e[1:]
        if ce in t:
            return False
        if ce in f:
            return True
    if head == "not":
        inner = _lookup(e[1], t, f)
        if inner is not None:
            return not inner
    return None


def _fold_compound(head: str, args: list) -> Expr | None:
    """Fold a compound over constant children with the executor's own
    NumPy arithmetic (overflow wraps, div-by-zero gives inf/nan — exactly
    what the interpreter would compute at runtime)."""
    try:
        with np.errstate(all="ignore"):
            if head in _NP_UNARY:
                out = _NP_UNARY[head](args[0])
            elif head in _PY_CAST:
                out = _PY_CAST[head](args[0])
            elif head in _NP_BINARY:
                out = _NP_BINARY[head](args[0], args[1])
            elif head == "where":
                out = args[1] if args[0] else args[2]
            else:
                return None
    except Exception:
        return None
    if isinstance(out, np.generic):
        out = out.item()
    if not isinstance(out, (bool, int, float)):
        return None
    return ("const", out)


class _Rewriter:
    """One expression-rewriting pass (fuse-masks or const-fold).

    ``fold=False`` runs the assumption/mask machinery only (fuse-masks);
    ``fold=True`` runs constant folding + identity elimination with no
    seeded facts (const-fold).  Both share the traversal so the boolean
    collapse rules compose.
    """

    def __init__(self, state_dtype: str, message_dtype: str | None,
                 fold: bool):
        self.state = state_dtype
        self.msg = message_dtype
        self.fold = fold
        self.rewrites = 0

    # -- dtype preservation --------------------------------------------
    def _dtype(self, e: Expr) -> str | None:
        return _dtype_of(e, self.state, self.msg)

    def _keep_dtype(self, original: Expr, candidate: Expr,
                    mask_ctx: bool) -> Expr:
        d0 = self._dtype(original)
        d1 = self._dtype(candidate)
        if d0 is None or d1 is None or d0 == d1:
            return candidate
        if mask_ctx and d0 in ("bool", "int64") and d1 in ("bool", "int64"):
            # consumers cast masks to bool; 1/0 vs True/False is the same
            return candidate
        if _is_const(candidate):
            try:
                return ("const", _PY_FOR[d0](candidate[1]))
            except (ValueError, OverflowError):
                pass
        return (_CAST_FOR[d0], candidate)

    def _done(self, original: Expr, candidate: Expr,
              mask_ctx: bool) -> Expr:
        candidate = self._keep_dtype(original, candidate, mask_ctx)
        if candidate != original:
            self.rewrites += 1
        return candidate

    # -- traversal ------------------------------------------------------
    def simplify(self, e: Expr | None,
                 t: frozenset = frozenset(),
                 f: frozenset = frozenset(),
                 mask_ctx: bool = False) -> Expr | None:
        if e is None:
            return None
        return self._simplify(e, t, f, mask_ctx)

    def _simplify(self, e: Expr, t: frozenset, f: frozenset,
                  m: bool) -> Expr:
        head = e[0]
        if head == "const":
            return e
        known = _lookup(e, t, f)
        if known is not None:
            return self._done(e, ("const", known), m)
        if head in _LEAF_HEADS:
            return e
        if head == "where":
            return self._where(e, t, f, m)
        if head == "and":
            return self._and(e, t, f, m)
        if head == "or":
            return self._or(e, t, f, m)
        if head == "not":
            a = self._simplify(e[1], t, f, True)
            if _is_const(a):
                return self._done(e, ("const", not a[1]), m)
            if a[0] == "not" and self._dtype(a[1]) == "bool":
                return self._done(e, a[1], m)
            return self._done(e, ("not", a), m)
        # generic compound: comparisons and arithmetic (value context)
        kids = tuple(
            self._simplify(c, t, f, False) if isinstance(c, tuple) else c
            for c in e[1:]
        )
        out: Expr = (head,) + kids
        if self.fold:
            if all(_is_const(k) for k in kids if isinstance(k, tuple)):
                folded = _fold_compound(head, [k[1] for k in kids])
                if folded is not None:
                    return self._done(e, folded, m)
            out = self._identity(out)
        return self._done(e, out, m)

    def _where(self, e: Expr, t: frozenset, f: frozenset, m: bool) -> Expr:
        c = self._simplify(e[1], t, f, True)
        if _is_const(c):
            pick = e[2] if c[1] else e[3]
            return self._done(e, self._simplify(pick, t, f, m), m)
        ct, cf = _assume_true(c, t, f)
        a = self._simplify(e[2], ct, cf, m)
        ft, ff = _assume_false(c, t, f)
        b = self._simplify(e[3], ft, ff, m)
        if a == b:
            return self._done(e, a, m)
        if (self._dtype(a) == "bool" and self._dtype(b) == "bool"
                and self._dtype(c) == "bool"):
            if a == _TRUE:
                return self._done(e, ("or", c, b), m)
            if b == _FALSE:
                return self._done(e, ("and", c, a), m)
            if a == _FALSE:
                return self._done(e, ("and", _neg(c), b), m)
            if b == _TRUE:
                return self._done(e, ("or", _neg(c), a), m)
        return self._done(e, ("where", c, a, b), m)

    def _and(self, e: Expr, t: frozenset, f: frozenset, m: bool) -> Expr:
        a = self._simplify(e[1], t, f, True)
        if _is_const(a):
            out = self._simplify(e[2], t, f, m) if a[1] else _FALSE
            return self._done(e, out, m)
        at, af = _assume_true(a, t, f)
        b = self._simplify(e[2], at, af, True)
        if _is_const(b):
            return self._done(e, a if b[1] else _FALSE, m)
        if a == b:
            return self._done(e, a, m)
        return self._done(e, ("and", a, b), m)

    def _or(self, e: Expr, t: frozenset, f: frozenset, m: bool) -> Expr:
        a = self._simplify(e[1], t, f, True)
        if _is_const(a):
            out = _TRUE if a[1] else self._simplify(e[2], t, f, m)
            return self._done(e, out, m)
        at, af = _assume_false(a, t, f)
        b = self._simplify(e[2], at, af, True)
        if _is_const(b):
            return self._done(e, _TRUE if b[1] else a, m)
        if a == b:
            return self._done(e, a, m)
        return self._done(e, ("or", a, b), m)

    def _identity(self, e: Expr) -> Expr:
        """Bit-safe algebraic identities (const-fold pass only)."""
        head = e[0]

        def _is_num(k: Any, v) -> bool:
            return (_is_const(k) and type(k[1]) is not bool
                    and k[1] == v)

        if head == "mul":
            if _is_num(e[1], 1):
                return e[2]
            if _is_num(e[2], 1):
                return e[1]
        elif head == "div":
            if _is_num(e[2], 1):
                return e[1]
        elif head in ("add", "sub"):
            # x + 0.0 maps -0.0 to +0.0: only safe for non-float operands
            if _is_num(e[2], 0) and self._dtype(e[1]) != "float64":
                return e[1]
            if (head == "add" and _is_num(e[1], 0)
                    and self._dtype(e[2]) != "float64"):
                return e[2]
        elif head in ("min2", "max2"):
            if e[1] == e[2]:
                return e[1]
        return e


# ----------------------------------------------------------------------
# Pass reports and the optimized-plan result
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PassReport:
    """What one optimizer pass did to one plan."""

    name: str
    version: int
    changed: bool
    rewrites: int
    elapsed_ms: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "version": self.version,
            "changed": self.changed,
            "rewrites": self.rewrites,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


@dataclass(frozen=True)
class FusionBlock:
    """A phase merge the optimizer refused, and the op that blocked it."""

    phase: int  # index (post dead-op) of the phase that could not move
    guard: str  # rendered guard of the blocked phase
    op: str  # blocking op kind
    reason: str

    def as_dict(self) -> dict:
        return {
            "phase": self.phase,
            "guard": self.guard,
            "op": self.op,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class PlanOptResult:
    """An optimized plan plus the audit trail that produced it."""

    original: KernelPlan
    plan: KernelPlan
    passes: tuple[PassReport, ...]
    blocked: tuple[FusionBlock, ...]
    fused_phases: int
    hoisted: int
    shared: int  # subtree occurrences unified by cse

    @property
    def changed(self) -> bool:
        return self.plan.digest != self.original.digest

    def as_dict(self) -> dict:
        return {
            "digest": self.plan.digest,
            "original_digest": self.original.digest,
            "changed": self.changed,
            "phases": len(self.plan.phases),
            "ops": self.plan.num_ops,
            "fused_phases": self.fused_phases,
            "hoisted": self.hoisted,
            "shared": self.shared,
            "blocked": [b.as_dict() for b in self.blocked],
            "passes": [p.as_dict() for p in self.passes],
        }


def _rebuild(plan: KernelPlan, **changes: Any) -> KernelPlan:
    new = replace(plan, **changes)
    object.__setattr__(new, "digest", _plan_digest(new.as_dict()))
    return new


# ----------------------------------------------------------------------
# The passes
# ----------------------------------------------------------------------
def _expr_pass(plan: KernelPlan, fold: bool) -> tuple[KernelPlan, int]:
    """fuse-masks (fold=False) / const-fold (fold=True) over every
    expression slot, threading guard and mask facts into op bodies."""
    rw = _Rewriter(plan.state_dtype, plan.message_dtype, fold=fold)
    none = frozenset()
    phases = []
    for phase in plan.phases:
        guard = rw.simplify(phase.guard, mask_ctx=True)
        if guard is not None and not _is_const(guard):
            t, f = _assume_true(guard, none, none)
        else:
            t, f = none, none
        ops = []
        for op in phase.ops:
            where = rw.simplify(op.where, t, f, mask_ctx=True)
            if where is not None and not _is_const(where):
                wt, wf = _assume_true(where, t, f)
            else:
                wt, wf = t, f
            payload = rw.simplify(op.payload, wt, wf)
            value = rw.simplify(op.value, wt, wf)
            ops.append(replace(op, where=where, payload=payload,
                               value=value))
        phases.append(KernelPhase(guard=guard, ops=tuple(ops)))
    update = rw.simplify(plan.state_update)
    init = rw.simplify(plan.state_init)
    default = rw.simplify(plan.gather_default)
    if rw.rewrites == 0:
        return plan, 0
    return _rebuild(
        plan, phases=tuple(phases), state_update=update, state_init=init,
        gather_default=default,
    ), rw.rewrites


def _dead_op_pass(plan: KernelPlan) -> tuple[KernelPlan, int]:
    removed = 0
    phases = []
    for phase in plan.phases:
        guard = phase.guard
        if guard is not None and _is_const(guard):
            if not guard[1]:
                removed += 1 + len(phase.ops)
                continue
            guard = None  # constant-true guard = every superstep
            removed += 1
        ops = []
        for op in phase.ops:
            where = op.where
            if where is not None and _is_const(where):
                if not where[1]:
                    removed += 1
                    continue
                op = replace(op, where=None)  # const-true mask = computed
                removed += 1
            ops.append(op)
        if not ops:
            if phase.ops:
                removed += 1
            continue
        phases.append(KernelPhase(guard=guard, ops=tuple(ops)))
    if removed == 0:
        return plan, 0
    return _rebuild(plan, phases=tuple(phases)), removed


def _fusion_blocker(plan: KernelPlan, phase: KernelPhase,
                    crossing: list) -> tuple[str, str] | None:
    """(op kind, reason) preventing ``phase`` from moving over
    ``crossing`` phases, or None when the move is order-insensitive.

    Everything in a plan reads superstep-entry state only (the lifter's
    core invariant), so the only order-sensitive effects are engine-level
    accumulations: message concatenation order under a ``sum`` gather
    (bincount float-accumulates) and same-name aggregator merge order.
    min/max/count/mode gathers and vote/prune/drop masks are idempotent
    or fully sorted, hence order-free at the bit level.
    """
    kinds = {op.kind for op in phase.ops}
    cross_kinds = {op.kind for g, ops in crossing for op in ops}
    if plan.reduce == "sum" and "scatter" in kinds and \
            "scatter" in cross_kinds:
        return ("scatter",
                "message delivery order is accumulation-significant "
                "under reduce='sum'")
    names = {op.name for op in phase.ops if op.kind == "aggregate"}
    cross_names = {
        op.name for g, ops in crossing for op in ops
        if op.kind == "aggregate"
    }
    both = names & cross_names
    if both:
        return ("aggregate",
                f"aggregator {sorted(both)[0]!r} merges contributions "
                "in op order")
    return None


def _phase_fuse_pass(
    plan: KernelPlan,
) -> tuple[KernelPlan, int, int, tuple[FusionBlock, ...]]:
    merged: list[list] = []  # [guard, [ops...]]
    blocked: list[FusionBlock] = []
    fused = 0
    for idx, phase in enumerate(plan.phases):
        target = None
        for j, (guard, _ops) in enumerate(merged):
            if guard == phase.guard:
                target = j
                break
        if target is None:
            merged.append([phase.guard, list(phase.ops)])
            continue
        if target == len(merged) - 1:
            merged[target][1].extend(phase.ops)
            fused += 1
            continue
        block = _fusion_blocker(plan, phase, merged[target + 1:])
        if block is None:
            merged[target][1].extend(phase.ops)
            fused += 1
        else:
            op_kind, reason = block
            blocked.append(FusionBlock(
                phase=idx, guard=render_expr(phase.guard), op=op_kind,
                reason=reason,
            ))
            merged.append([phase.guard, list(phase.ops)])
    if fused == 0:
        return plan, 0, 0, tuple(blocked)
    phases = tuple(
        KernelPhase(guard=g, ops=tuple(ops)) for g, ops in merged
    )
    return _rebuild(plan, phases=phases), fused, fused, tuple(blocked)


def _uses_edge_weight(e: Expr) -> bool:
    if e[0] == "edge_weight":
        return True
    return any(
        _uses_edge_weight(c) for c in e[1:] if isinstance(c, tuple)
    )


def _compound_subtrees(e: Expr | None, out: set) -> None:
    if e is None or e[0] in _LEAF_HEADS:
        return
    out.add(e)
    for c in e[1:]:
        if isinstance(c, tuple):
            _compound_subtrees(c, out)


def _hoist_pass(plan: KernelPlan) -> tuple[KernelPlan, int]:
    """Mark scatter payloads whose vertex-space subtrees are shared with
    vertex-evaluated expressions (state update, masks, aggregate values,
    other payloads).  The executor then evaluates those subtrees once in
    vertex space — where the shared memo already holds them — and indexes
    per-arc, instead of re-evaluating over (usually larger) arc rows."""
    scatters = [
        op for phase in plan.phases for op in phase.ops
        if op.kind == "scatter" and op.payload is not None
    ]
    if not scatters:
        return plan, 0
    pool: set = set()
    _compound_subtrees(plan.state_update, pool)
    _compound_subtrees(plan.gather_default, pool)
    for phase in plan.phases:
        for op in phase.ops:
            _compound_subtrees(op.where, pool)
            _compound_subtrees(op.value, pool)

    def _wants_hoist(op: KOp, others: set) -> bool:
        subs: set = set()
        _compound_subtrees(op.payload, subs)
        return any(
            s in others and not _uses_edge_weight(s) for s in subs
        )

    hoisted = 0
    phases = []
    for phase in plan.phases:
        ops = []
        for op in phase.ops:
            if op.kind == "scatter" and op.payload is not None \
                    and not op.hoist:
                others = set(pool)
                for other in scatters:
                    if other is not op:
                        _compound_subtrees(other.payload, others)
                if _wants_hoist(op, others):
                    op = replace(op, hoist=True)
                    hoisted += 1
            ops.append(op)
        phases.append(KernelPhase(guard=phase.guard, ops=tuple(ops)))
    if hoisted == 0:
        return plan, 0
    return _rebuild(plan, phases=tuple(phases)), hoisted


def _cse_pass(plan: KernelPlan) -> tuple[KernelPlan, int]:
    """Hash-cons structurally equal subtrees into shared tuples.

    Digest-invariant (structure is unchanged); it exists purely so the
    dense executor's ``(id(expr), id(arcs))`` memo turns structural
    sharing into evaluation sharing."""
    interner: dict = {}
    shared = 0

    def intern(e):
        nonlocal shared
        if e is None or not isinstance(e, tuple):
            return e
        rebuilt = (e[0],) + tuple(
            intern(c) if isinstance(c, tuple) else c for c in e[1:]
        )
        got = interner.get(rebuilt)
        if got is not None:
            shared += 1
            return got
        interner[rebuilt] = rebuilt
        return rebuilt

    phases = tuple(
        KernelPhase(
            guard=intern(phase.guard),
            ops=tuple(
                replace(op, where=intern(op.where),
                        payload=intern(op.payload), value=intern(op.value))
                for op in phase.ops
            ),
        )
        for phase in plan.phases
    )
    new = _rebuild(
        plan, phases=phases, state_update=intern(plan.state_update),
        state_init=intern(plan.state_init),
        gather_default=intern(plan.gather_default),
    )
    return new, shared


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
def optimize_plan(plan: KernelPlan) -> PlanOptResult:
    """Run the full pass pipeline over one plan.

    fuse-masks and const-fold iterate to a fixpoint (each exposes work
    for the other); the structural passes then run once.  Per-pass
    rewrite counts and wall time are accumulated into the reports the
    JSON envelope ships (``opt.passes[*].elapsed_ms``).
    """
    original = plan
    stats: dict[str, list] = {
        name: [0, 0.0, False] for name, _ in PASS_VERSIONS
    }

    def timed(name: str, fn: Callable, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        stats[name][1] += (time.perf_counter() - t0) * 1000.0
        return out

    for _ in range(4):
        plan, r1 = timed("fuse-masks", _expr_pass, plan, False)
        plan, r2 = timed("const-fold", _expr_pass, plan, True)
        for name, n in (("fuse-masks", r1), ("const-fold", r2)):
            stats[name][0] += n
            stats[name][2] = stats[name][2] or n > 0
        if r1 == 0 and r2 == 0:
            break

    plan, removed = timed("dead-op", _dead_op_pass, plan)
    stats["dead-op"][:] = [removed, stats["dead-op"][1], removed > 0]

    plan, rewrites, fused, blocked = timed(
        "phase-fuse", _phase_fuse_pass, plan
    )
    stats["phase-fuse"][:] = [rewrites, stats["phase-fuse"][1], fused > 0]

    plan, hoisted = timed("hoist-scatter", _hoist_pass, plan)
    stats["hoist-scatter"][:] = [
        hoisted, stats["hoist-scatter"][1], hoisted > 0,
    ]

    plan, shared = timed("cse", _cse_pass, plan)
    # cse never changes plan *content* (digest-invariant by construction)
    stats["cse"][:] = [shared, stats["cse"][1], False]

    reports = tuple(
        PassReport(
            name=name, version=version, changed=stats[name][2],
            rewrites=stats[name][0], elapsed_ms=stats[name][1],
        )
        for name, version in PASS_VERSIONS
    )
    return PlanOptResult(
        original=original, plan=plan, passes=reports, blocked=blocked,
        fused_phases=fused, hoisted=hoisted, shared=shared,
    )


#: id(plan) -> (plan, its optimized plan); holding the plan keeps the id its own
_OPTIMIZED: dict[int, tuple[KernelPlan, KernelPlan]] = {}


def optimized(plan: KernelPlan) -> KernelPlan:
    """``optimize_plan(plan).plan``, computed once per plan object:
    :func:`~repro.check.vectorize.lift_of` hands out the same plan for as
    long as the program's source file is unchanged."""
    hit = _OPTIMIZED.get(id(plan))
    if hit is None:
        hit = _OPTIMIZED[id(plan)] = (plan, optimize_plan(plan).plan)
    return hit[1]


# ----------------------------------------------------------------------
# Module-level verdicts (lift + optimize), memoized like lift_verdict
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanVerdict:
    """A lift verdict enriched with its optimization result."""

    lift: LiftResult
    opt: PlanOptResult | None

    @property
    def program(self) -> str:
        return self.lift.program

    @property
    def lifted(self) -> bool:
        return self.lift.lifted

    @property
    def plan(self) -> KernelPlan | None:
        """The *optimized* plan when lifted (the raw plan is
        ``self.lift.plan``)."""
        return self.opt.plan if self.opt is not None else None

    def as_dict(self) -> dict:
        out = self.lift.as_dict()
        if self.opt is not None:
            out["opt"] = self.opt.as_dict()
        return out


def optimize_verdict(program: ProgramInfo, module: ModuleInfo) -> PlanVerdict:
    """Lift + optimize with per-module memoization (the rules share it)."""
    cache = getattr(module, "_planopt_cache", None)
    if cache is None:
        cache = {}
        module._planopt_cache = cache  # type: ignore[attr-defined]
    key = id(program.node)
    if key in cache:
        return cache[key]
    lift = lift_verdict(program, module)
    opt = optimize_plan(lift.plan) if lift.plan is not None else None
    verdict = PlanVerdict(lift=lift, opt=opt)
    cache[key] = verdict
    return verdict


def optimize_source(source: str, filename: str = "<string>") -> list[PlanVerdict]:
    """Enriched verdicts for every VertexProgram subclass in one module."""
    import ast

    from .analyzer import _find_programs

    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError:
        return []
    module = ModuleInfo.build(tree, filename)
    return [optimize_verdict(p, module) for p in _find_programs(tree)]


def optimize_file(path: str | Path) -> list[PlanVerdict]:
    path = Path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return []
    return optimize_source(source, filename=str(path))


# ----------------------------------------------------------------------
# Differential certification (raw plan vs optimized plan, bit level)
# ----------------------------------------------------------------------
def _bits(v: Any) -> Any:
    """Bit-faithful comparison key (distinguishes -0.0/0.0, matches NaN)."""
    if isinstance(v, float):
        import struct

        return struct.pack("<d", v)
    return v


@dataclass(frozen=True)
class OptCertification:
    """Outcome of one raw-vs-optimized differential run."""

    program: str
    original_digest: str
    optimized_digest: str
    ok: bool
    mismatches: tuple[str, ...]

    def summary(self) -> str:
        state = "bit-identical" if self.ok else "DIVERGED"
        out = (
            f"planopt certification: {self.program} "
            f"{self.original_digest[:12]} -> {self.optimized_digest[:12]}: "
            f"{state}"
        )
        if self.mismatches:
            out += "\n  " + "\n  ".join(self.mismatches[:10])
        return out


def certify_optimization(make_job: Callable[[], "Any"],
                         max_mismatches: int = 8) -> OptCertification:
    """Run the raw and the optimized plan of ``make_job()``'s program
    under :class:`DenseRefEngine` and diff every observable at the bit
    level.  ``make_job`` is called twice so master-state mutation on the
    program instance cannot leak between the runs.
    """
    from ..bsp.dense_ref import DenseRefEngine
    from .vectorize import lift_of

    job = make_job()
    verdict = lift_of(job.program)
    if verdict is None or verdict.plan is None:
        raise ValueError(
            "certify_optimization needs a liftable program; got "
            f"{type(job.program).__name__}"
        )
    raw = verdict.plan
    opt = optimize_plan(raw).plan
    a = DenseRefEngine(job, plan=raw).run()
    b = DenseRefEngine(make_job(), plan=opt).run()

    mismatches: list[str] = []
    if a.supersteps != b.supersteps:
        mismatches.append(
            f"supersteps: {a.supersteps} != {b.supersteps}"
        )
    if a.halted != b.halted:
        mismatches.append(f"halted: {a.halted} != {b.halted}")
    for v in a.values:
        if len(mismatches) >= max_mismatches:
            break
        if _bits(a.values[v]) != _bits(b.values.get(v)):
            mismatches.append(
                f"vertex {v}: {a.values[v]!r} != {b.values.get(v)!r}"
            )
    for k in a.aggregates:
        if _bits(a.aggregates[k]) != _bits(b.aggregates.get(k)):
            mismatches.append(
                f"aggregate {k!r}: {a.aggregates[k]!r} != "
                f"{b.aggregates.get(k)!r}"
            )
    return OptCertification(
        program=verdict.program,
        original_digest=raw.digest,
        optimized_digest=opt.digest,
        ok=not mismatches,
        mismatches=tuple(mismatches),
    )


# ----------------------------------------------------------------------
# Cross-analysis checks (RPC021 helper)
# ----------------------------------------------------------------------
def plan_profile_disagreements(profile: Any, plan: KernelPlan) -> list[str]:
    """Ways the costmodel profile and the lifted plan contradict each
    other.  Both passes are sound alone; a disagreement means one of them
    mis-modeled the program and neither verdict should be trusted."""
    out: list[str] = []
    if profile is None:
        return out
    has_scatter = any(
        op.kind == "scatter" for p in plan.phases for op in p.ops
    )
    if has_scatter and profile.fanout is FanoutClass.NONE:
        out.append(
            "plan scatters messages but the costmodel classifies the "
            "program as fanout=none"
        )
    if not has_scatter and profile.fanout.level >= FanoutClass.OUT_DEGREE.level:
        out.append(
            f"costmodel classifies fanout={profile.fanout} but the plan "
            "has no scatter op"
        )
    if (plan.reduce in ("sum", "min", "max")
            and profile.reduction is not None
            and profile.reduction != plan.reduce):
        out.append(
            f"plan gathers with reduce='{plan.reduce}' but the costmodel "
            f"infers reduction='{profile.reduction}'"
        )
    return out


# ----------------------------------------------------------------------
# Catalog rules (opt-in: only run under `repro check --kernel-plan`)
# ----------------------------------------------------------------------
class PlanOptimizedRule(Rule):
    """RPC019: the optimizer rewrote the plan; the finding carries the
    optimized digest so dashboards can track what actually executes."""

    id = "RPC019"
    severity = Severity.INFO
    summary = "KernelPlan optimizes (fused masks / folded constants)"
    hint = (
        "dense-ref executes the optimized plan; it is certified "
        "bit-identical to the unoptimized plan by the test suite"
    )

    def check(self, program, module):
        v = optimize_verdict(program, module)
        if v.opt is None or not v.opt.changed:
            return
        o = v.opt
        rewrites = sum(p.rewrites for p in o.passes)
        extras = []
        if o.fused_phases:
            extras.append(f"{o.fused_phases} phase(s) fused")
        if o.hoisted:
            extras.append(f"{o.hoisted} scatter(s) hoisted")
        detail = f" ({', '.join(extras)})" if extras else ""
        yield self.finding(
            module, program.node,
            f"plan {o.original.digest[:16]} optimizes to "
            f"{o.plan.digest[:16]}: {rewrites} rewrite(s), "
            f"{o.original.num_ops} -> {o.plan.num_ops} op(s){detail}",
        )


class FusionBlockedRule(Rule):
    """RPC020: an order-sensitive op blocked a phase merge."""

    id = "RPC020"
    severity = Severity.INFO
    summary = "phase fusion blocked by an order-sensitive op"
    hint = (
        "sum-reduced scatters and same-name aggregator contributions "
        "cannot be reordered; group same-guard effects together in "
        "compute() to fuse them"
    )

    def check(self, program, module):
        v = optimize_verdict(program, module)
        if v.opt is None:
            return
        for b in v.opt.blocked:
            yield self.finding(
                module, program.node,
                f"phase {b.phase} (guard {b.guard}) cannot fuse past a "
                f"{b.op} op: {b.reason}",
            )


class VerdictDisagreementRule(Rule):
    """RPC021: the costmodel profile and the kernel plan contradict each
    other — one of the two static passes mis-modeled the program."""

    id = "RPC021"
    severity = Severity.WARNING
    summary = "costmodel profile disagrees with the kernel-plan verdict"
    hint = (
        "trust neither verdict until the disagreement is explained; "
        "file a bug with the program source if both passes look right"
    )

    def check(self, program, module):
        res = lift_verdict(program, module)
        if res.plan is None:
            return
        profile = profile_program(program, module)
        for reason in plan_profile_disagreements(profile, res.plan):
            yield self.finding(module, program.node, reason)


class EngineSelectionHazardRule(Rule):
    """RPC022: static engine selection can only route this program to a
    hazardous engine (broadcast fan-out pinned in a single process)."""

    id = "RPC022"
    severity = Severity.WARNING
    summary = "engine selection hazard: broadcast fan-out pinned single-process"
    hint = (
        "remove the pickle-unsafe state (RPC011) or restructure compute() "
        "so it lifts to a KernelPlan; until then only the sim can "
        "run it and broadcast traffic will not parallelize"
    )

    def check(self, program, module):
        res = lift_verdict(program, module)
        if res.plan is not None:
            return  # dense-ref is eligible: no hazard
        profile = profile_program(program, module)
        if profile is None:
            return
        if profile.fanout is FanoutClass.BROADCAST and profile.pickle_risks:
            risk = profile.pickle_risks[0]
            yield self.finding(
                module, program.node,
                "broadcast fan-out with pickle-unsafe state "
                f"(line {risk.line}: {risk.detail}) pins the program to "
                "single-process engines; `--engine auto` can only route "
                "its message volume to the sim",
            )


PLANOPT_RULES: tuple[Rule, ...] = (
    PlanOptimizedRule(),
    FusionBlockedRule(),
    VerdictDisagreementRule(),
    EngineSelectionHazardRule(),
)

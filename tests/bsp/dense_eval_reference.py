"""The dense shard's expression evaluator as it was before plans were
lowered: a recursive tree walk over the KernelPlan, every superstep, with
an ``(id(expr), id(arcs))``-keyed memo.

Kept verbatim as the oracle ``test_dense_lowering.py`` compares
:class:`~repro.bsp.dense_shard.DenseShard` against: :class:`ReferenceShard`
is a shard whose ``_boot_state`` and ``_step`` are the old ones, and both
must produce the same bits every superstep.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.bsp.dense_shard import (
    _ALL_ARCS,
    DenseShard,
    PlanRefusedError,
    _reduce_identity,
)


def _touches_weight(expr) -> bool:
    """Does ``expr`` read the ``edge_weight`` leaf?"""
    return expr[0] == "edge_weight" or any(
        _touches_weight(c) for c in expr[1:] if isinstance(c, tuple)
    )


class _Eval:
    """One superstep's expression evaluator with per-expression memoizing.

    Vertex space evaluates over one entry per row of the shard (the ``nv``
    leaf is the graph's vertex count); arc space indexes the row leaves
    through the arc's source row and adds the ``edge_weight`` leaf.  The
    lifter shares tuple identity between the state update, scatter
    payloads, and masks, so the memo doubles as a common-subexpression
    cache.
    """

    def __init__(self, shard: "DenseShard", state: np.ndarray,
                 msg: np.ndarray | None, msg_count: np.ndarray,
                 out_degree: np.ndarray):
        self.e = shard
        self.state = state
        self.msg = msg
        self.msg_count = msg_count
        self.out_degree = out_degree
        self._memo: dict[tuple[int, int], Any] = {}

    def vertex(self, expr) -> Any:
        return self._eval(expr, None, None)

    scalar = vertex  # phase guards evaluate in vertex space too

    def full(self, expr) -> np.ndarray:
        """:meth:`vertex`, broadcast to one entry per row."""
        return np.broadcast_to(np.asarray(self.vertex(expr)), (self.e.n,))

    def arc(self, expr, arcs: np.ndarray) -> Any:
        return self._eval(expr, arcs, self.e._take(self.e.src, arcs))

    def arc_hoisted(self, expr, arcs: np.ndarray) -> Any:
        """Arc-space evaluation that computes edge-weight-free subtrees in
        vertex space — where the memo already shares them with the state
        update and masks — and indexes the result per-arc.

        Elementwise ufuncs commute with indexing (``f(x)[rows] ==
        f(x[rows])`` bitwise), so this is exactly :meth:`arc` with the
        evaluation order rearranged to reuse vertex-space work; the
        optimizer (repro.check.planopt) only marks ``hoist`` on payloads
        where that sharing exists.
        """
        key = (id(expr), id(arcs))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        out = self._eval_hoist(expr, arcs, self.e._take(self.e.src, arcs))
        self._memo[key] = out
        return out

    def _eval_hoist(self, expr, arcs, rows) -> Any:
        if not _touches_weight(expr):
            v = self._eval(expr, None, None)
            if isinstance(v, np.ndarray) and v.ndim == 1 \
                    and v.shape[0] == self.e.n:
                return v[rows]
            return v
        if expr[0] == "edge_weight":
            return self.e._take(self.e.weights, arcs)
        return self._apply(expr, arcs, rows, self._eval_hoist)

    def _eval(self, expr, arcs, rows) -> Any:
        key = (id(expr), -1 if arcs is None else id(arcs))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        out = self._eval_inner(expr, arcs, rows)
        self._memo[key] = out
        return out

    def _vec(self, base, rows):
        return base if rows is None else base[rows]

    def _eval_inner(self, expr, arcs, rows) -> Any:
        head = expr[0]
        if head == "const":
            return expr[1]
        if head == "param":
            return self.e.params[expr[1]]
        if head == "superstep":
            return self.e.superstep
        if head == "nv":
            return self.e.num_vertices
        if head == "agg":
            return self.e.aggregated(expr[1])
        if head == "state":
            return self._vec(self.state, rows)
        if head == "vertex":
            return self._vec(self.e.vertex_ids, rows)
        if head == "out_degree":
            return self._vec(self.out_degree, rows)
        if head == "msg":
            if self.msg is None:
                raise PlanRefusedError("plan reads messages it never gathers")
            return self._vec(self.msg, rows)
        if head == "msg_count":
            return self._vec(self.msg_count, rows)
        if head == "edge_weight":
            if arcs is None:
                raise PlanRefusedError("edge_weight outside a scatter payload")
            return self.e._take(self.e.weights, arcs)
        return self._apply(expr, arcs, rows, self._eval)

    @staticmethod
    def _apply(expr, arcs, rows, recur) -> Any:
        """The operator dispatch (unary, casts, ``where``, :data:`_BINARY`)
        shared by both evaluation orders; ``recur`` evaluates an operand."""
        head = expr[0]
        a = recur(expr[1], arcs, rows)
        if head == "not":
            return np.logical_not(a)
        if head == "neg":
            return np.negative(a)
        if head == "abs":
            return np.abs(a)
        if head == "cast_int":
            return np.asarray(a).astype(np.int64) if isinstance(
                a, np.ndarray) else int(a)
        if head == "cast_float":
            return np.asarray(a).astype(np.float64) if isinstance(
                a, np.ndarray) else float(a)
        if head == "cast_bool":
            return np.asarray(a).astype(bool) if isinstance(
                a, np.ndarray) else bool(a)
        b = recur(expr[2], arcs, rows)
        if head == "where":
            c = recur(expr[3], arcs, rows)
            return np.where(a, b, c)
        return _BINARY[head](a, b)


_BINARY = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.true_divide,
    "floordiv": np.floor_divide,
    "mod": np.mod,
    "pow": np.power,
    "min2": np.minimum,
    "max2": np.maximum,
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
    "eq": np.equal,
    "ne": np.not_equal,
    "and": np.logical_and,
    "or": np.logical_or,
}

class ReferenceShard(DenseShard):
    """A :class:`DenseShard` that walks the plan's tree every superstep."""

    def _boot_state(self, sdt: np.dtype, out_degree: np.ndarray) -> np.ndarray:
        """The rows' state column before superstep 0 (``plan.state_init``)."""
        boot = _Eval(self, np.zeros(self.n, dtype=sdt), None,
                     np.zeros(self.n, dtype=np.int64), out_degree)
        with np.errstate(all="ignore"):  # as in _step: 1/n at n == 0
            return boot.full(self.plan.state_init).astype(sdt).copy()

    @np.errstate(all="ignore")
    def _step(self, pending: tuple, msg_count: np.ndarray):
        """One superstep of the plan over every computed row at once:
        gather, the ops in plan order, the state update.  Returns the
        computed mask, the sends as ``(arcs, payload per arc)`` per scatter
        in op order, and the aggregator partials, folded in row order like
        a worker's."""
        plan, mdt, halted = self.plan, self._mdt, self.halted
        aggregators = self._aggregators
        out_degree = self._out_degree
        computed = (msg_count > 0) | (~halted)
        halted[computed] = False
        sends: list[tuple[np.ndarray, np.ndarray]] = []
        contribs = {name: agg.identity() for name, agg in aggregators.items()}

        ev = _Eval(self, self.state, None, msg_count, out_degree)
        if plan.reduce is not None:
            default = (
                ev.vertex(plan.gather_default)
                if plan.gather_default is not None
                else _reduce_identity(plan.reduce, mdt)
            )
            ev.msg = self._gather(
                plan.reduce, pending[0], pending[1], msg_count, default)
        ops = [  # guards read nothing an op writes
            op for phase in plan.phases
            if phase.guard is None or bool(ev.scalar(phase.guard))
            for op in phase.ops
        ]
        for op in ops:
            mask = computed
            if op.where is not None:
                mask = computed & ev.full(op.where).astype(bool)
            if op.kind == "vote":
                halted[mask] = True
            elif op.kind == "scatter":
                arcs, count = self._live_arcs(mask, out_degree)
                if count == 0:
                    continue
                arc_eval = ev.arc_hoisted if getattr(op, "hoist", False) else ev.arc
                raw = arc_eval(op.payload, arcs)
                sends.append(
                    (arcs, np.broadcast_to(np.asarray(raw, dtype=mdt), (count,)))
                )
            elif op.kind == "aggregate":
                vals = ev.full(op.value)[mask]
                if vals.size == 0:
                    continue
                # Left fold in row order, as a worker reduces: pairwise
                # ``.sum()`` reassociates float adds.
                part = (
                    float(np.cumsum(vals)[-1])
                    if vals.dtype.kind == "f" else int(vals.sum())
                )
                name = op.name or ""
                contribs[name] = aggregators[name].reduce(contribs[name], part)
            elif op.kind == "prune_received":
                got = mask[pending[0]]
                if got.any():
                    self._prune(pending[0][got], pending[2][got])
            elif op.kind == "drop_edges":
                arcs, count = self._live_arcs(mask, out_degree)
                if count:
                    ids = np.arange(self.m) if arcs is _ALL_ARCS else arcs
                    self._mutations.append((self._take(self.src, arcs), ids))
            else:
                raise PlanRefusedError(f"unknown kernel op {op.kind!r}")
        if plan.state_update is not None:
            new = ev.full(plan.state_update).astype(self.state.dtype, copy=False)
            self.state = np.where(computed, new, self.state)
        return computed, sends, contribs

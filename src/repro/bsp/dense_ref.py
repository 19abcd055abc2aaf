"""NumPy reference executor for lifted KernelPlans (``--engine dense-ref``).

Interprets the declarative :class:`~repro.check.vectorize.KernelPlan` IR
directly over the graph's CSR arrays: one gather (bincount / ufunc.at /
segmented mode) per superstep, masked map expressions for the state
update, scatter along live arcs for sends, and boolean halt masks in
place of per-vertex vote calls.  No per-vertex Python executes inside the
superstep loop — that is the entire point.

Role in the honesty contract of ``repro check --kernel-plan``: every plan
the static lifter emits is certified against :class:`BSPEngine` by
running both engines on the same job and diffing values, supersteps, and
aggregates (``repro.check.sanitizer.certify_determinism`` with
``engine="dense-ref"``).  The analyzer may only claim RPC015 for programs
this executor provably replays.

Semantics mirrored from the simulation engine:

* messages sent at superstep *s* are delivered at *s+1*;
* a computed vertex is re-activated unless it votes again;
* topology mutations (the k-core peel idiom) requested at *s* are applied
  at the beginning of *s+1*;
* aggregators merge fresh at every barrier; ``master_compute`` runs
  natively on the real program instance after each barrier (lift-time
  analysis already proved its halt decisions order-insensitive);
* the job halts when no messages are in flight and every vertex has
  voted, or when the master halts the job.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from ..cloud.billing import BillingMeter
from .job import JobResult, JobSpec
from .superstep import JobTrace

if TYPE_CHECKING:  # import cycle: repro.check imports repro.bsp
    from ..check.vectorize import KernelPlan

__all__ = ["DenseRefEngine", "PlanRefusedError"]


class PlanRefusedError(RuntimeError):
    """The program has no certified dense form for this job."""


_INT_MAX = np.iinfo(np.int64).max
_INT_MIN = np.iinfo(np.int64).min


def _reduce_identity(reduce: str, dtype: np.dtype) -> Any:
    if reduce == "min":
        return np.inf if dtype.kind == "f" else _INT_MAX
    if reduce == "max":
        return -np.inf if dtype.kind == "f" else _INT_MIN
    return 0


class _DenseMaster:
    """Duck-typed :class:`~repro.bsp.api.MasterContext` over dense state."""

    def __init__(self, superstep: int, num_workers: int, active: int,
                 aggs: dict[str, Any]):
        self._superstep = superstep
        self._num_workers = num_workers
        self._active = active
        self._aggs = aggs
        self._halt = False

    @property
    def superstep(self) -> int:
        return self._superstep

    @property
    def num_workers(self) -> int:
        return self._num_workers

    @property
    def active_vertices(self) -> int:
        return self._active

    def aggregated(self, name: str) -> Any:
        return self._aggs[name]

    def publish(self, name: str, value: Any) -> None:
        raise PlanRefusedError(
            "master publish() is not modeled by the dense executor "
            "(the lifter refuses publishing programs)"
        )

    def halt_job(self) -> None:
        self._halt = True


class _Eval:
    """One superstep's expression evaluator with per-expression memoizing.

    Vertex space evaluates over full n-vectors; arc space indexes the
    vertex leaves through the arc's source vertex and adds the
    ``edge_weight`` leaf.  The lifter shares tuple identity between the
    state update, scatter payloads, and masks, so the memo doubles as a
    common-subexpression cache.
    """

    def __init__(self, engine: "DenseRefEngine", superstep: int,
                 state: np.ndarray, msg: np.ndarray | None,
                 msg_count: np.ndarray, out_degree: np.ndarray,
                 aggs: dict[str, Any]):
        self.e = engine
        self.superstep = superstep
        self.state = state
        self.msg = msg
        self.msg_count = msg_count
        self.out_degree = out_degree
        self.aggs = aggs
        self._memo: dict[tuple[int, int], Any] = {}

    def vertex(self, expr) -> Any:
        return self._eval(expr, None, None)

    scalar = vertex  # phase guards evaluate in vertex space too

    def arc(self, expr, arcs: np.ndarray) -> Any:
        return self._eval(expr, arcs, self.e.src[arcs])

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
        out = self._eval_hoist(expr, arcs, self.e.src[arcs])
        self._memo[key] = out
        return out

    def _eval_hoist(self, expr, arcs, rows) -> Any:
        if not self.e._touches_weight(expr):
            v = self._eval(expr, None, None)
            if isinstance(v, np.ndarray) and v.ndim == 1 \
                    and v.shape[0] == self.e.n:
                return v[rows]
            return v
        if expr[0] == "edge_weight":
            return self.e.weights[arcs]
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
            return self.superstep
        if head == "nv":
            return self.e.n
        if head == "agg":
            return self.aggs[expr[1]]
        if head == "state":
            return self._vec(self.state, rows)
        if head == "vertex":
            if rows is not None:
                return rows
            return self.e.vertex_ids
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
            return self.e.weights[arcs]
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


class DenseRefEngine:
    """Run a :class:`JobSpec` by interpreting the program's KernelPlan.

    ``plan`` defaults to lifting the job's program from source (via
    :func:`repro.check.vectorize.lift_of`); a refusal raises
    :class:`PlanRefusedError` with the blocking rule and reason.
    Auto-lifted plans run through the static optimizer
    (:func:`repro.check.planopt.optimize_plan`, certified bit-identical
    by the test suite) unless ``optimize=False``; an explicitly passed
    ``plan`` is always executed exactly as given.
    """

    def __init__(self, job: JobSpec, plan: "KernelPlan | None" = None,
                 optimize: bool = True):
        self.job = job
        program = job.program
        unwrapped = 0
        while hasattr(program, "inner") and unwrapped < 8:
            program = program.inner
            unwrapped += 1
        self.program = program
        if plan is None:
            from ..check.vectorize import lift_of  # lazy: avoids cycle

            verdict = lift_of(program)
            if verdict is None:
                raise PlanRefusedError(
                    f"cannot locate source for {type(program).__name__}; "
                    "no kernel plan to execute"
                )
            if verdict.plan is None:
                raise PlanRefusedError(
                    f"{verdict.rule_id} at {verdict.file}:"
                    f"{verdict.refusal_line}: {verdict.reason}"
                )
            plan = verdict.plan
            if optimize:
                from ..check.planopt import optimize_plan

                plan = optimize_plan(plan).plan
        self.plan = plan
        self._weight_cache: dict[int, bool] = {}
        self.params: dict[str, Any] = {}
        for name in plan.requires_none:
            if getattr(program, name, None) is not None:
                raise PlanRefusedError(
                    f"plan was lifted for {name}=None but the program "
                    f"binds {name}={getattr(program, name)!r}"
                )
        for name in plan.params:
            if not hasattr(program, name):
                raise PlanRefusedError(f"program lacks plan parameter {name!r}")
            self.params[name] = getattr(program, name)

        g = job.graph
        self.n = int(g.num_vertices)
        self.indptr = np.asarray(g.indptr, dtype=np.int64)
        self.dst = np.asarray(g.indices, dtype=np.int64)
        self.m = int(self.dst.shape[0])
        degrees = np.diff(self.indptr)
        self.src = np.repeat(
            np.arange(self.n, dtype=np.int64), degrees
        )
        self.static_degree = degrees.astype(np.int64)
        if g.weights is not None:
            self.weights = np.asarray(g.weights, dtype=np.float64)
        else:
            self.weights = np.ones(self.m, dtype=np.float64)
        self.vertex_ids = np.arange(self.n, dtype=np.int64)

        self._needs_prune = plan.needs_prune
        if self._needs_prune and len(job.initial_messages) > 0:
            raise PlanRefusedError(
                "peel plans cannot start from injected messages (no arc "
                "identity to prune)"
            )

    def _touches_weight(self, expr) -> bool:
        """Does ``expr`` read the ``edge_weight`` leaf?  id-cached — plan
        expression tuples are stable for the engine's lifetime."""
        key = id(expr)
        hit = self._weight_cache.get(key)
        if hit is None:
            hit = expr[0] == "edge_weight" or any(
                self._touches_weight(c)
                for c in expr[1:]
                if isinstance(c, tuple)
            )
            self._weight_cache[key] = hit
        return hit

    # -- graph helpers -------------------------------------------------
    def _reverse_arcs(self) -> np.ndarray:
        """arc -> index of the reciprocal arc (dst->src), -1 when absent.

        Stable sort keeps the first occurrence for multi-edges, matching
        the worker overlay's ``list.remove`` first-occurrence semantics.
        """
        key = self.src * self.n + self.dst
        order = np.argsort(key, kind="stable")
        skey = key[order]
        want = self.dst * self.n + self.src
        pos = np.searchsorted(skey, want)
        pos_c = np.minimum(pos, self.m - 1) if self.m else pos
        found = (pos < self.m) & (skey[pos_c] == want) if self.m else (
            np.zeros(0, dtype=bool)
        )
        return np.where(found, order[pos_c], -1)

    # -- gathers -------------------------------------------------------
    def _gather(self, reduce: str, pend_dst: np.ndarray,
                pend_val: np.ndarray, msg_count: np.ndarray,
                state: np.ndarray, default: np.ndarray | Any,
                include_self: bool, mdt: np.dtype) -> np.ndarray:
        n = self.n
        if reduce == "count":
            return msg_count
        if reduce == "sum":
            reduced = np.bincount(
                pend_dst, weights=pend_val.astype(np.float64), minlength=n
            )
            if mdt.kind != "f":
                reduced = reduced.astype(mdt)
        elif reduce in ("min", "max"):
            reduced = np.full(n, _reduce_identity(reduce, mdt), dtype=mdt)
            ufunc = np.minimum if reduce == "min" else np.maximum
            ufunc.at(reduced, pend_dst, pend_val.astype(mdt, copy=False))
        elif reduce == "mode":
            reduced = self._gather_mode(
                pend_dst, pend_val, msg_count, state, include_self, mdt
            )
        else:
            raise PlanRefusedError(f"unknown reduce monoid {reduce!r}")
        has = msg_count > 0
        return np.where(has, reduced, default).astype(mdt, copy=False)

    def _gather_mode(self, pend_dst, pend_val, msg_count, state,
                     include_self, mdt) -> np.ndarray:
        # (max multiplicity, then min label) — exactly the Counter idiom's
        # `min(l for l, c in counts.items() if c == max(counts.values()))`.
        n = self.n
        if include_self:
            recv = np.flatnonzero(msg_count > 0)
            pend_dst = np.concatenate([pend_dst, recv])
            pend_val = np.concatenate(
                [pend_val, state[recv].astype(pend_val.dtype, copy=False)]
            )
        order = np.lexsort((pend_val, pend_dst))
        d = pend_dst[order]
        v = pend_val[order]
        run_start = np.ones(d.size, dtype=bool)
        run_start[1:] = (d[1:] != d[:-1]) | (v[1:] != v[:-1])
        run_ids = np.cumsum(run_start) - 1
        counts = np.bincount(run_ids)
        run_dst = d[run_start]
        run_val = v[run_start]
        best = np.zeros(n, dtype=np.int64)
        np.maximum.at(best, run_dst, counts)
        winners = counts == best[run_dst]
        out = np.full(n, _reduce_identity("min", mdt), dtype=mdt)
        np.minimum.at(out, run_dst[winners], run_val[winners])
        return out

    # -- main loop -----------------------------------------------------
    def run(self) -> JobResult:
        job, plan = self.job, self.plan
        n = self.n
        sdt = np.dtype(plan.state_dtype)
        mdt = np.dtype(plan.message_dtype)

        aggregators = dict(self.program.aggregators())
        agg_prev = {k: a.identity() for k, a in aggregators.items()}

        edge_alive = (
            np.ones(self.m, dtype=bool) if plan.uses_mutation else None
        )
        rev_arc = self._reverse_arcs() if self._needs_prune else None

        halted = np.zeros(n, dtype=bool)
        active_ids = job.initial_active_ids()
        if active_ids is not None:
            halted[:] = True
            if active_ids.size:
                halted[active_ids] = False

        boot = _Eval(self, 0, np.zeros(n, dtype=sdt), None,
                     np.zeros(n, dtype=np.int64), self.static_degree,
                     agg_prev)
        state = np.broadcast_to(
            np.asarray(boot.vertex(plan.state_init)), (n,)
        ).astype(sdt).copy()

        pend_dst = np.empty(0, dtype=np.int64)
        pend_val = np.empty(0, dtype=mdt)
        pend_arc = np.empty(0, dtype=np.int64)
        if job.initial_messages:
            pend_dst = np.asarray(
                [int(v) for v, _ in job.initial_messages], dtype=np.int64
            )
            pend_val = np.asarray(
                [p for _, p in job.initial_messages]
            ).astype(mdt)

        queued_off: list[np.ndarray] = []
        supersteps = 0
        halted_flag = False

        with np.errstate(all="ignore"):
            while supersteps < job.max_supersteps:
                if pend_dst.size == 0 and bool(halted.all()):
                    halted_flag = True
                    break
                s = supersteps

                if edge_alive is not None and queued_off:
                    edge_alive[np.concatenate(queued_off)] = False
                    queued_off = []
                if edge_alive is not None:
                    out_degree = np.bincount(
                        self.src[edge_alive], minlength=n
                    ).astype(np.int64)
                else:
                    out_degree = self.static_degree

                msg_count = np.bincount(pend_dst, minlength=n).astype(
                    np.int64
                )
                computed = (msg_count > 0) | (~halted)
                halted[computed] = False

                ev = _Eval(self, s, state, None, msg_count, out_degree,
                           agg_prev)
                if plan.reduce is not None:
                    default = (
                        ev.vertex(plan.gather_default)
                        if plan.gather_default is not None
                        else _reduce_identity(plan.reduce, mdt)
                    )
                    ev.msg = self._gather(
                        plan.reduce, pend_dst, pend_val, msg_count, state,
                        default, plan.include_self, mdt
                    )

                next_dst: list[np.ndarray] = []
                next_val: list[np.ndarray] = []
                next_arc: list[np.ndarray] = []
                contribs: dict[str, Any] = {}

                for phase in plan.phases:
                    if phase.guard is not None and not bool(
                        ev.scalar(phase.guard)
                    ):
                        continue
                    for op in phase.ops:
                        if op.where is None:
                            mask = computed
                        else:
                            w = np.broadcast_to(
                                np.asarray(ev.vertex(op.where)), (n,)
                            )
                            mask = computed & w.astype(bool)
                        if op.kind == "vote":
                            halted[mask] = True
                        elif op.kind == "scatter":
                            arc_sel = mask[self.src]
                            if edge_alive is not None:
                                arc_sel &= edge_alive
                            arcs = np.flatnonzero(arc_sel)
                            if arcs.size == 0:
                                continue
                            raw = (
                                ev.arc_hoisted(op.payload, arcs)
                                if getattr(op, "hoist", False)
                                else ev.arc(op.payload, arcs)
                            )
                            payload = np.broadcast_to(
                                np.asarray(raw, dtype=mdt),
                                arcs.shape,
                            )
                            next_dst.append(self.dst[arcs])
                            next_val.append(payload)
                            next_arc.append(arcs)
                        elif op.kind == "aggregate":
                            vals = np.broadcast_to(
                                np.asarray(ev.vertex(op.value)), (n,)
                            )
                            part = vals[mask].sum()
                            part = (
                                int(part) if vals.dtype.kind in "biu"
                                else float(part)
                            )
                            name = op.name or ""
                            if name in contribs:
                                contribs[name] = aggregators[name].merge(
                                    contribs[name], part
                                )
                            else:
                                contribs[name] = part
                        elif op.kind == "prune_received":
                            if pend_arc.size:
                                hit = mask[self.dst[pend_arc]]
                                rev = rev_arc[pend_arc[hit]]
                                rev = rev[rev >= 0]
                                if rev.size:
                                    queued_off.append(rev)
                        elif op.kind == "drop_edges":
                            arc_sel = mask[self.src]
                            if edge_alive is not None:
                                arc_sel &= edge_alive
                            arcs = np.flatnonzero(arc_sel)
                            if arcs.size:
                                queued_off.append(arcs)
                        else:
                            raise PlanRefusedError(
                                f"unknown kernel op {op.kind!r}"
                            )

                if plan.state_update is not None:
                    new = np.broadcast_to(
                        np.asarray(ev.vertex(plan.state_update)), (n,)
                    ).astype(sdt, copy=False)
                    state = np.where(computed, new, state).astype(
                        sdt, copy=False
                    )

                agg_next = {}
                for name, agg in aggregators.items():
                    ident = agg.identity()
                    if name in contribs:
                        agg_next[name] = agg.merge(ident, contribs[name])
                    else:
                        agg_next[name] = ident

                supersteps += 1
                master = _DenseMaster(
                    s, job.num_workers, int((~halted).sum()), agg_next
                )
                self.program.master_compute(master)
                agg_prev = agg_next
                if master._halt:
                    halted_flag = True
                    break

                if next_dst:
                    pend_dst = np.concatenate(next_dst)
                    pend_val = np.concatenate(next_val)
                    pend_arc = (
                        np.concatenate(next_arc)
                        if self._needs_prune
                        else pend_arc
                    )
                else:
                    pend_dst = np.empty(0, dtype=np.int64)
                    pend_val = np.empty(0, dtype=mdt)
                    pend_arc = np.empty(0, dtype=np.int64)

        extract = self.program.extract
        values = {
            v: extract(v, sv) for v, sv in enumerate(state.tolist())
        }
        return JobResult(
            values=values,
            trace=JobTrace(),
            meter=BillingMeter(),
            supersteps=supersteps,
            halted=halted_flag,
            aggregates=dict(agg_prev),
            kernel_plan=plan,
        )

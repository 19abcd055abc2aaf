"""NumPy executor for lifted KernelPlans (``--engine dense-ref``).

A compute backend of :meth:`BSPEngine._run_one_superstep`: it interprets
the declarative :class:`~repro.check.vectorize.KernelPlan` IR directly
over the graph's CSR arrays — one gather (bincount / ufunc.at / segmented
mode) per superstep, masked map expressions for the state update, scatter
along live arcs for sends, and boolean halt masks in place of per-vertex
vote calls.  No per-vertex Python executes inside a superstep — that is
the entire point.  It supplies the two phases and one small resource view
per worker, whose step stats are filled from array ops; the loop, halting
test, aggregator merge, ``master_compute``, clock, bill, checkpoints,
observers and telemetry are :class:`BSPEngine`'s.

Role in the honesty contract of ``repro check --kernel-plan``: every plan
the static lifter emits is certified against :class:`BSPEngine` by
running both engines on the same job and diffing values, supersteps, and
aggregates (``repro.check.sanitizer.certify_determinism`` with
``engine="dense-ref"``).  The analyzer may only claim RPC015 for programs
this executor provably replays.

Contracts (``docs/runtime.md``): values are bitwise the 1-worker sim's
(every reduction folds in vertex order); trace, clock and bill are the
sim's at the same worker count and partition.  The arrays keep the
partition worker's rules: messages sent at superstep *s* arrive at *s+1*,
injected ones after the data plane's; a computed vertex is re-activated
unless it votes again; mutations (the k-core peel idiom) requested at *s*
apply at the start of *s+1*; message counts are post-combine; payload and
state sizes are the program's hooks, read once on a scalar of the dtype.

The interpreter itself (:class:`_PlanKernel`) also runs inside process and
tcp worker sessions, over one worker's rows
(:mod:`repro.bsp.dense_shard`, accepted by :func:`shard_plan`).
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any

import numpy as np

from .api import VertexProgram
from .engine import BSPEngine
from .job import JobResult, JobSpec
from .superstep import WorkerStepStats
from .worker import PartitionWorker

if TYPE_CHECKING:  # import cycle: repro.check imports repro.bsp
    from ..check.vectorize import KernelPlan

__all__ = [
    "DenseRefEngine", "PlanRefusedError", "dense_refused_features", "shard_plan",
]


class PlanRefusedError(RuntimeError):
    """The program has no certified dense form for this job."""


#: peel plans prune by arc identity; an injected message arrives on no arc
_PEEL_INJECTED = "peel plans cannot start from injected messages"


def dense_refused_features(program: Any, plan: "KernelPlan | None",
                           initial_messages: Any = ()) -> list[str]:
    """Why the dense executor cannot run this binding of ``plan``.

    The lifter proves the *program*; these are properties of the *job*
    binding it.  The one statement of them: :class:`DenseRefEngine` raises
    the first, ``--engine auto`` excludes dense-ref for each.  Observers
    and sinks are not among them: dense-ref feeds them like every engine.
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
        if plan.needs_prune and len(initial_messages) > 0:
            out.append(_PEEL_INJECTED)
    return out


def shard_plan(program: Any, initial_messages: Any = ()) -> "KernelPlan | None":
    """The optimised plan a worker session runs as a dense shard
    (:class:`~repro.bsp.dense_shard.DenseShard`), or None: the sessions
    then host :class:`PartitionWorker`\\ s.

    A shard refuses what :func:`dense_refused_features` refuses, plus peel
    plans — the receiver cannot name the arc a remote message came on —
    and a combiner whose plan does not reduce by sum, min or max, the
    monoids a sender folds its boxes with.
    """
    from ..check.planopt import optimized  # lazy: avoids cycle
    from ..check.vectorize import lift_of

    verdict = lift_of(program)
    if verdict is None or verdict.plan is None:
        return None
    plan = optimized(verdict.plan)
    if (
        dense_refused_features(program, plan, initial_messages)
        or plan.uses_mutation or plan.needs_prune
        or (program.combiner is not None and plan.reduce not in _FOLD)
        or not all(hasattr(program, name) for name in plan.params)
    ):
        return None
    return plan


#: the arc set "every arc", recognised by identity: :meth:`DenseRefEngine.
#: _take` is the identity for it, so a superstep that sends along every arc
#: builds nothing arc-sized to say so.  Not ``None``: :class:`_Eval` keys
#: vertex space on that.
_ALL_ARCS = np.empty(0, dtype=np.int64)
_ALL_ARCS.flags.writeable = False

_INT_MAX = np.iinfo(np.int64).max
_INT_MIN = np.iinfo(np.int64).min


def _reduce_identity(reduce: str, dtype: np.dtype) -> Any:
    if reduce == "min":
        return np.inf if dtype.kind == "f" else _INT_MAX
    if reduce == "max":
        return -np.inf if dtype.kind == "f" else _INT_MIN
    return 0


#: the monoids a message fold can use, as the pairwise ufunc
_FOLD = {"sum": np.add, "min": np.minimum, "max": np.maximum}


def _fold(reduce: str, n: int, dst: np.ndarray, val: np.ndarray,
          mdt: np.dtype) -> np.ndarray:
    """Fold ``val`` into ``n`` slots by ``dst``, each slot in array order
    (a slot nothing reaches holds the monoid's identity)."""
    if reduce == "sum":
        out = np.bincount(
            dst, weights=val.astype(np.float64, copy=False), minlength=n
        )
        return out if mdt.kind == "f" else out.astype(mdt)
    out = np.full(n, _reduce_identity(reduce, mdt), dtype=mdt)
    _FOLD[reduce].at(out, dst, val.astype(mdt, copy=False))
    return out


def _touches_weight(expr) -> bool:
    """Does ``expr`` read the ``edge_weight`` leaf?"""
    return expr[0] == "edge_weight" or any(
        _touches_weight(c) for c in expr[1:] if isinstance(c, tuple)
    )


def _cat(parts: list, dtype: Any) -> np.ndarray:
    """``parts`` as one array; a lone part is returned as is, uncopied."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)


@dataclass
class _View:
    """One worker's resource numbers, refreshed from array ops every
    superstep: the per-worker surface :class:`BSPEngine` reads.  The byte
    formulas are :class:`PartitionWorker`'s own, so they are stated once."""

    worker_id: int
    model: Any
    graph_bytes: int
    total_state_bytes: int
    stats: WorkerStepStats
    active_count: int = 0
    #: messages buffered for the next superstep, injected ones included
    queue_depth: int = 0
    in_next_payload_bytes: float = 0.0
    out_remote_wire_bytes: float = 0.0
    overlay_bytes: int = 0

    @property
    def has_buffered_messages(self) -> bool:
        return self.queue_depth > 0

    def buffered_message_count(self) -> int:
        return self.queue_depth

    buffered_message_bytes = PartitionWorker.buffered_message_bytes
    memory_footprint = PartitionWorker.memory_footprint


class _Eval:
    """One superstep's expression evaluator with per-expression memoizing.

    Vertex space evaluates over one entry per row of the kernel (every
    vertex for :class:`DenseRefEngine`, a worker's own for a shard; the
    ``nv`` leaf is the graph's vertex count either way); arc space indexes
    the row leaves through the arc's source row and adds the
    ``edge_weight`` leaf.  The lifter shares tuple identity between the
    state update, scatter payloads, and masks, so the memo doubles as a
    common-subexpression cache.
    """

    def __init__(self, engine: "_PlanKernel", state: np.ndarray,
                 msg: np.ndarray | None, msg_count: np.ndarray,
                 out_degree: np.ndarray):
        self.e = engine
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


class _PlanKernel:
    """The plan interpreter over one set of rows: every vertex of the
    graph (:class:`DenseRefEngine`) or one worker's
    (:class:`~repro.bsp.dense_shard.DenseShard`).  One op loop, one
    gather, one arc selection for both.

    A subclass provides ``plan``, ``params``, ``superstep``,
    ``aggregated()``, ``_aggregators``, ``_mdt``, the ``n`` rows
    (``vertex_ids``, ``state``, ``halted``), ``num_vertices`` of the graph,
    and its ``m`` arcs: ``src`` (source row), ``dst`` (destination, in the
    space its flush routes by), ``weights`` and ``edge_alive`` (None unless
    a peel plan removes arcs).
    """

    def _take(self, per_arc: np.ndarray, arcs: np.ndarray) -> np.ndarray:
        """``per_arc[arcs]``, uncopied for :data:`_ALL_ARCS`."""
        return per_arc if arcs is _ALL_ARCS else per_arc[arcs]

    def _boot_state(self, sdt: np.dtype, out_degree: np.ndarray) -> np.ndarray:
        """The rows' state column before superstep 0 (``plan.state_init``)."""
        boot = _Eval(self, np.zeros(self.n, dtype=sdt), None,
                     np.zeros(self.n, dtype=np.int64), out_degree)
        with np.errstate(all="ignore"):  # as in _step: 1/n at n == 0
            return boot.full(self.plan.state_init).astype(sdt).copy()

    def _live_arcs(self, mask: np.ndarray,
                   out_degree: np.ndarray) -> tuple[np.ndarray, int]:
        """Live out-arcs of the rows in ``mask`` and how many they are:
        the sum of their live degrees, which reaches m only when every arc
        is alive and selected — :data:`_ALL_ARCS`, found in O(n).  (The mask
        itself need not be full: PageRank skips dangling vertices.)"""
        count = int(out_degree.sum(where=mask))
        if count == self.m:
            return _ALL_ARCS, count
        arc_sel = mask[self.src]
        if self.edge_alive is not None:
            arc_sel &= self.edge_alive
        return np.flatnonzero(arc_sel), count

    def _gather(self, reduce: str, pend_dst: np.ndarray,
                pend_val: np.ndarray, msg_count: np.ndarray,
                state: np.ndarray, default: np.ndarray | Any,
                include_self: bool, mdt: np.dtype) -> np.ndarray:
        if reduce == "count":
            return msg_count
        if reduce in _FOLD:
            reduced = _fold(reduce, self.n, pend_dst, pend_val, mdt)
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

    @np.errstate(all="ignore")
    def _step(self, pend_dst: np.ndarray, pend_val: np.ndarray,
              msg_count: np.ndarray, out_degree: np.ndarray):
        """One superstep of the plan over every computed row at once:
        gather, the ops in plan order, the state update.  Returns the
        computed mask, the sends as ``(arcs, payload per arc)`` per scatter
        in op order, and the aggregator partials, folded in row order like
        a worker's."""
        plan, mdt, halted = self.plan, self._mdt, self.halted
        aggregators = self._aggregators
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
                plan.reduce, pend_dst, pend_val, msg_count, self.state,
                default, plan.include_self, mdt
            )
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
            # the peel ops: DenseRefEngine only (shard_plan refuses peel plans)
            elif op.kind == "prune_received":
                got = self.pend_arc[mask[self.dst[self.pend_arc]]]
                if got.size:
                    rev = self._rev_arc[got]
                    self._mutations.append((self.dst[got], rev[rev >= 0]))
            elif op.kind == "drop_edges":
                arcs, count = self._live_arcs(mask, out_degree)
                if count:
                    self._mutations.append(
                        (self._take(self.src, arcs), self._arc_ids(arcs)))
            else:
                raise PlanRefusedError(f"unknown kernel op {op.kind!r}")
        if plan.state_update is not None:
            new = ev.full(plan.state_update).astype(self.state.dtype, copy=False)
            self.state = np.where(computed, new, self.state)
        return computed, sends, contribs


#: what a checkpoint copies: a worker's ``states``/``halted``/``in_next``
#: as arrays, the queued injections and mutations, and the views
_CHECKPOINTED = ("state", "halted", "pend_dst", "pend_val", "pend_arc",
                 "edge_alive", "overlaid", "_injected", "_mutations",
                 "workers")


class DenseRefEngine(_PlanKernel, BSPEngine):
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
        program = job.program
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
                from ..check.planopt import optimized

                plan = optimized(plan)
        self.plan = plan
        refusals = dense_refused_features(program, plan, job.initial_messages)
        if refusals:
            raise PlanRefusedError(refusals[0])
        self.params: dict[str, Any] = {}
        for name in plan.params:
            if not hasattr(program, name):
                raise PlanRefusedError(f"program lacks plan parameter {name!r}")
            self.params[name] = getattr(program, name)
        super().__init__(job)

    def _build_workers(self) -> None:
        """The job's initial state as arrays plus one :class:`_View` per
        worker — no per-vertex :class:`PartitionWorker` dicts."""
        job, plan, model = self.job, self.plan, self.model
        g, program = job.graph, job.program
        self.n = self.num_vertices = n = int(g.num_vertices)
        self.dst = np.asarray(g.indices, dtype=np.int64)
        self.m = int(self.dst.shape[0])
        degrees = np.diff(np.asarray(g.indptr, dtype=np.int64))
        self.vertex_ids = np.arange(n, dtype=np.int64)
        self.src = np.repeat(self.vertex_ids, degrees)
        self.static_degree = degrees

        sdt = np.dtype(plan.state_dtype)
        self._mdt = mdt = np.dtype(plan.message_dtype)
        self._assign = assign = self.partition.assignment.astype(np.int64)
        workers = self.num_workers
        self._payload_nb = int(program.payload_nbytes(mdt.type(0).item()))
        state_nb = int(program.state_nbytes(sdt.type(0).item()))
        self.workers = [
            _View(
                w, model, arcs * 6 + hosted * model.vertex_overhead_bytes,
                hosted * state_nb, WorkerStepStats(worker=w),
            )
            for w, (arcs, hosted) in enumerate(zip(
                self._per_worker(self.vertex_ids, degrees),
                self.partition.sizes().tolist(),
            ))
        ]
        #: per-arc counting key, kept once a subset scatter asks for it
        self._key: np.ndarray | None = None
        #: with a combiner, one flag per (source worker, destination) box
        self._boxes = (
            np.zeros(workers * n, dtype=bool)
            if program.combiner is not None else None
        )

        self.halted = np.zeros(n, dtype=bool)
        active_ids = job.initial_active_ids()
        if active_ids is not None:
            self.halted[:] = True
            if active_ids.size:
                self.halted[active_ids] = False
        self.state = self._boot_state(sdt, degrees)
        # pending messages (read-only once set; they may alias graph arrays)
        self.pend_dst = self.pend_arc = np.empty(0, dtype=np.int64)
        self.pend_val = np.empty(0, dtype=mdt)
        self._injected: list[tuple[int, Any]] = []  # (dst, payload)
        #: (requesting vertices, arcs to remove) queued for the next step
        self._mutations: list[tuple[np.ndarray, np.ndarray]] = []
        self.edge_alive = self.overlaid = self._rev_arc = None
        if plan.uses_mutation:
            self.edge_alive = np.ones_like(self.dst, dtype=bool)
            #: vertices a worker keeps an explicit neighbour list for
            self.overlaid = np.zeros(n, dtype=bool)
        if plan.needs_prune:
            self._rev_arc = self._reverse_arcs()
        for view, active in zip(self.workers, self._per_worker(~self.halted)):
            view.active_count = active

    # -- array helpers -------------------------------------------------
    # Beyond ``src``/``dst`` an arc-sized array is built when a plan reads
    # it; what is fixed with the graph and the partition is computed once.
    @cached_property
    def weights(self) -> np.ndarray:
        """Per-arc weights: only the ``edge_weight`` leaf reads them."""
        weights = self.job.graph.weights
        if weights is None:
            return np.ones(self.m, dtype=np.float64)
        return np.asarray(weights, dtype=np.float64)

    @cached_property
    def _in_degree(self) -> np.ndarray:
        """Messages per vertex when every arc carried one.  Read-only: a
        ``count`` gather hands it to the plan as ``msg``."""
        in_degree = np.bincount(self.dst, minlength=self.n)
        in_degree.flags.writeable = False
        return in_degree

    @cached_property
    def _all_arcs_sent(self) -> tuple[np.ndarray, list[int]]:
        """:meth:`_count_sends` of one scatter along every arc."""
        return self._count_sends([_ALL_ARCS])

    def _arc_ids(self, arcs: np.ndarray) -> np.ndarray:
        """``arcs`` as ids that can be stored: ``pend_arc`` of a prune plan
        and ``drop_edges`` index with them later."""
        return np.arange(self.m, dtype=np.int64) if arcs is _ALL_ARCS else arcs

    def _arc_keys(self, arcs: np.ndarray) -> np.ndarray:
        """What each of ``arcs``' messages is counted under: with a combiner
        its (source worker, destination vertex) box, else its worker pair."""
        key = self._key
        if key is None:
            # int64 throughout — a narrower key is re-widened on every use
            boxed, assign = self._boxes is not None, self._assign
            key = np.repeat(
                assign * (self.n if boxed else self.num_workers),
                self.static_degree,
            )
            key += self.dst if boxed else assign[self.dst]
            if arcs is not _ALL_ARCS:  # subsets recur; every arc is tallied once
                self._key = key
        return self._take(key, arcs)

    def _per_worker(self, vertices, weights=None) -> list[int]:
        """Per-worker count (or sum of integer ``weights``) of ``vertices``
        (ids or a mask), as Python ints."""
        return np.bincount(
            self._assign[vertices], weights=weights, minlength=self.num_workers
        ).astype(np.int64).tolist()

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
        pos_c = np.minimum(pos, self.m - 1)
        found = (pos < self.m) & (skey[pos_c] == want)
        return np.where(found, order[pos_c], -1)

    # -- the engine's surface ------------------------------------------
    def run(self) -> JobResult:
        result = super().run()
        result.kernel_plan = self.plan
        return result

    def inject_message(self, dst: int, payload: Any) -> None:
        if not 0 <= dst < self.n:
            raise ValueError(f"inject to unknown vertex {dst}")
        if self._rev_arc is not None:
            raise PlanRefusedError(_PEEL_INJECTED)
        self._injected.append((dst, payload))
        self.workers[self._assign[dst]].queue_depth += 1
        self._injected_count += 1

    def _apply_mutations(self) -> np.ndarray:
        """Make last superstep's edge removals visible (a worker's
        ``_apply_mutations``); returns the live out-degree."""
        if self.edge_alive is None:
            return self.static_degree
        requested, self._mutations = self._mutations, []
        for vertices, arcs in requested:
            self.overlaid[vertices] = True
            self.edge_alive[arcs] = False
        out_degree = np.bincount(self.src[self.edge_alive], minlength=self.n)
        if requested:
            # A vertex that ever requested a removal — even one that found
            # no edge — holds an explicit list: 16 B + 8 B per live edge.
            listed = np.flatnonzero(self.overlaid)
            sizes = self._per_worker(listed, 16 + 8 * out_degree[listed])
            for view, nbytes in zip(self.workers, sizes):
                view.overlay_bytes = nbytes
        return out_degree

    def _compute_phase(self) -> list[dict]:
        """Interpret the plan over every computed vertex at once; returns
        the one aggregator partial, folded in vertex order like a worker's."""
        pend_dst, pend_val = self.pend_dst, self.pend_val
        if self._injected:
            dsts, payloads = zip(*self._injected)
            pend_dst = np.concatenate([pend_dst, np.asarray(dsts, np.int64)])
            pend_val = np.concatenate(
                [pend_val, np.asarray(payloads).astype(self._mdt)])
            self._injected = []
        out_degree = self._apply_mutations()
        if pend_dst is self.dst:  # one message along every arc, none injected
            msg_count = self._in_degree
        else:
            msg_count = np.bincount(pend_dst, minlength=self.n)
        # this superstep's sends, one entry per scatter op
        computed, self._sent, contribs = self._step(
            pend_dst, pend_val, msg_count, out_degree)
        for view, calls, active in zip(
            self.workers, self._per_worker(computed),
            self._per_worker(~self.halted),
        ):
            view.stats = WorkerStepStats(
                worker=view.worker_id, compute_calls=calls,
                msgs_in=view.queue_depth,
            )
            view.active_count = active
        return [contribs]

    def _flush_phase(self):
        """Swap the superstep's sends in as the pending arrays and count
        them per worker pair (post-combine); returns ``(recv_msgs,
        recv_bytes, peers_in)`` per worker."""
        next_arc = [arcs for arcs, _ in self._sent]
        self.pend_dst = _cat([self._take(self.dst, a) for a in next_arc], np.int64)
        self.pend_val = _cat([vals for _, vals in self._sent], self._mdt)
        if self._rev_arc is not None:
            self.pend_arc = _cat([self._arc_ids(a) for a in next_arc], np.int64)
        if len(next_arc) == 1 and next_arc[0] is _ALL_ARCS:  # counted once
            return self._tally(*self._all_arcs_sent)
        return self._tally(*self._count_sends(next_arc))

    def _count_sends(self, sent: list) -> tuple[np.ndarray, list[int]]:
        """Post-combine message counts of the arc sets ``sent``: the (source
        worker, destination worker) matrix and each worker's queue depth."""
        workers = self.num_workers
        keys = (self._arc_keys(arcs) for arcs in sent)  # one alive at a time
        if self._boxes is None:
            pairs = np.zeros((workers, workers), dtype=np.int64)
            for key in keys:
                pairs += np.bincount(key, minlength=pairs.size).reshape(pairs.shape)
            depth = pairs.sum(axis=0).tolist()
        else:
            self._boxes.fill(False)
            for key in keys:
                self._boxes[key] = True
            rows = self._boxes.reshape(workers, self.n)
            pairs = np.array([self._per_worker(row) for row in rows])
            depth = self._per_worker(rows.any(axis=0))
        return pairs, depth

    def _tally(self, pairs: np.ndarray, depth: list[int]):
        """Write one superstep's send counts into the views' step stats."""
        local = pairs.diagonal()
        pairs = pairs - np.diag(local)  # what is left crossed the wire
        recv = pairs.sum(axis=0).tolist()
        # Python-int products from here: equal to the worker's repeated
        # additions bit for bit.
        nb = self._payload_nb
        wire = self.model.message_wire_bytes(nb)
        for view, n_local, n_remote, peers, queued in zip(
            self.workers, local.tolist(), pairs.sum(axis=1).tolist(),
            np.count_nonzero(pairs, axis=1).tolist(), depth,
        ):
            ws = view.stats
            ws.msgs_out_local, ws.msgs_out_remote = n_local, n_remote
            ws.peers_out = peers
            ws.bytes_out = view.out_remote_wire_bytes = float(n_remote * wire)
            view.queue_depth = queued
            view.in_next_payload_bytes = float(queued * nb)
        peers_in = np.count_nonzero(pairs, axis=0).tolist()
        return recv, [r * wire for r in recv], peers_in

    def _extract_values(self) -> dict[int, Any]:
        state, program = self.state.tolist(), self.job.program
        if type(program).extract is VertexProgram.extract:  # the identity
            return dict(enumerate(state))
        return {v: program.extract(v, sv) for v, sv in enumerate(state)}

    def _capture_checkpoint(self, superstep: int) -> dict:
        return {
            "superstep": superstep,
            "agg_values": dict(self._agg_values),
            "dense": deepcopy({k: getattr(self, k) for k in _CHECKPOINTED}),
        }

    def _restore_checkpoint(self) -> None:
        vars(self).update(deepcopy(self._checkpoint["dense"]))

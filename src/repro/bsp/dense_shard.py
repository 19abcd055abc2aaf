"""The dense plane: a lifted KernelPlan lowered over one worker's rows.

A :class:`DenseShard` is what a worker runs for a program that lifts
(:func:`~repro.bsp.dense_ref.shard_plan` accepts the job): ``--engine
dense-ref`` builds one per worker in process, and a process/tcp worker
session hosts one in place of a :class:`~repro.bsp.worker.PartitionWorker`.
It runs the declarative :class:`~repro.check.vectorize.KernelPlan` IR over
its rows' CSR arrays — one gather (bincount / ufunc.at / segmented mode)
per superstep, masked map expressions for the state update, scatter along
live arcs for sends, boolean halt masks in place of per-vertex vote calls —
so no per-vertex Python runs inside a superstep.  It exposes the surface
:class:`~repro.bsp.engine.BSPEngine` and
:class:`~repro.net.session.WorkerSession` drive on a partition worker.

The plan is lowered once, when the shard is built, into a node table: a
slot per distinct expression node (by identity, as planopt's ``cse``
shares them), each with its resolved ufunc and operand slots.  A root — the
state init and update, the gather default, a phase guard, an op mask, an
aggregate value — is its slot and its subtree's nodes in topological
order.  Subtrees of only ``const``/``param``/``nv`` leaves are folded into
the slot template under the compute errstate.  A scatter payload has
arc-space nodes of its own, chosen by each node's "reads ``edge_weight``"
flag: with the optimizer's ``hoist`` mark an edge-weight-free subtree is
its vertex-space node indexed per arc, else what varies by row is indexed
first.  A superstep copies the template, sets its leaves and runs the roots
its guards and masks reach, each node at most once.

It folds like one — local boxes at compute time in emit (CSR) order,
remote boxes in source-worker order, injected messages last, aggregator
partials over its rows in vertex order — so every engine is bitwise the
sim's at the same worker count and partition (docs/runtime.md).  A
destination is named by its row in its owner's sorted vertex list, which
``assignment`` alone determines; a bucket is a ``(row index, value)``
array pair.  The rest are the partition worker's rules too: messages sent
at superstep *s* arrive at *s+1*; a computed row is re-activated unless it
votes again; message counts are post-combine; payload and state sizes are
the program's hooks, read once on a scalar of the dtype.  Edge removals
(the k-core peel idiom) requested at *s* apply at the start of *s+1*; a
peel plan's bucket carries each message's source vertex as a third array,
so its receiver can find the reciprocal arc to prune among its own.

The arc layout is computed once per job (:class:`DenseLayout`): every
vertex coded as (owner, row), each worker's out-arcs grouped by
destination worker, CSR order inside a group.  A shard is built from its
:class:`ShardSlice` alone — the slice is all a shard session's
``WorkerInit`` carries, never the graph or the assignment.  Per arc it
holds ``dst`` only; the source side is runs, a (row, length) pair per
source row and destination group, so an all-arcs scatter's payload is
each run's row value repeated along it: the values, in the order, a
per-arc source gather gives.  Plans that select arcs by row, or peel
them, read the per-arc ``src`` built from the runs on first use.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from .superstep import WorkerStepStats
from .worker import PartitionWorker

__all__ = ["DenseLayout", "DenseShard", "PlanRefusedError", "ShardSlice"]


class PlanRefusedError(RuntimeError):
    """The program has no certified dense form for this job."""


#: peel plans prune by the sender; an injected message has none
_PEEL_INJECTED = "peel plans cannot start from injected messages"

#: the arc set "every arc", recognised by identity: :meth:`DenseShard._take`
#: is the identity for it, so a superstep that sends along every arc builds
#: nothing arc-sized to say so.
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


def _cat(parts: list, dtype: Any) -> np.ndarray:
    """``parts`` as one array; a lone part is returned as is, uncopied."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)


def _caster(dtype: Any, scalar: type):
    return lambda a: a.astype(dtype) if isinstance(a, np.ndarray) else scalar(a)


#: each operator head as the function its node applies to its operands
_OPS = {
    "not": np.logical_not, "neg": np.negative, "abs": np.abs,
    "cast_int": _caster(np.int64, int),
    "cast_float": _caster(np.float64, float),
    "cast_bool": _caster(bool, bool),
    "where": np.where,
    "add": np.add, "sub": np.subtract, "mul": np.multiply,
    "div": np.true_divide, "floordiv": np.floor_divide, "mod": np.mod,
    "pow": np.power, "min2": np.minimum, "max2": np.maximum,
    "lt": np.less, "le": np.less_equal, "gt": np.greater,
    "ge": np.greater_equal, "eq": np.equal, "ne": np.not_equal,
    "and": np.logical_and, "or": np.logical_or,
}

#: the leaves' slots: a superstep sets the first four, then ``msg`` after
#: the gather; ``vertex`` is fixed with the rows.  All but ``superstep``
#: hold one value per row.
_LEAF_SLOTS = {"state": 0, "out_degree": 1, "msg_count": 2, "superstep": 3,
               "msg": 4, "vertex": 5}
_MSG = _LEAF_SLOTS["msg"]
#: the leaves fixed when the shard is built: subtrees of only these fold
_FIXED = ("const", "param", "nv")


def _refuse(reason: str):
    """A node that raises when a superstep reads it."""
    def leaf(_):
        raise PlanRefusedError(reason)
    return leaf


def _run(slots: list, root: tuple) -> Any:
    """Evaluate one root of the node table: its subtree's nodes in
    topological order, each computed once per superstep (a node shared
    with an earlier root already holds its value)."""
    at, order = root
    for i, fn, a, b, c in order:
        if slots[i] is None:
            if b < 0:
                slots[i] = fn(slots[a])
            elif c < 0:
                slots[i] = fn(slots[a], slots[b])
            else:
                slots[i] = fn(slots[a], slots[b], slots[c])
    return slots[at]


#: what a snapshot copies: the rows' columns, the next superstep's inbox
#: and, for a peel plan, the live arcs and the queued removals
_CHECKPOINTED = ("state", "halted", "_has", "_box", "_segs", "_injected",
                 "in_next_payload_bytes", "edge_alive", "overlaid",
                 "overlay_bytes", "_mutations")


def _reads_edge_weight(plan: Any) -> bool:
    """Does a scatter payload, where alone a plan may, read edge weights?"""
    def reads(e: Any) -> bool:
        return isinstance(e, tuple) and (e[0] == "edge_weight" or any(map(reads, e)))
    return any(reads(op.payload) for phase in plan.phases for op in phase.ops)


@dataclass
class ShardSlice:
    """One worker's share of the job's arc layout (:class:`DenseLayout`),
    all a :class:`DenseShard` is built from: its rows' out-arcs grouped by
    destination worker, CSR order inside a group."""

    worker_id: int
    num_vertices: int
    rows_of: list[int]  # rows per worker: the row spaces ``dst`` indexes
    rows: np.ndarray  # this worker's vertex ids, ascending
    dst: np.ndarray  # per arc, the destination's row in its owner's list
    bounds: list[int]  # where each destination worker's arcs start, and m
    run_rows: np.ndarray  # per run of arcs from one row into one group,
    run_lens: np.ndarray  # the row and the run's length (int32 both)
    halted: np.ndarray | None = None  # rows asleep at superstep 0; None: none
    weights: np.ndarray | None = None  # per arc, if the plan reads weights
    nbr: np.ndarray | None = None  # per arc, its destination's id (peel plans)


class DenseLayout:
    """The dense plane's arc layout, computed once per job: each vertex
    coded as (owner, row in the owner's sorted vertex list), which
    :meth:`slice` reads for any worker's arcs.  ``plan`` decides what a
    slice carries beyond its arcs, ``active_ids`` (None: all) its rows
    awake at superstep 0."""

    def __init__(self, graph: Any, assignment: Any, num_parts: int,
                 plan: Any, active_ids: Any = None) -> None:
        self.graph, self.active_ids = graph, active_ids
        self.num_vertices = nv = int(graph.num_vertices)
        assign = np.asarray(assignment)
        owned = np.bincount(assign, minlength=num_parts)
        self.rows_of = owned.tolist()
        # narrow worker ids: NumPy radix-sorts keys of 16 bits or fewer
        self._owner = assign.astype(np.min_scalar_type(num_parts))
        self._order = np.argsort(self._owner, kind="stable")
        self._first = np.concatenate(([0], np.cumsum(owned))).tolist()
        # every vertex as its owner (high half) and its row in the owner's
        # sorted vertex list (low half): one lookup per arc for both
        self._code = code = np.empty(nv, dtype=np.int64)
        code[self._order] = np.arange(nv) - np.repeat(self._first[:-1], owned)
        code |= assign.astype(np.int64) << 32
        self._weights = graph.weights is not None and _reads_edge_weight(plan)
        self._peel = plan.needs_prune

    def rows(self, w: int) -> np.ndarray:
        """Worker ``w``'s vertex ids, ascending."""
        return self._order[self._first[w]:self._first[w + 1]].astype(np.int64)

    def halted(self, w: int) -> np.ndarray | None:
        """Worker ``w``'s rows asleep at superstep 0 (None: none is)."""
        if self.active_ids is None:
            return None
        return ~np.isin(self.rows(w), np.asarray(self.active_ids, dtype=np.int64))

    def slice(self, w: int) -> ShardSlice:
        """Worker ``w``'s rows and out-arcs, the source side as runs."""
        g, rows = self.graph, self.rows(w)
        first = g.indptr[rows]
        deg = g.indptr[rows + 1] - first
        m = int(deg.sum())
        # this worker's arcs in CSR order, as positions in graph.indices
        pos = np.repeat(first - (np.cumsum(deg) - deg), deg)
        pos += np.arange(m)
        head = np.asarray(g.indices)[pos].astype(np.intp)  # gathers by it
        group = np.argsort(self._owner[head], kind="stable")
        weights = (np.asarray(g.weights)[pos[group]].astype(np.float64, copy=False)
                   if self._weights else None)
        del pos  # the arc-sized temporaries go before the next ones
        head = head[group]
        code = self._code[head]
        # grouped by owner, so bisecting on the high half finds each
        # owner's first arc although the low halves are not sorted
        bounds = np.searchsorted(
            code, np.arange(len(self.rows_of) + 1, dtype=np.int64) << 32)
        code &= 0xFFFFFFFF
        # a run starts where the source row changes or a group does
        src = np.repeat(np.arange(len(rows), dtype=np.int32), deg)[group]
        cut = np.ones(m, dtype=bool)
        np.not_equal(src[1:], src[:-1], out=cut[1:])
        cut[bounds[1:-1][bounds[1:-1] < m]] = True
        starts = np.flatnonzero(cut)
        return ShardSlice(
            w, self.num_vertices, self.rows_of, rows, code, bounds.tolist(),
            src[starts], np.diff(starts, append=m).astype(np.int32),
            self.halted(w), weights, head if self._peel else None)


class DenseShard:
    """One worker's share of a lifted plan, built from its
    :class:`ShardSlice` (see the module docstring): ``dst``, ``weights``
    and ``edge_alive`` (None unless a peel plan removes arcs) per arc,
    the source rows as runs."""

    aggregated = PartitionWorker.aggregated
    buffered_message_bytes = PartitionWorker.buffered_message_bytes
    memory_footprint = PartitionWorker.memory_footprint

    def __init__(self, part: ShardSlice, program: Any, model: Any,
                 plan: Any) -> None:
        self.worker_id, self.program, self.model = part.worker_id, program, model
        self.n, self.m = n, m = len(part.rows), len(part.dst)
        self.plan = plan
        self.halted = np.zeros(n, dtype=bool) if part.halted is None else part.halted
        # the worker's byte formulas on the plan dtype's sizes
        self._mdt = mdt = np.dtype(plan.message_dtype)
        sdt = np.dtype(plan.state_dtype)
        self._payload_nb = int(program.payload_nbytes(mdt.type(0).item()))
        self._wire = model.message_wire_bytes(self._payload_nb)
        self.graph_bytes = m * 6 + n * model.vertex_overhead_bytes
        self.total_state_bytes = n * int(program.state_nbytes(sdt.type(0).item()))
        #: with a combiner, boxes fold by the plan's own monoid
        self._combine = plan.reduce if program.combiner is not None else None
        self.overlay_bytes = 0
        self._injected: list[tuple[int, Any]] = []  # (row, payload)
        self.stats = WorkerStepStats(worker=part.worker_id)
        self.out_remote: dict[int, tuple] = {}
        self.out_remote_wire_bytes = 0.0
        self.num_vertices = nv = part.num_vertices
        self._rows_of, self._starts = part.rows_of, part.bounds
        self.vertex_ids, self.dst = part.rows, part.dst
        # rows widened once, as a superstep gathers by them
        self._run_rows, self._run_lens = part.run_rows.astype(np.intp), part.run_lens
        self.static_degree = np.bincount(
            self._run_rows, self._run_lens, minlength=n).astype(np.int64)
        if part.weights is not None:
            self.weights = part.weights

        self.params = {name: getattr(program, name) for name in plan.params}
        self._aggregators = program.aggregators()
        self._agg_previous: dict[str, Any] = {}
        self._agg_partials = {k: a.identity() for k, a in self._aggregators.items()}
        self.superstep = 0
        self._lower()
        self.state = self._boot_state(sdt, self.static_degree)

        # the peel plans' live arcs; a row that ever requested a removal
        # holds an explicit neighbour list, as a worker's overlay
        self.edge_alive = self.overlaid = None
        self._mutations: list[tuple[np.ndarray, np.ndarray]] = []
        if plan.uses_mutation:
            self.edge_alive = np.ones(self.m, dtype=bool)
            self.overlaid = np.zeros(n, dtype=bool)
        #: a bucket's arrays: destination row, value and, for a peel
        #: plan, the source vertex
        self._columns = (np.int64, self._mdt)
        if plan.needs_prune:
            self._columns += (np.int64,)
            # (row, neighbour) of every arc, sorted stably so a lookup finds
            # the first of a multi-edge — a worker's ``list.remove`` — and
            # capped by a key no lookup reaches
            key = self.src * nv + part.nbr
            self._arc_order = np.argsort(key, kind="stable")
            self._arc_keys = np.append(key[self._arc_order], _INT_MAX)
        self._has = self._box = None
        if self._combine is not None:
            self._has = np.empty(n, dtype=bool)
            self._box = np.empty(n, dtype=mdt)
        self._empty_inbox()

    # -- array helpers -------------------------------------------------
    # Beyond ``dst`` an arc-sized array is built when a plan reads it; what
    # is fixed with the graph and the partition is computed once.
    @cached_property
    def weights(self) -> np.ndarray:
        """Unit arc weights of an unweighted graph, built on first read."""
        return np.ones(self.m, dtype=np.float64)

    @cached_property
    def src(self) -> np.ndarray:
        """Each arc's source row, built on first read from the runs: by
        plans that select arcs by row or peel them."""
        return np.repeat(self._run_rows, self._run_lens)

    def _per_arc(self, arcs: np.ndarray):
        """The function taking a row column to its value on each of
        ``arcs``: for every arc, each run's value repeated along it."""
        if arcs is _ALL_ARCS:
            rows, lens = self._run_rows, self._run_lens
            return lambda v: np.repeat(v[rows], lens)
        rows = self.src[arcs]
        return lambda v: v[rows]

    @cached_property
    def _reached(self) -> list[np.ndarray]:
        """Per destination worker, the rows one message along every arc
        reaches: a combining all-arcs scatter's boxes (kept narrow, widened
        where a superstep reads them)."""
        starts = self._starts
        return [np.flatnonzero(np.bincount(self.dst[starts[u]:starts[u + 1]],
                                           minlength=rows_u)).astype(np.int32)
                for u, rows_u in enumerate(self._rows_of)]

    def _take(self, per_arc: np.ndarray, arcs: np.ndarray) -> np.ndarray:
        """``per_arc[arcs]``, uncopied for :data:`_ALL_ARCS`."""
        return per_arc if arcs is _ALL_ARCS else per_arc[arcs]

    @np.errstate(all="ignore")  # as in _step: a fold may divide by nv == 0
    def _lower(self) -> None:
        """Lower the plan into its node table (see the module docstring):
        a root is its slot and the rows ``(slot, fn, a, b, c)`` of its
        subtree in topological order, an unused operand slot -1."""
        plan, n = self.plan, self.n
        template: list = [None] * len(_LEAF_SLOTS)
        template[_LEAF_SLOTS["vertex"]] = self.vertex_ids
        code = {_MSG: (_MSG, _refuse("plan reads messages it never gathers"), 0)}
        fixed: set[int] = set()  # folded: a const/param/nv subtree
        weighty: set[int] = set()  # reads edge_weight: never hoisted
        rowy = set(_LEAF_SLOTS.values()) - {_LEAF_SLOTS["superstep"]}
        memo: dict[int, int] = {}

        def node(fn: Any = None, *args: int, value: Any = None) -> int:
            i = len(template)
            template.append(value)
            if fn is not None:
                code[i] = (i, fn, *args)
            return i

        def vertex(e) -> int:
            if id(e) in memo:
                return memo[id(e)]
            head = e[0]
            if head in _LEAF_SLOTS:
                i = _LEAF_SLOTS[head]
            elif head in _FIXED:
                i = node(value=e[1] if head == "const" else self.num_vertices
                         if head == "nv" else self.params[e[1]])
                fixed.add(i)
            elif head == "agg":
                i = node(self.aggregated, node(value=e[1]))
            elif head == "edge_weight":
                i = node(_refuse("edge_weight outside a scatter payload"), 0)
                weighty.add(i)
            elif head in _OPS:
                args = [vertex(c) for c in e[1:]]
                i = node()
                if weighty.intersection(args):
                    weighty.add(i)
                if rowy.intersection(args):
                    rowy.add(i)
                if fixed.issuperset(args):
                    try:
                        template[i] = _OPS[head](*(template[a] for a in args))
                        fixed.add(i)
                    except (ArithmeticError, ValueError, TypeError):
                        pass  # left to raise if a superstep reads it
                if i not in fixed:
                    code[i] = (i, _OPS[head], *args)
            else:
                raise PlanRefusedError(f"unknown expression {head!r}")
            memo[id(e)] = i
            return i

        def is_rows(v: Any) -> bool:
            return isinstance(v, np.ndarray) and v.ndim == 1 and v.shape[0] == n

        def per_arc(v: Any, rows: Any) -> Any:
            return rows(v) if is_rows(v) else v

        def scatter(payload, hoist: bool) -> tuple:
            """The payload's arc-space nodes over this op's ``rows`` (its
            :meth:`_per_arc`) and ``weights`` slots.  Hoisted, an
            edge_weight-free subtree is its vertex-space node indexed per
            arc (elementwise ufuncs commute with indexing); otherwise only
            what varies by arc moves."""
            rows, weights = node(), node()
            arc_memo: dict[int, int] = {}

            def arc(e) -> int:
                s = vertex(e)
                if s in arc_memo:
                    return arc_memo[s]
                if s not in weighty and (hoist or s not in rowy):
                    if not hoist or (s in fixed and not is_rows(template[s])):
                        return s
                    i = node(per_arc, s, rows)
                elif e[0] == "edge_weight":
                    i = weights
                elif e[0] in _LEAF_SLOTS:
                    i = node(per_arc, s, rows)
                else:
                    i = node(_OPS[e[0]], *(arc(c) for c in e[1:]))
                arc_memo[s] = i
                return i

            at, order = root(arc(payload))
            reads = {at}.union(*(row[2:] for row in order))
            return ((at, order), rows if rows in reads else -1,
                    weights if weights in reads else -1)

        def root(at: int) -> tuple:
            order: list[tuple] = []
            seen: set[int] = set()

            def visit(i: int) -> None:
                if i in code and i not in seen:
                    seen.add(i)
                    for a in code[i][2:]:
                        visit(a)
                    order.append(code[i])
            visit(at)
            return at, tuple((*row, -1, -1, -1)[:5] for row in order)

        def vroot(e) -> tuple | None:
            return None if e is None else root(vertex(e))

        def lower_op(op) -> tuple:
            arg = None
            if op.kind == "scatter":
                arg = scatter(op.payload, op.hoist)
            elif op.kind == "aggregate":
                arg = vroot(op.value), op.name or ""
            return op.kind, vroot(op.where), arg

        self._init = vroot(plan.state_init)
        self._default = vroot(plan.gather_default)
        self._phases = tuple(
            (vroot(phase.guard), tuple(lower_op(op) for op in phase.ops))
            for phase in plan.phases)
        self._update = vroot(plan.state_update)
        self._template = template

    def _slots(self, state: np.ndarray, msg_count: np.ndarray,
               out_degree: np.ndarray) -> list:
        """A superstep's slot list: the folds, and its leaves but ``msg``."""
        slots = self._template.copy()
        slots[0:4] = state, out_degree, msg_count, self.superstep
        return slots

    def _rows(self, value: Any) -> np.ndarray:
        """``value`` as one entry per row; an array that is one as is."""
        if isinstance(value, np.ndarray) and value.shape == (self.n,):
            return value
        return np.broadcast_to(np.asarray(value), (self.n,))

    @np.errstate(all="ignore")  # as in _step: 1/n at n == 0
    def _boot_state(self, sdt: np.dtype, out_degree: np.ndarray) -> np.ndarray:
        """The rows' state column before superstep 0 (``plan.state_init``)."""
        slots = self._slots(np.zeros(self.n, dtype=sdt),
                            np.zeros(self.n, dtype=np.int64), out_degree)
        return self._rows(_run(slots, self._init)).astype(sdt)

    def _empty_inbox(self) -> None:
        """No message for the next superstep: with a combiner one (flag,
        value) box per row, the value at the monoid's identity, else the
        buckets as they arrive (local first, then per source worker)."""
        self.in_next_payload_bytes = 0.0
        self._segs: list[tuple] = []
        if self._has is not None:  # refilled in place: _queued copied them
            self._has.fill(False)
            self._box.fill(_reduce_identity(self._combine, self._mdt))

    def _queued(self) -> tuple[tuple, np.ndarray]:
        """The next superstep's messages as one bucket, each row's in
        arrival order — the data plane's, then injected ones — and the
        message count per row: with a combiner its box flag, plus the
        injected messages, which stay uncombined.  When a combiner's boxes
        are all there is, the bucket is ``(None, box column)``: a row holds
        at most one box, so the column is already the fold."""
        parts = self._segs
        count = None
        if self._has is not None and not self._injected:
            return (None, self._box.copy()), self._has.astype(np.int64)
        if self._has is not None:
            boxed = np.flatnonzero(self._has)
            parts = [(boxed, self._box[boxed])]
            count = self._has.astype(np.int64)
        if self._injected:
            at, payloads = zip(*self._injected)
            at = np.asarray(at, dtype=np.int64)
            parts = [*parts, (at, np.asarray(payloads).astype(self._mdt))]
            if count is not None:
                np.add.at(count, at, 1)
        bucket = parts[0] if len(parts) == 1 else tuple(
            _cat([p[i] for p in parts], dt) for i, dt in enumerate(self._columns))
        if count is None:
            count = np.bincount(bucket[0], minlength=self.n)
        return bucket, count

    def _apply_mutations(self) -> np.ndarray:
        """Make last superstep's edge removals visible (a worker's
        ``_apply_mutations``); returns the live out-degree."""
        if self.edge_alive is None:
            return self.static_degree
        requested, self._mutations = self._mutations, []
        for rows, arcs in requested:
            self.overlaid[rows] = True
            self.edge_alive[arcs] = False
        out_degree = np.bincount(self.src[self.edge_alive], minlength=self.n)
        if requested:  # 16 B + 8 B per live edge of every listed row
            listed = out_degree[self.overlaid]
            self.overlay_bytes = int(16 * listed.size + 8 * listed.sum())
        return out_degree

    def _live_arcs(self, mask: np.ndarray,
                   out_degree: np.ndarray) -> tuple[np.ndarray, int]:
        """Live out-arcs of the rows in ``mask`` and how many they are:
        the sum of their live degrees, which reaches m only when every arc
        is alive and selected — :data:`_ALL_ARCS`, found in O(n).  (The mask
        itself need not be full: PageRank skips dangling vertices.)"""
        count = int(np.dot(out_degree, mask))
        if count == self.m:
            return _ALL_ARCS, count
        arc_sel = mask[self.src]
        if self.edge_alive is not None:
            arc_sel &= self.edge_alive
        return np.flatnonzero(arc_sel), count

    def _gather(self, reduce: str, pend_dst: np.ndarray,
                pend_val: np.ndarray, msg_count: np.ndarray,
                default: np.ndarray | Any) -> np.ndarray:
        if reduce == "count":
            return msg_count
        mdt = self._mdt
        if pend_dst is None:  # a combiner's box column (see _queued)
            reduced = pend_val
        elif reduce in _FOLD:
            reduced = _fold(reduce, self.n, pend_dst, pend_val, mdt)
        elif reduce == "mode":
            reduced = self._gather_mode(pend_dst, pend_val, msg_count)
        else:
            raise PlanRefusedError(f"unknown reduce monoid {reduce!r}")
        has = msg_count > 0
        return np.where(has, reduced, default).astype(mdt, copy=False)

    def _gather_mode(self, pend_dst, pend_val, msg_count) -> np.ndarray:
        # (max multiplicity, then min label) — exactly the Counter idiom's
        # `min(l for l, c in counts.items() if c == max(counts.values()))`.
        n, mdt = self.n, self._mdt
        if self.plan.include_self:
            recv = np.flatnonzero(msg_count > 0)
            pend_dst = np.concatenate([pend_dst, recv])
            pend_val = np.concatenate(
                [pend_val, self.state[recv].astype(pend_val.dtype, copy=False)]
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

    def _prune(self, rows: np.ndarray, sources: np.ndarray) -> None:
        """Queue the removal of each row's arc back to the source of a
        message it received; the rows become listed even where none is."""
        want = rows * self.num_vertices + sources
        at = np.searchsorted(self._arc_keys, want)
        found = self._arc_keys[at] == want
        self._mutations.append((rows, self._arc_order[at[found]]))

    @np.errstate(all="ignore")
    def _step(self, pending: tuple, msg_count: np.ndarray):
        """One superstep of the plan over every computed row at once:
        gather, the ops in plan order, the state update.  Returns the
        computed mask, the sends as ``(arcs, payload per arc)`` per scatter
        in op order, and the aggregator partials, folded in row order like
        a worker's."""
        mdt, halted, out_degree = self._mdt, self.halted, self._out_degree
        aggregators = self._aggregators
        computed = (msg_count > 0) | (~halted)
        halted[computed] = False
        sends: list[tuple[np.ndarray, np.ndarray]] = []
        contribs = {name: agg.identity() for name, agg in aggregators.items()}

        slots = self._slots(self.state, msg_count, out_degree)
        reduce = self.plan.reduce
        if reduce is not None:
            default = (_reduce_identity(reduce, mdt) if self._default is None
                       else _run(slots, self._default))
            slots[_MSG] = self._gather(
                reduce, pending[0], pending[1], msg_count, default)
        for guard, ops in self._phases:  # guards read nothing an op writes
            if guard is not None and not _run(slots, guard):
                continue
            for kind, where, arg in ops:
                mask = computed
                if where is not None:
                    mask = computed & np.asarray(_run(slots, where)).astype(
                        bool, copy=False)
                if kind == "vote":
                    halted[mask] = True
                elif kind == "scatter":
                    arcs, count = self._live_arcs(mask, out_degree)
                    if count == 0:
                        continue
                    payload, rows, weights = arg
                    if rows >= 0:
                        slots[rows] = self._per_arc(arcs)
                    if weights >= 0:
                        slots[weights] = self._take(self.weights, arcs)
                    raw = np.asarray(_run(slots, payload), dtype=mdt)
                    sends.append((arcs, raw if raw.shape == (count,)
                                  else np.broadcast_to(raw, (count,))))
                elif kind == "aggregate":
                    value, name = arg
                    vals = self._rows(_run(slots, value))[mask]
                    if vals.size == 0:
                        continue
                    # Left fold in row order, as a worker reduces: pairwise
                    # ``.sum()`` reassociates float adds.
                    part = (
                        float(np.cumsum(vals)[-1])
                        if vals.dtype.kind == "f" else int(vals.sum())
                    )
                    contribs[name] = aggregators[name].reduce(contribs[name], part)
                elif kind == "prune_received":
                    got = mask[pending[0]]
                    if got.any():
                        self._prune(pending[0][got], pending[2][got])
                elif kind == "drop_edges":
                    arcs, count = self._live_arcs(mask, out_degree)
                    if count:
                        ids = np.arange(self.m) if arcs is _ALL_ARCS else arcs
                        self._mutations.append((self._take(self.src, arcs), ids))
                else:
                    raise PlanRefusedError(f"unknown kernel op {kind!r}")
        if self._update is not None:
            new = np.asarray(_run(slots, self._update)).astype(
                self.state.dtype, copy=False)
            self.state = np.where(computed, new, self.state)
        return computed, sends, contribs

    # -- the surface BSPEngine and WorkerSession drive -----------------
    def begin_superstep(self, superstep: int, agg_previous: dict[str, Any]) -> None:
        self.superstep, self._agg_previous = superstep, agg_previous
        self._out_degree = self._apply_mutations()
        self._pending = self._queued()
        self._injected = []
        self._empty_inbox()
        self.out_remote, self.out_remote_wire_bytes = {}, 0.0
        self.stats = WorkerStepStats(worker=self.worker_id)

    def run_compute(self) -> None:
        (pending, msg_count), self._pending = self._pending, None
        computed, sends, self._agg_partials = self._step(pending, msg_count)
        self.stats.compute_calls = int(np.count_nonzero(computed))
        self.stats.msgs_in = int(msg_count.sum())
        self._route(sends)

    def _route(self, sends: list) -> None:
        """Split the superstep's sends by destination worker: the local
        group becomes the next superstep's inbox, every other one the
        bucket :meth:`deliver_bucket` takes at its owner."""
        every = len(sends) == 1 and sends[0][0] is _ALL_ARCS
        parts = []  # per scatter: where each group starts, the columns
        for arcs, vals in sends:
            cols = [self._take(self.dst, arcs), vals]
            if len(self._columns) == 3:
                cols.append(self.vertex_ids[self._take(self.src, arcs)])
            parts.append((self._starts if arcs is _ALL_ARCS
                          else np.searchsorted(arcs, self._starts).tolist(), cols))
        local = remote = 0
        for u, rows_u in enumerate(self._rows_of if parts else ()):
            groups = [[col[c[u]:c[u + 1]] for col in cols] for c, cols in parts]
            bucket = groups[0] if len(groups) == 1 else [
                _cat(list(g), dt) for g, dt in zip(zip(*groups), self._columns)]
            rows = bucket[0]
            if not rows.size:
                continue
            if self._combine is not None:  # one box per destination row
                box = _fold(self._combine, rows_u, rows, bucket[1], self._mdt)
                rows = (self._reached[u].astype(np.intp) if every else
                        np.flatnonzero(np.bincount(rows, minlength=rows_u)))
                bucket = [rows, box[rows]]
            if u == self.worker_id:
                local = len(rows)
                self.deliver_bucket(tuple(bucket))
            else:
                bucket[1] = np.ascontiguousarray(bucket[1])
                self.out_remote[u] = tuple(bucket)
                remote += len(rows)
        self.stats.msgs_out_local, self.stats.msgs_out_remote = local, remote
        self.out_remote_wire_bytes = float(remote * self._wire)

    def deliver_bucket(self, bucket: tuple) -> tuple[int, float]:
        """Accept one source worker's bucket, in source-worker order;
        returns ``(messages, wire bytes)`` received."""
        rows, vals = bucket[0], bucket[1]
        count = fresh = len(rows)
        if self._has is not None:
            # Folding into the identity leaves a value as is: a box is a
            # sum from zero (never -0.0), a min or a max.
            self._box[rows] = _FOLD[self._combine](self._box[rows], vals)
            fresh -= int(np.count_nonzero(self._has[rows]))
            self._has[rows] = True
        else:
            self._segs.append(bucket)
        self.in_next_payload_bytes += fresh * self._payload_nb
        return count, float(count * self._wire)

    def inject(self, dst: int, payload: Any) -> None:
        """Control-plane message: queued after the data plane's,
        uncombined and with no bytes, as a worker's ``inject``."""
        if self.plan.needs_prune:
            raise PlanRefusedError(_PEEL_INJECTED)
        self._injected.append((int(np.searchsorted(self.vertex_ids, dst)), payload))

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertex_ids, self.state

    @property
    def active_count(self) -> int:
        return self.n - int(np.count_nonzero(self.halted))

    @property
    def has_buffered_messages(self) -> bool:
        return self.buffered_message_count() > 0

    def buffered_message_count(self) -> int:
        if self._has is not None:
            boxes = int(np.count_nonzero(self._has))
        else:
            boxes = sum(len(seg[0]) for seg in self._segs)
        return boxes + len(self._injected)

    def snapshot(self) -> dict:
        return deepcopy({k: getattr(self, k) for k in _CHECKPOINTED})

    def restore(self, snap: dict) -> None:
        vars(self).update(deepcopy(snap))  # writable copies of the arrays
        self.out_remote, self.out_remote_wire_bytes = {}, 0.0

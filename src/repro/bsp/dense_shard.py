"""One worker's rows of a lifted KernelPlan: what a process/tcp worker
session hosts in place of a :class:`~repro.bsp.worker.PartitionWorker`
when :func:`~repro.bsp.dense_ref.shard_plan` accepts the job.

It runs the plan through :class:`~repro.bsp.dense_ref.DenseRefEngine`'s
interpreter, exposes the surface :class:`~repro.net.session.WorkerSession`
drives on a partition worker, and folds like one — local boxes at compute
time in emit (CSR) order, remote ``(row index, value)`` boxes in
source-worker order, injected messages last, aggregator partials over its
rows in vertex order — so process/tcp stay bitwise the sim's at the same
worker count (docs/runtime.md § Dense shards in worker sessions).  A
destination is named by its row in its owner's sorted vertex list, which
``assignment`` alone determines.
"""

from __future__ import annotations

from copy import deepcopy
from functools import cached_property
from typing import Any

import numpy as np

from .dense_ref import _ALL_ARCS, _FOLD, _PlanKernel, _cat, _fold
from .superstep import WorkerStepStats
from .worker import PartitionWorker

__all__ = ["DenseShard"]

#: what a snapshot copies: the rows' columns and the next superstep's inbox
_CHECKPOINTED = ("state", "halted", "_has", "_box", "_segs", "_injected",
                 "in_next_payload_bytes")


class DenseShard(_PlanKernel):
    """One worker's share of a lifted plan (see the module docstring)."""

    edge_alive = None  # shard_plan refuses the peel plans that remove arcs
    overlay_bytes = 0
    aggregated = PartitionWorker.aggregated
    buffered_message_bytes = PartitionWorker.buffered_message_bytes
    memory_footprint = PartitionWorker.memory_footprint

    def __init__(self, worker_id: int, graph: Any, vertex_ids: Any,
                 program: Any, model: Any, assignment: Any, active_ids: Any,
                 plan: Any) -> None:
        self.worker_id, self.program, self.model = worker_id, program, model
        self.plan = plan
        assign = np.asarray(assignment, dtype=np.int64)
        self.num_vertices = nv = int(graph.num_vertices)
        owned = np.bincount(assign, minlength=1)  # vertices per worker
        self._rows_of = owned.tolist()
        rows = self.vertex_ids = np.sort(np.asarray(vertex_ids, dtype=np.int64))
        self.n = n = len(rows)
        indptr = np.asarray(graph.indptr, dtype=np.int64)
        deg = self.static_degree = indptr[rows + 1] - indptr[rows]
        self.m = m = int(deg.sum())
        # this worker's arcs in CSR order, as positions in graph.indices
        pos = np.repeat(indptr[rows] - (np.cumsum(deg) - deg), deg) + np.arange(m)
        dst = np.asarray(graph.indices, dtype=np.int64)[pos]
        owner = assign[dst]
        group = np.argsort(owner, kind="stable")
        # every vertex's row in its owner's sorted vertex list
        rank = np.empty(nv, dtype=np.int64)
        rank[np.argsort(assign, kind="stable")] = (
            np.arange(nv) - np.repeat(np.cumsum(owned) - owned, owned))
        self.src = np.repeat(np.arange(n), deg)[group]
        self.dst = rank[dst[group]]
        self._bounds = np.concatenate(
            ([0], np.cumsum(np.bincount(owner, minlength=len(owned)))))
        if graph.weights is not None:
            self.weights = np.asarray(graph.weights, dtype=np.float64)[pos[group]]

        self.params = {name: getattr(program, name) for name in plan.params}
        self._aggregators = program.aggregators()
        self._agg_previous: dict[str, Any] = {}
        self._agg_partials = {k: a.identity() for k, a in self._aggregators.items()}
        self.superstep = 0
        sdt = np.dtype(plan.state_dtype)
        self._mdt = mdt = np.dtype(plan.message_dtype)
        self.state = self._boot_state(sdt, deg)
        self.halted = np.zeros(n, dtype=bool)
        if active_ids is not None:
            awake = np.zeros(nv, dtype=bool)
            if len(active_ids):
                awake[np.asarray(active_ids, dtype=np.int64)] = True
            self.halted = ~awake[rows]

        # the worker's byte formulas, on the plan dtype's sizes
        self._payload_nb = int(program.payload_nbytes(mdt.type(0).item()))
        self._wire = model.message_wire_bytes(self._payload_nb)
        self.graph_bytes = m * 6 + n * model.vertex_overhead_bytes
        self.total_state_bytes = n * int(program.state_nbytes(sdt.type(0).item()))
        #: with a combiner, boxes fold by the plan's own monoid
        self._combine = plan.reduce if program.combiner is not None else None
        self._injected: list[tuple[int, Any]] = []  # (row, payload)
        self._empty_inbox()
        self.stats = WorkerStepStats(worker=worker_id)
        self.out_remote: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.out_remote_wire_bytes = 0.0

    @cached_property
    def weights(self) -> np.ndarray:
        """Unit arc weights of an unweighted graph, built on first read."""
        return np.ones(self.m, dtype=np.float64)

    def _empty_inbox(self) -> None:
        """No message for the next superstep: with a combiner one (flag,
        value) box per row, else a list of (row, value) segments."""
        self.in_next_payload_bytes = 0.0
        self._segs: list[tuple[np.ndarray, np.ndarray]] = []
        self._has = self._box = None
        if self._combine is not None:
            self._has = np.zeros(self.n, dtype=bool)
            self._box = np.zeros(self.n, dtype=self._mdt)

    def _queued(self) -> tuple[np.ndarray, np.ndarray]:
        """The next superstep's messages as (row, value) arrays, each row's
        in box order: the data plane's, then injected ones."""
        parts = self._segs
        if self._has is not None:
            boxed = np.flatnonzero(self._has)
            parts = [(boxed, self._box[boxed])]
        if self._injected:
            at, payloads = zip(*self._injected)
            parts = [*parts, (np.asarray(at, dtype=np.int64),
                              np.asarray(payloads).astype(self._mdt))]
        return (_cat([d for d, _ in parts], np.int64),
                _cat([v for _, v in parts], self._mdt))

    # -- the surface WorkerSession drives ------------------------------
    def begin_superstep(self, superstep: int, agg_previous: dict[str, Any]) -> None:
        self.superstep, self._agg_previous = superstep, agg_previous
        self._pending = self._queued()
        self._injected = []
        self._empty_inbox()
        self.out_remote, self.out_remote_wire_bytes = {}, 0.0
        self.stats = WorkerStepStats(worker=self.worker_id)

    def run_compute(self) -> None:
        (pend_dst, pend_val), self._pending = self._pending, None
        msg_count = np.bincount(pend_dst, minlength=self.n)
        computed, sends, self._agg_partials = self._step(
            pend_dst, pend_val, msg_count, self.static_degree)
        self.stats.compute_calls = int(np.count_nonzero(computed))
        self.stats.msgs_in = len(pend_dst)
        self._route(sends)

    def _route(self, sends: list) -> None:
        """Split the superstep's sends by destination worker: the local
        group becomes the next superstep's inbox, every other one the
        bucket :meth:`deliver_bucket` takes at its owner."""
        parts = [
            (self._take(self.dst, arcs), vals,
             self._bounds if arcs is _ALL_ARCS
             else np.searchsorted(arcs, self._bounds))
            for arcs, vals in sends
        ]
        local = remote = 0
        for u, rows_u in enumerate(self._rows_of):
            rows = _cat([d[c[u]:c[u + 1]] for d, _, c in parts], np.int64)
            if not rows.size:
                continue
            vals = _cat([v[c[u]:c[u + 1]] for _, v, c in parts], self._mdt)
            if self._combine is not None:  # one box per destination row
                has = np.bincount(rows, minlength=rows_u) > 0
                box = _fold(self._combine, rows_u, rows, vals, self._mdt)
                if u == self.worker_id:
                    self._has, self._box = has, box
                    local = int(np.count_nonzero(has))
                    continue
                rows = np.flatnonzero(has)
                vals = box[rows]
            if u == self.worker_id:
                self._segs.append((rows, vals))
                local = len(rows)
            else:
                self.out_remote[u] = (rows, np.ascontiguousarray(vals))
                remote += len(rows)
        self.stats.msgs_out_local, self.stats.msgs_out_remote = local, remote
        self.in_next_payload_bytes += local * self._payload_nb
        self.out_remote_wire_bytes = float(remote * self._wire)

    def deliver_bucket(self, bucket: tuple) -> tuple[int, float]:
        """Accept one source worker's ``(row index, value)`` bucket, in
        source-worker order; returns ``(messages, wire bytes)`` received."""
        rows, vals = bucket
        count = fresh = len(rows)
        if self._has is not None:
            had = self._has[rows]
            folded = _FOLD[self._combine](self._box[rows], vals)
            self._box[rows] = np.where(had, folded, vals)
            self._has[rows] = True
            fresh -= int(np.count_nonzero(had))
        else:
            self._segs.append((rows, vals))
        self.in_next_payload_bytes += fresh * self._payload_nb
        return count, float(count * self._wire)

    def inject(self, dst: int, payload: Any) -> None:
        """Control-plane message: queued after the data plane's,
        uncombined and with no bytes, as a worker's ``inject``."""
        self._injected.append((int(np.searchsorted(self.vertex_ids, dst)), payload))

    @property
    def states(self) -> dict[int, Any]:
        return dict(zip(self.vertex_ids.tolist(), self.state.tolist()))

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
            boxes = sum(len(rows) for rows, _ in self._segs)
        return boxes + len(self._injected)

    def snapshot(self) -> dict:
        return deepcopy({k: getattr(self, k) for k in _CHECKPOINTED})

    def restore(self, snap: dict) -> None:
        vars(self).update(deepcopy(snap))  # writable copies of the arrays
        self.out_remote, self.out_remote_wire_bytes = {}, 0.0

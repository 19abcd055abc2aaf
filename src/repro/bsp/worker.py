"""Partition worker: owns a share of vertices and runs their compute().

Mirrors Pregel.NET's partition-worker role (§III): it loads the vertices of
its partition, calls the user ``compute()`` on each active vertex per
superstep, delivers local messages through in-memory buffers, and batches
remote messages per destination worker for bulk transfer.  The engine plays
the job-manager role and moves the batched buffers between workers at the
end of each superstep.

All resource accounting (operation counts, buffered bytes) happens here with
*true* counts; converting them to simulated seconds is the engine's job.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..cloud.costmodel import PerfModel
from ..graph.csr import CSRGraph
from .api import VertexContext, VertexProgram
from .superstep import WorkerStepStats

__all__ = ["PartitionWorker"]


class PartitionWorker:
    """One simulated worker VM's slice of the BSP computation."""

    def __init__(
        self,
        worker_id: int,
        graph: CSRGraph,
        vertex_ids: np.ndarray,
        program: VertexProgram,
        model: PerfModel,
        assignment: np.ndarray,
        initially_active: bool = True,
    ) -> None:
        self.worker_id = worker_id
        self.graph = graph
        self.program = program
        self.model = model
        self.assignment = assignment  # vertex -> worker map (shared, read-only)
        self.vertex_ids = np.sort(np.asarray(vertex_ids, dtype=np.int64))

        # Per-vertex program state and accounting.
        self.states: dict[int, Any] = {}
        self._state_bytes: dict[int, int] = {}
        self.total_state_bytes = 0
        for v in self.vertex_ids:
            vi = int(v)
            st = program.init_state(vi, graph)
            self.states[vi] = st
            nb = int(program.state_nbytes(st))
            self._state_bytes[vi] = nb
            self.total_state_bytes += nb

        self.halted: dict[int, bool] = {
            int(v): not initially_active for v in self.vertex_ids
        }

        # Message buffers: current superstep's input and next superstep's.
        self.in_cur: dict[int, list] = {}
        self.in_next: dict[int, list] = {}
        self.in_next_payload_bytes = 0.0

        # Remote out buffers for the running superstep.  During compute
        # every non-hosted destination gets one box in the flat
        # ``_pending`` dict; run_compute() ends by splitting it into
        # dst_worker -> dst_vertex -> list (or combined single payload).
        self._pending: dict[int, list] = {}
        self.out_remote: dict[int, dict[int, list]] = {}
        self.out_remote_wire_bytes = 0.0

        # Fixed footprint of the hosted partition: CSR share + bookkeeping.
        arcs_hosted = int(np.diff(graph.indptr)[self.vertex_ids].sum()) if len(
            self.vertex_ids
        ) else 0
        self.graph_bytes = (
            arcs_hosted * 6 + len(self.vertex_ids) * model.vertex_overhead_bytes
        )

        # Aggregator plumbing (wired by the engine each superstep).
        self._agg_partials: dict[str, Any] = {}
        self._agg_previous: dict[str, Any] = {}
        self._aggregators = program.aggregators()

        # Topology-mutation overlay (Pregel's edge mutations, self-scope):
        # vertices with mutated out-edges get an explicit neighbor list here;
        # mutations requested during superstep s become visible in s+1.
        self._overlay: dict[int, list[int]] = {}
        self._pending_mutations: list[tuple[int, str, int]] = []
        self.overlay_bytes = 0

        self._ctx = VertexContext()
        self.stats = WorkerStepStats(worker=worker_id)

    # ------------------------------------------------------------------
    # Superstep lifecycle
    # ------------------------------------------------------------------
    def begin_superstep(self, superstep: int, agg_previous: dict[str, Any]) -> None:
        """Rotate message buffers and reset per-step accounting."""
        self._apply_mutations()
        self.in_cur = self.in_next
        self.in_next = {}
        self.in_next_payload_bytes = 0.0
        self._pending = {}
        self.out_remote = {}
        self.out_remote_wire_bytes = 0.0
        self._agg_previous = agg_previous
        self._agg_partials = {
            name: agg.identity() for name, agg in self._aggregators.items()
        }
        self.stats = WorkerStepStats(worker=self.worker_id)
        self._superstep = superstep

    def compute_set(self) -> list[int]:
        """Vertices that must run compute() this superstep (sorted)."""
        pending = set(self.in_cur)
        pending.update(v for v, h in self.halted.items() if not h)
        return sorted(pending)

    def run_compute(self) -> None:
        """Run compute() for every active/messaged vertex of the partition,
        then route the superstep's remote boxes to their owners."""
        program = self.program
        compute = program.compute
        state_nbytes = program.state_nbytes
        states = self.states
        state_bytes = self._state_bytes
        halted = self.halted
        pop_msgs = self.in_cur.pop
        ctx = self._ctx
        bind = ctx._bind
        superstep = self._superstep
        calls = msgs_in = 0
        for v in self.compute_set():
            msgs = pop_msgs(v, ())
            bind(self, v, superstep)
            states[v] = new_state = compute(ctx, states[v], msgs)
            nb = int(state_nbytes(new_state))
            if nb != state_bytes[v]:
                self.total_state_bytes += nb - state_bytes[v]
                state_bytes[v] = nb
            halted[v] = ctx._halted_flag
            calls += 1
            msgs_in += len(msgs)
        self.in_cur = {}
        self.stats.compute_calls += calls
        self.stats.msgs_in += msgs_in
        self._route_pending()

    # ------------------------------------------------------------------
    # Topology mutation (Pregel edge mutations, self-scope)
    # ------------------------------------------------------------------
    def effective_neighbors(self, v: int):
        """Out-neighbors of ``v`` including applied mutations."""
        if v in self._overlay:
            return np.asarray(self._overlay[v], dtype=np.int64)
        return self.graph.neighbors(v)

    def effective_out_degree(self, v: int) -> int:
        if v in self._overlay:
            return len(self._overlay[v])
        return self.graph.out_degree(v)

    def effective_neighbor_weights(self, v: int):
        """Out-edge weights aligned with :meth:`effective_neighbors`.

        Mutated vertices report unit weights (edge mutations carry no
        weight; a weighted-mutation API is out of scope).
        """
        if v in self._overlay:
            return np.ones(len(self._overlay[v]))
        return self.graph.neighbor_weights(v)

    def request_mutation(self, v: int, op: str, dst: int) -> None:
        """Queue an out-edge mutation for ``v`` (applied next superstep)."""
        if op not in ("add", "remove"):
            raise ValueError(f"unknown mutation op {op!r}")
        if not 0 <= dst < self.graph.num_vertices:
            raise ValueError(f"mutation targets unknown vertex {dst}")
        self._pending_mutations.append((v, op, dst))

    def _apply_mutations(self) -> None:
        if not self._pending_mutations:
            return
        for v, op, dst in self._pending_mutations:
            lst = self._overlay.get(v)
            if lst is None:
                lst = list(int(u) for u in self.graph.neighbors(v))
                self._overlay[v] = lst
                self.overlay_bytes += 16 + 8 * len(lst)
            if op == "add":
                lst.append(dst)
                self.overlay_bytes += 8
            else:
                try:
                    lst.remove(dst)
                    self.overlay_bytes -= 8
                except ValueError:
                    pass  # removing a non-existent edge is a no-op (Pregel)
        self._pending_mutations = []

    # ------------------------------------------------------------------
    # Message plane (called from VertexContext.send / send_to_neighbors)
    #
    # A destination is local iff this worker hosts it.  Counters track
    # *post-combine* messages — what is actually buffered and transferred,
    # the quantity the paper plots; combining folds an emit into an
    # existing buffered message at no extra cost.  emit() and
    # emit_to_neighbors() state the same box rule twice (the bulk loop is
    # the hot path); tests/bsp/test_message_plane.py holds them equal.
    # ------------------------------------------------------------------
    def emit(self, src: int, dst: int, payload: Any) -> None:
        local = dst in self.states
        if local:
            boxes = self.in_next
        elif 0 <= dst < self.graph.num_vertices:
            boxes = self._pending
        else:
            raise ValueError(f"message to unknown vertex {dst}")
        box = boxes.get(dst)
        if box is None:
            box = boxes[dst] = []
        program = self.program
        if box and program.combiner is not None:
            box[0] = program.combiner.combine(box[0], payload)
            return
        box.append(payload)
        nb = program.payload_nbytes(payload)
        if local:
            self.in_next_payload_bytes += nb
            self.stats.msgs_out_local += 1
        else:
            self.out_remote_wire_bytes += self.model.message_wire_bytes(nb)
            self.stats.msgs_out_remote += 1

    def emit_to_neighbors(self, v: int, payload: Any) -> None:
        """Emit ``payload`` along every (current) out-edge of ``v``.

        Every recipient gets the same object; accounting is done once per
        call (fresh boxes x payload bytes).
        """
        nbrs = self._overlay.get(v)
        if nbrs is None:
            indptr = self.graph.indptr
            nbrs = self.graph.indices[indptr[v]:indptr[v + 1]].tolist()
        states = self.states
        in_next = self.in_next
        pending = self._pending
        combiner = self.program.combiner
        local = remote = 0
        if combiner is None:
            for u in nbrs:
                if u in states:
                    box = in_next.get(u)
                    if box is None:
                        in_next[u] = [payload]
                    else:
                        box.append(payload)
                    local += 1
                else:
                    box = pending.get(u)
                    if box is None:
                        pending[u] = [payload]
                    else:
                        box.append(payload)
                    remote += 1
        else:
            combine = combiner.combine
            for u in nbrs:
                if u in states:
                    box = in_next.get(u)
                    if box:
                        box[0] = combine(box[0], payload)
                        continue
                    if box is None:
                        in_next[u] = [payload]
                    else:
                        box.append(payload)
                    local += 1
                else:
                    box = pending.get(u)
                    if box:
                        box[0] = combine(box[0], payload)
                        continue
                    if box is None:
                        pending[u] = [payload]
                    else:
                        box.append(payload)
                    remote += 1
        if local or remote:
            nb = self.program.payload_nbytes(payload)
            self.in_next_payload_bytes += local * nb
            self.out_remote_wire_bytes += remote * self.model.message_wire_bytes(nb)
            self.stats.msgs_out_local += local
            self.stats.msgs_out_remote += remote

    def _route_pending(self) -> None:
        """Split the flat remote boxes into per-destination-worker buckets
        (one vectorised owner lookup per superstep), keeping first-emit
        order inside every bucket."""
        pending = self._pending
        if not pending:
            return
        keys = np.fromiter(pending, dtype=np.int64, count=len(pending))
        owners = self.assignment[keys].tolist()
        out = self.out_remote
        for (dst, box), dw in zip(pending.items(), owners):
            bucket = out.get(dw)
            if bucket is None:
                bucket = out[dw] = {}
            bucket[dst] = box

    def deliver_bucket(self, items) -> tuple[int, float]:
        """Accept one source worker's whole bucket: ``(dst, payloads)``
        pairs for vertices hosted here, in the sender's emission order.

        Returns ``(messages, wire bytes)`` received, for the engine's
        traffic matrix.  With a combiner, arriving payloads fold into the
        buffered one; buffered bytes grow only when a box gains an element.
        """
        program = self.program
        payload_nbytes = program.payload_nbytes
        wire_bytes = self.model.message_wire_bytes
        combiner = program.combiner
        in_next = self.in_next
        msgs = 0
        wire = 0.0
        buffered = 0
        last_nb = last_wire = None
        for dst, payloads in items:
            box = in_next.get(dst)
            if box is None:
                box = in_next[dst] = []
            msgs += len(payloads)
            for p in payloads:
                nb = payload_nbytes(p)
                if nb != last_nb:
                    last_nb = nb
                    last_wire = wire_bytes(nb)
                wire += last_wire
                if combiner is not None and box:
                    box[0] = combiner.combine(box[0], p)
                else:
                    box.append(p)
                    buffered += nb
        self.in_next_payload_bytes += buffered
        return msgs, wire

    def deliver_remote(self, dst: int, payloads: list) -> float:
        """Accept a batch of remote messages for local vertex ``dst``;
        returns the wire bytes received (single-box :meth:`deliver_bucket`).
        """
        return self.deliver_bucket(((dst, payloads),))[1]

    def inject(self, dst: int, payload: Any) -> None:
        """Control-plane activation message (job-manager originated).

        Wakes ``dst`` next superstep; carries no data-plane cost (the paper's
        manager uses the cheap Azure queues for control traffic).
        """
        self.in_next.setdefault(dst, []).append(payload)

    # ------------------------------------------------------------------
    # Aggregators
    # ------------------------------------------------------------------
    def aggregate(self, name: str, value: Any) -> None:
        if name not in self._aggregators:
            raise KeyError(f"unknown aggregator {name!r}")
        agg = self._aggregators[name]
        self._agg_partials[name] = agg.reduce(self._agg_partials[name], value)

    def aggregated(self, name: str) -> Any:
        if name not in self._aggregators:
            raise KeyError(f"unknown aggregator {name!r}")
        return self._agg_previous.get(name, self._aggregators[name].identity())

    # ------------------------------------------------------------------
    # Introspection used by the engine
    # ------------------------------------------------------------------
    @property
    def active_count(self) -> int:
        """Vertices that have not voted to halt."""
        return sum(1 for h in self.halted.values() if not h)

    @property
    def has_buffered_messages(self) -> bool:
        return bool(self.in_next)

    def buffered_message_count(self) -> int:
        """Messages buffered for the next superstep (post-combine)."""
        return sum(len(box) for box in self.in_next.values())

    def buffered_message_bytes(self) -> float:
        """Wire-equivalent bytes of messages buffered for the next superstep."""
        m = self.model
        return (
            self.in_next_payload_bytes
            + self.buffered_message_count() * m.msg_header_bytes
        )

    def memory_footprint(self) -> float:
        """Peak resident bytes attributed to this superstep.

        Partition share + vertex state + buffered incoming messages for the
        next superstep (expansion-adjusted) + the transient sender-side
        remote buffers.  Under disk buffering (Giraph/Hama-style, §II) the
        buffered messages live on disk, not in memory.
        """
        m = self.model
        if m.disk_buffering or m.mapreduce_iteration:
            buffered = 0.0
        else:
            buffered = self.buffered_message_bytes() * m.msg_memory_expansion
        return (
            self.graph_bytes
            + self.total_state_bytes
            + buffered
            + self.out_remote_wire_bytes
            + self.overlay_bytes
        )

    # ------------------------------------------------------------------
    # Vertex migration (live elastic scaling support)
    # ------------------------------------------------------------------
    def export_vertex(self, v: int) -> tuple:
        """Detach a vertex's live data for migration to another worker."""
        if v not in self.states:
            raise KeyError(f"vertex {v} not hosted by worker {self.worker_id}")
        state = self.states.pop(v)
        nb = self._state_bytes.pop(v)
        self.total_state_bytes -= nb
        halted = self.halted.pop(v)
        pending = self.in_next.pop(v, [])
        for p in pending:
            self.in_next_payload_bytes -= self.program.payload_nbytes(p)
        overlay = self._overlay.pop(v, None)
        if overlay is not None:
            self.overlay_bytes -= 16 + 8 * len(overlay)
        return state, halted, pending, overlay

    def refresh_partition_footprint(self) -> None:
        """Recompute the hosted-partition memory share after migrations."""
        hosted = np.array(sorted(self.states.keys()), dtype=np.int64)
        arcs_hosted = (
            int(np.diff(self.graph.indptr)[hosted].sum()) if len(hosted) else 0
        )
        self.graph_bytes = (
            arcs_hosted * 6 + len(hosted) * self.model.vertex_overhead_bytes
        )

    def import_vertex(
        self, v: int, state, halted: bool, pending: list, overlay=None
    ) -> None:
        """Adopt a migrated vertex (replacing any freshly-initialized state)."""
        if v in self.states:
            self.total_state_bytes -= self._state_bytes[v]
        self.states[v] = state
        nb = int(self.program.state_nbytes(state))
        self._state_bytes[v] = nb
        self.total_state_bytes += nb
        self.halted[v] = halted
        if pending:
            box = self.in_next.setdefault(v, [])
            box.extend(pending)
            for p in pending:
                self.in_next_payload_bytes += self.program.payload_nbytes(p)
        if overlay is not None:
            self._overlay[v] = overlay
            self.overlay_bytes += 16 + 8 * len(overlay)

    # ------------------------------------------------------------------
    # Snapshot / restore (checkpointing support)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        import copy

        return {
            "states": copy.deepcopy(self.states),
            "state_bytes": dict(self._state_bytes),
            "total_state_bytes": self.total_state_bytes,
            "halted": dict(self.halted),
            "in_next": copy.deepcopy(self.in_next),
            "in_next_payload_bytes": self.in_next_payload_bytes,
            "overlay": copy.deepcopy(self._overlay),
            "overlay_bytes": self.overlay_bytes,
            "pending_mutations": list(self._pending_mutations),
        }

    def restore(self, snap: dict) -> None:
        import copy

        self.states = copy.deepcopy(snap["states"])
        self._state_bytes = dict(snap["state_bytes"])
        self.total_state_bytes = snap["total_state_bytes"]
        self.halted = dict(snap["halted"])
        self.in_next = copy.deepcopy(snap["in_next"])
        self.in_next_payload_bytes = snap["in_next_payload_bytes"]
        self._overlay = copy.deepcopy(snap["overlay"])
        self.overlay_bytes = snap["overlay_bytes"]
        self._pending_mutations = list(snap["pending_mutations"])
        self.in_cur = {}
        self._pending = {}
        self.out_remote = {}
        self.out_remote_wire_bytes = 0.0

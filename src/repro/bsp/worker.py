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

#: a missing dict entry (a combined box, like an aggregate, may be ``None``)
_MISSING = object()


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
        active_ids: np.ndarray | None = None,
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

        # active at superstep 0: every vertex, or those in active_ids
        awake = None if active_ids is None else set(np.asarray(active_ids).tolist())
        self.halted: dict[int, bool] = {
            v: awake is not None and v not in awake for v in self.vertex_ids.tolist()
        }

        # Adjacency read as Python ints, zero copy (the mutation overlay
        # below keeps its own lists).
        self._indptr = memoryview(graph.indptr)
        self._indices = memoryview(graph.indices)

        # Message buffers: current superstep's input and next superstep's,
        # one box per destination vertex.  With a combiner a box is the
        # folded payload itself; without one it is the payload list.
        # Injected control messages queue apart, uncombined, and follow
        # the data plane's box into compute().
        self._combine = None if program.combiner is None else program.combiner.combine
        self.in_cur: dict[int, Any] = {}
        self.in_next: dict[int, Any] = {}
        self._injected_cur: dict[int, list] = {}
        self._injected: dict[int, list] = {}
        self.in_next_payload_bytes = 0.0

        # Remote out buffers for the running superstep.  During compute
        # every non-hosted destination gets one box in the flat
        # ``_pending`` dict; run_compute() ends by splitting it into
        # dst_worker -> dst_vertex -> box.
        self._pending: dict[int, Any] = {}
        self.out_remote: dict[int, dict[int, Any]] = {}
        self.out_remote_wire_bytes = 0.0

        self.refresh_partition_footprint()

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
        self._injected_cur = self._injected
        self._injected = {}
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
        pending.update(self._injected_cur)
        pending.update([v for v, h in self.halted.items() if not h])
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
        pop_box = self.in_cur.pop
        injected = self._injected_cur
        combined = self._combine is not None
        ctx = self._ctx
        ctx._bind(self, self._superstep)
        order = self.compute_set()
        # every queued message is handed to a compute() call below
        self.stats.msgs_in += self._queue_depth(self.in_cur, injected)
        for v in order:
            if combined:
                box = pop_box(v, _MISSING)
                msgs = () if box is _MISSING else (box,)
            else:
                msgs = pop_box(v, ())
            if injected and v in injected:
                msgs = [*msgs, *injected.pop(v)]
            ctx._vertex = v
            ctx._halted_flag = False
            states[v] = new_state = compute(ctx, states[v], msgs)
            nb = int(state_nbytes(new_state))
            if nb != state_bytes[v]:
                self.total_state_bytes += nb - state_bytes[v]
                state_bytes[v] = nb
            halted[v] = ctx._halted_flag
        self.in_cur = {}
        self._injected_cur = {}
        self.stats.compute_calls += len(order)
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
        overlay = self._overlay
        if overlay and v in overlay:
            return len(overlay[v])
        indptr = self._indptr
        return indptr[v + 1] - indptr[v]

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
    # existing box at no extra cost.  With a combiner a box is the folded
    # payload, so folding creates no object.  emit() and
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
        combine = self._combine
        if dst not in boxes:
            boxes[dst] = payload if combine is not None else [payload]
        elif combine is not None:
            boxes[dst] = combine(boxes[dst], payload)
            return
        else:
            boxes[dst].append(payload)
        nb = self.program.payload_nbytes(payload)
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
        overlay = self._overlay
        if overlay and v in overlay:
            nbrs = overlay[v]
        else:
            indptr = self._indptr
            nbrs = self._indices[indptr[v]:indptr[v + 1]]
        states = self.states
        in_next = self.in_next
        pending = self._pending
        combine = self._combine
        local = remote = 0
        if combine is None:
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
            for u in nbrs:
                if u in states:
                    if u in in_next:
                        in_next[u] = combine(in_next[u], payload)
                    else:
                        in_next[u] = payload
                        local += 1
                elif u in pending:
                    pending[u] = combine(pending[u], payload)
                else:
                    pending[u] = payload
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
        # one bucket per owner, in first-emit order of the owners
        out = self.out_remote = {dw: {} for dw in dict.fromkeys(owners)}
        for (dst, box), dw in zip(pending.items(), owners):
            out[dw][dst] = box

    def deliver_bucket(self, bucket: dict) -> tuple[int, float]:
        """Accept one source worker's whole bucket: ``dst -> box`` for
        vertices hosted here, in the sender's emission order.

        Returns ``(messages, wire bytes)`` received, for the engine's
        traffic matrix.  With a combiner each box is one folded payload,
        which folds into the buffered one; buffered bytes grow only when
        a vertex gains a box (combiner) or a payload (none).
        """
        payload_nbytes = self.program.payload_nbytes
        wire_bytes = self.model.message_wire_bytes
        combine = self._combine
        in_next = self.in_next
        wire = 0.0
        buffered = 0
        last_nb = last_wire = None
        if combine is not None:
            for dst, p in bucket.items():
                nb = payload_nbytes(p)
                if nb != last_nb:
                    last_nb = nb
                    last_wire = wire_bytes(nb)
                wire += last_wire
                if dst in in_next:
                    in_next[dst] = combine(in_next[dst], p)
                else:
                    in_next[dst] = p
                    buffered += nb
            self.in_next_payload_bytes += buffered
            return len(bucket), wire
        msgs = 0
        for dst, payloads in bucket.items():
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
                box.append(p)
                buffered += nb
        self.in_next_payload_bytes += buffered
        return msgs, wire

    def deliver_remote(self, dst: int, box: Any) -> float:
        """Accept one remote box for local vertex ``dst``; returns the wire
        bytes received (single-box :meth:`deliver_bucket`)."""
        return self.deliver_bucket({dst: box})[1]

    def inject(self, dst: int, payload: Any) -> None:
        """Control-plane activation message (job-manager originated).

        Wakes ``dst`` next superstep, after the data plane's box and never
        combined; carries no data-plane cost (the paper's manager uses the
        cheap Azure queues for control traffic).
        """
        self._injected.setdefault(dst, []).append(payload)

    # ------------------------------------------------------------------
    # Aggregators
    # ------------------------------------------------------------------
    def aggregate(self, name: str, value: Any) -> None:
        if name not in self._aggregators:
            raise KeyError(f"unknown aggregator {name!r}")
        agg = self._aggregators[name]
        self._agg_partials[name] = agg.reduce(self._agg_partials[name], value)

    def aggregated(self, name: str) -> Any:
        value = self._agg_previous.get(name, _MISSING)
        if value is not _MISSING:
            return value
        if name not in self._aggregators:
            raise KeyError(f"unknown aggregator {name!r}")
        return self._aggregators[name].identity()

    # ------------------------------------------------------------------
    # Introspection used by the engine
    # ------------------------------------------------------------------
    @property
    def active_count(self) -> int:
        """Vertices that have not voted to halt."""
        return sum(1 for h in self.halted.values() if not h)

    @property
    def has_buffered_messages(self) -> bool:
        return bool(self.in_next) or bool(self._injected)

    def buffered_message_count(self) -> int:
        """Messages buffered for the next superstep (post-combine)."""
        return self._queue_depth(self.in_next, self._injected)

    def _queue_depth(self, boxes: dict, injected: dict) -> int:
        boxed = (len(boxes) if self._combine is not None
                 else sum(map(len, boxes.values())))
        return boxed + sum(map(len, injected.values()))

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

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Hosted vertex ids and their state objects, in ``states`` order."""
        return (np.fromiter(self.states, np.int64, len(self.states)),
                np.fromiter(self.states.values(), object, len(self.states)))

    # ------------------------------------------------------------------
    # Vertex migration (BSPEngine.migrate)
    # ------------------------------------------------------------------
    def export_vertex(self, v: int) -> tuple:
        """Detach a vertex's live data for migration to another worker:
        ``(state, halted, box, injected, overlay)``, ``box`` being
        ``_MISSING`` when none is buffered."""
        if v not in self.states:
            raise KeyError(f"vertex {v} not hosted by worker {self.worker_id}")
        state = self.states.pop(v)
        nb = self._state_bytes.pop(v)
        self.total_state_bytes -= nb
        halted = self.halted.pop(v)
        box = self.in_next.pop(v, _MISSING)
        injected = self._injected.pop(v, [])
        # Injected messages are control plane: inject() never counted them.
        for p in self._box_payloads(box):
            self.in_next_payload_bytes -= self.program.payload_nbytes(p)
        overlay = self._overlay.pop(v, None)
        if overlay is not None:
            self.overlay_bytes -= 16 + 8 * len(overlay)
        return state, halted, box, injected, overlay

    def _box_payloads(self, box: Any) -> Any:
        """The payloads a box holds, in order."""
        if box is _MISSING:
            return ()
        return box if self._combine is None else (box,)

    def refresh_partition_footprint(self) -> None:
        """Fixed footprint of :attr:`vertex_ids`: CSR share + bookkeeping
        (recomputed by :meth:`~repro.bsp.engine.BSPEngine.migrate`)."""
        hosted = self.vertex_ids
        arcs_hosted = (
            int(np.diff(self.graph.indptr)[hosted].sum()) if len(hosted) else 0
        )
        self.graph_bytes = (
            arcs_hosted * 6 + len(hosted) * self.model.vertex_overhead_bytes
        )

    def import_vertex(
        self, v: int, state, halted: bool, box: Any, injected: list,
        overlay=None,
    ) -> None:
        """Adopt a vertex migrated from another worker."""
        self.states[v] = state
        nb = int(self.program.state_nbytes(state))
        self._state_bytes[v] = nb
        self.total_state_bytes += nb
        self.halted[v] = halted
        if box is not _MISSING:
            self.in_next[v] = box
        if injected:
            self._injected[v] = injected
        for p in self._box_payloads(box):
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
            "injected": copy.deepcopy(self._injected),
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
        self._injected = copy.deepcopy(snap["injected"])
        self.in_next_payload_bytes = snap["in_next_payload_bytes"]
        self._overlay = copy.deepcopy(snap["overlay"])
        self.overlay_bytes = snap["overlay_bytes"]
        self._pending_mutations = list(snap["pending_mutations"])
        self.in_cur = {}
        self._injected_cur = {}
        self._pending = {}
        self.out_remote = {}
        self.out_remote_wire_bytes = 0.0

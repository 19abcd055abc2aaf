"""Betweenness centrality on Pregel/BSP (Brandes' algorithm, multi-root).

The paper's stress workload (§II-B): for every *root* vertex, a breadth-first
traversal counts shortest paths (sigma) through each vertex, then a backward
walk up the BFS tree accumulates dependency scores (delta); summing deltas
over all roots gives each vertex's centrality [Brandes 2001].

BSP mapping (message-driven, so the swath controller can start any subset of
roots at any superstep by injecting ``("start", root)`` control messages):

* **Forward wave** — a vertex discovered at depth *k* for root *r* receives
  all its discovery messages in one superstep (BFS on an unweighted graph
  guarantees every depth-(k-1) predecessor sent in the previous superstep),
  so its sigma is complete immediately; it forwards ``(fwd, r, k, sigma)``
  to its neighbors and acknowledges each predecessor with ``(succ, r)``.
* **Successor counting** — predecessor acks all arrive exactly two
  supersteps after a vertex was discovered, so each vertex learns its exact
  shortest-path-successor count without global coordination.
* **Backward wave** — a vertex with zero successors (a BFS-tree leaf)
  starts the backward phase; every vertex waits for exactly ``nsucc``
  dependency messages ``(bwd, r, sigma_w, delta_w)``, computes
  ``delta_v = sigma_v * sum((1 + delta_w) / sigma_w)``, adds it to its
  centrality score, forwards to its own predecessors, and *frees the
  per-root record* — which is what makes the memory profile the triangle
  waveform the paper's swath heuristics exploit.

Message volume is O(|E|) per root for each of the three waves — the
paper's O(|V||E|) total, with the near-exponential ramp-up/drain-down
shape on small-world graphs (Fig. 3).
"""

from __future__ import annotations

from typing import Any, Sequence

from ..bsp.api import VertexContext, VertexProgram

__all__ = ["BCProgram", "BCState", "start_messages"]

# Message type tags.
_FWD = 0  # (tag, root, sender_depth, sender_sigma, sender_id)
_SUCC = 1  # (tag, root)
_BWD = 2  # (tag, root, sigma_w, delta_w)
_START = 3  # (tag, root)


class _RootRecord:
    """Per-(vertex, root) traversal bookkeeping; freed when backward done."""

    __slots__ = (
        "depth",
        "sigma",
        "preds",
        "discovered_at",
        "nsucc",
        "acks",
        "partial",
        "nbwd",
        "phase",
    )

    # phases
    WAIT_ACKS = 0
    WAIT_BWD = 1

    def __init__(self, depth: int, superstep: int) -> None:
        self.depth = depth
        self.sigma = 0
        self.preds: list[int] = []
        self.discovered_at = superstep
        self.nsucc = 0
        self.acks = 0
        self.partial = 0.0
        self.nbwd = 0
        self.phase = _RootRecord.WAIT_ACKS

    def nbytes(self) -> int:
        return 96 + 8 * len(self.preds)


class BCState:
    """Vertex state: live per-root records plus the accumulated score."""

    __slots__ = ("records", "score", "roots_completed")

    def __init__(self) -> None:
        self.records: dict[int, _RootRecord] = {}
        self.score = 0.0
        self.roots_completed = 0

    def nbytes(self) -> int:
        return 48 + sum(rec.nbytes() for rec in self.records.values())


def start_messages(roots: Sequence[int]) -> list[tuple[int, tuple]]:
    """Control messages that start a BC traversal at each given root."""
    return [(int(r), (_START, int(r))) for r in roots]


class BCProgram(VertexProgram):
    """Brandes-style betweenness centrality as a Pregel vertex program.

    Roots are started via :func:`start_messages` (all at once for the
    classic Pregel behavior; in swaths via the
    :class:`~repro.scheduling.controller.SwathController`).

    ``normalize_undirected`` halves final scores on undirected graphs
    (each unordered pair is counted from both endpoints), matching
    networkx's convention.
    """

    def __init__(self, normalize_undirected: bool = True) -> None:
        self.normalize_undirected = normalize_undirected

    # ------------------------------------------------------------------
    def init_state(self, vertex_id: int, graph) -> BCState:
        self._undirected = graph.undirected
        return BCState()

    def state_nbytes(self, state: BCState) -> int:
        return state.nbytes()

    def payload_nbytes(self, payload: Any) -> int:
        return 8 * len(payload)

    def extract(self, vertex_id: int, state: BCState) -> float:
        score = state.score
        if self.normalize_undirected and getattr(self, "_undirected", False):
            score /= 2.0
        return score

    # ------------------------------------------------------------------
    def compute(self, ctx: VertexContext, state: BCState, messages) -> BCState:
        superstep = ctx.superstep
        v = ctx.vertex_id
        records = state.records

        # ---- 1. drain messages, grouped per root --------------------------
        fwd_new: dict[int, _RootRecord] = {}
        for msg in messages:
            tag = msg[0]
            if tag == _FWD:
                _, root, sender_depth, sender_sigma, sender = msg
                rec = records.get(root)
                if rec is None:
                    rec = fwd_new.get(root)
                    if rec is None:
                        rec = _RootRecord(sender_depth + 1, superstep)
                        fwd_new[root] = rec
                        records[root] = rec
                if rec.depth == sender_depth + 1:
                    rec.sigma += sender_sigma
                    rec.preds.append(sender)
                # else: non-shortest-path edge; ignore.
            elif tag == _SUCC:
                root = msg[1]
                rec = records.get(root)
                if rec is not None:
                    rec.acks += 1
            elif tag == _BWD:
                _, root, sigma_w, delta_w = msg
                rec = records.get(root)
                if rec is not None:
                    rec.partial += (1.0 + delta_w) / sigma_w
                    rec.nbwd += 1
            elif tag == _START:
                root = msg[1]
                if root != v:
                    raise ValueError(f"start message for root {root} at vertex {v}")
                rec = _RootRecord(depth=0, superstep=superstep)
                rec.sigma = 1
                records[root] = rec
                fwd_new[root] = rec
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown BC message tag {tag!r}")

        # ---- 2. newly discovered records: forward wave + pred acks --------
        for root, rec in fwd_new.items():
            ctx.send_to_neighbors((_FWD, root, rec.depth, rec.sigma, v))
            for u in rec.preds:
                ctx.send(u, (_SUCC, root))

        # ---- 3. lifecycle transitions --------------------------------------
        done_roots: list[int] = []
        for root, rec in records.items():
            if rec.phase == _RootRecord.WAIT_ACKS:
                # All acks arrive exactly 2 supersteps after discovery.
                if superstep >= rec.discovered_at + 2:
                    rec.nsucc = rec.acks
                    rec.phase = _RootRecord.WAIT_BWD
            if rec.phase == _RootRecord.WAIT_BWD and rec.nbwd >= rec.nsucc:
                delta = rec.sigma * rec.partial
                if rec.depth > 0:
                    # Interior vertex: accumulate own dependency and pass up.
                    state.score += delta
                    for u in rec.preds:
                        ctx.send(u, (_BWD, root, rec.sigma, delta))
                # Root (depth 0) simply completes; its delta is not scored.
                done_roots.append(root)
        for root in done_roots:
            del records[root]
            state.roots_completed += 1

        # Stay awake only while some record still awaits acks or deltas.
        if not records:
            ctx.vote_to_halt()
        return state

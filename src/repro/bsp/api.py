"""The Pregel-style vertex-centric programming API.

A graph application subclasses :class:`VertexProgram` and implements
``compute()``, which the framework calls once per (active or messaged)
vertex per superstep with the messages sent to it in the previous superstep.
Inside ``compute()`` the program uses the :class:`VertexContext` to inspect
the topology, emit messages (delivered next superstep), vote to halt, and
contribute to global aggregators — exactly the surface Pregel.NET exposes
(§III), including the templatized vertex/message types (payloads are
arbitrary Python objects here).

Resource accounting hooks (``payload_nbytes`` / ``state_nbytes``) let the
simulated cloud attribute bytes to messages and vertex state; defaults are
reasonable for small tuples and dataclass-like states.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterable, Sequence, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.csr import CSRGraph
    from .aggregators import Aggregator
    from .combiners import Combiner

__all__ = [
    "VertexContext",
    "VertexProgram",
    "MasterContext",
]


class MasterContext:
    """Barrier-time view handed to :meth:`VertexProgram.master_compute`.

    Inspired by GPS's global-computation extension (the paper's closest
    related system, §II): at each barrier, after aggregators merge, the job
    manager runs the program's master logic, which may read aggregates,
    publish values for the next superstep, and halt the whole job.
    """

    __slots__ = ("_engine", "_halt")

    def __init__(self, engine) -> None:
        self._engine = engine
        self._halt = False

    @property
    def superstep(self) -> int:
        """Index of the superstep that just completed."""
        return self._engine.superstep

    @property
    def num_workers(self) -> int:
        return self._engine.num_workers

    @property
    def active_vertices(self) -> int:
        return self._engine.active_vertices

    def aggregated(self, name: str) -> Any:
        """This barrier's merged value of a named aggregator."""
        return self._engine.aggregated(name)

    def publish(self, name: str, value: Any) -> None:
        """Overwrite an aggregator's value for the next superstep.

        The name must belong to a declared aggregator (the broadcast channel
        is the aggregator table, as in Pregel/GPS).
        """
        if name not in self._engine._aggregators:
            raise KeyError(f"unknown aggregator {name!r}")
        self._engine._agg_values[name] = value

    def halt_job(self) -> None:
        """Terminate the job at this barrier regardless of vertex activity."""
        self._halt = True


class VertexContext:
    """Per-``compute()`` view of one vertex, provided by the worker.

    The worker reuses a single context object across vertices for allocation
    hygiene; programs must not retain references across calls.
    """

    __slots__ = ("_worker", "_vertex", "_superstep", "_halted_flag")

    def __init__(self) -> None:
        self._worker = None
        self._vertex = -1
        self._superstep = -1
        self._halted_flag = False

    # Wired by the worker before each compute() call.
    def _bind(self, worker, vertex: int, superstep: int) -> None:
        self._worker = worker
        self._vertex = vertex
        self._superstep = superstep
        self._halted_flag = False

    # ------------------------------------------------------------------
    @property
    def vertex_id(self) -> int:
        """Id of the vertex being computed."""
        return self._vertex

    @property
    def superstep(self) -> int:
        """Current superstep index (0-based)."""
        return self._superstep

    @property
    def num_vertices(self) -> int:
        """Total vertices in the graph."""
        return self._worker.graph.num_vertices

    @property
    def out_degree(self) -> int:
        return self._worker.effective_out_degree(self._vertex)

    @property
    def out_neighbors(self) -> np.ndarray:
        """Out-neighbor ids (reflecting any applied edge mutations)."""
        return self._worker.effective_neighbors(self._vertex)

    @property
    def out_weights(self) -> np.ndarray:
        """Out-edge weights aligned with :attr:`out_neighbors` (unit when
        the graph is unweighted or the vertex's edges were mutated)."""
        return self._worker.effective_neighbor_weights(self._vertex)

    # ------------------------------------------------------------------
    def send(self, dst: int, payload: Any) -> None:
        """Send ``payload`` to vertex ``dst``; delivered next superstep."""
        self._worker.emit(self._vertex, int(dst), payload)

    def send_to_neighbors(self, payload: Any) -> None:
        """Send ``payload`` along every (current) out-edge.

        One bulk send: every recipient receives the same payload object.
        """
        self._worker.emit_to_neighbors(self._vertex, payload)

    def vote_to_halt(self) -> None:
        """Deactivate this vertex until a message re-awakens it."""
        self._halted_flag = True

    # ------------------------------------------------------------------
    # Topology mutation (Pregel edge mutations, self-scope): requested
    # changes to THIS vertex's out-edges become visible next superstep.
    # ------------------------------------------------------------------
    def add_out_edge(self, dst: int) -> None:
        """Add an out-edge from this vertex to ``dst`` (next superstep)."""
        self._worker.request_mutation(self._vertex, "add", int(dst))

    def remove_out_edge(self, dst: int) -> None:
        """Remove this vertex's out-edge to ``dst`` (next superstep).

        Removing a non-existent edge is a silent no-op, per Pregel's default
        mutation-conflict handling.
        """
        self._worker.request_mutation(self._vertex, "remove", int(dst))

    # ------------------------------------------------------------------
    def aggregate(self, name: str, value: Any) -> None:
        """Contribute ``value`` to the named aggregator (visible next step)."""
        self._worker.aggregate(name, value)

    def aggregated(self, name: str) -> Any:
        """Read the named aggregator's value from the *previous* superstep."""
        return self._worker.aggregated(name)


class VertexProgram(ABC):
    """Base class for vertex-centric graph applications.

    Subclasses implement :meth:`compute` and optionally :meth:`init_state`,
    a :attr:`combiner`, and :meth:`aggregators`.

    **The vertex-program contract.**  One program instance is shared by
    every partition worker, and ``ThreadedBSPEngine`` runs workers
    concurrently, so ``compute()`` must behave as a pure function of
    ``(ctx, state, messages)`` plus read-only configuration set before the
    run:

    * Treat ``messages`` and their payloads as read-only — a combiner or
      another receiver may alias them (``repro check`` RPC001).
    * No unseeded randomness or wall-clock reads inside ``compute()``
      (RPC002); no writes to ``self``/class/module state (RPC003) — use the
      returned state and aggregators instead.
    * ``ctx`` is only valid during the call that received it; sends,
      votes, and edge mutations happen in ``compute()`` only (RPC004,
      RPC009), and every program needs a reachable ``vote_to_halt`` /
      ``halt_job`` / fixed-iteration exit (RPC005).
    * Resource hooks and ``aggregators()`` must be honest: accounting and
      the swath heuristics consume them (RPC006-RPC008, RPC010).

    ``docs/vertex-program-contract.md`` spells out each rule; the dynamic
    half (``repro run --sanitize``) verifies the same contracts at runtime.
    """

    #: Optional message combiner applied at the sending worker per
    #: destination vertex (reduces both message count and bytes).
    combiner: "Combiner | None" = None

    # ------------------------------------------------------------------
    def init_state(self, vertex_id: int, graph: "CSRGraph") -> Any:
        """Initial per-vertex state; default ``None``."""
        return None

    @abstractmethod
    def compute(self, ctx: VertexContext, state: Any, messages: Sequence[Any]) -> Any:
        """Process ``messages``, mutate/return state, emit via ``ctx``.

        The return value replaces the vertex state (return ``state`` itself
        for in-place mutation styles).
        """

    def aggregators(self) -> dict[str, "Aggregator"]:
        """Named global aggregators recomputed each superstep."""
        return {}

    def master_compute(self, master: MasterContext) -> None:
        """Global logic run by the job manager at each barrier (optional).

        Runs after aggregators merge; may read them, :meth:`MasterContext.
        publish` values for the next superstep, or :meth:`MasterContext.
        halt_job` (e.g. on convergence).  Default: no-op.
        """

    # --- resource accounting hooks --------------------------------------
    def payload_nbytes(self, payload: Any) -> int:
        """Wire bytes of one message payload (excludes framing header)."""
        return _estimate_nbytes(payload)

    def state_nbytes(self, state: Any) -> int:
        """Resident bytes of one vertex's state."""
        return _estimate_nbytes(state)

    # --- result extraction ----------------------------------------------
    def extract(self, vertex_id: int, state: Any) -> Any:
        """Map final state to the user-facing result value (default: state)."""
        return state

    @property
    def name(self) -> str:
        return type(self).__name__


def _estimate_nbytes(obj: Any, _depth: int = 0) -> int:
    """Cheap recursive size estimate for payload/state accounting.

    Deliberately simple: numbers are 8 bytes, containers add 8 per slot.
    Programs with heavy state (e.g. BC's per-root tables) override the hooks
    with closed-form counts instead.
    """
    if obj is None:
        return 0
    if isinstance(obj, (int, float, bool, np.integer, np.floating)):
        return 8
    if isinstance(obj, (bytes, bytearray, str)):
        return len(obj)
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if _depth >= 3:  # cap recursion; deep payloads should override the hook
        return 32
    if isinstance(obj, dict):
        return 16 + sum(
            _estimate_nbytes(k, _depth + 1) + _estimate_nbytes(v, _depth + 1) + 8
            for k, v in obj.items()
        )
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 16 + sum(_estimate_nbytes(x, _depth + 1) + 8 for x in obj)
    return 48  # unknown object: a flat default

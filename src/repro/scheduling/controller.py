"""The swath controller: wires sizing + initiation heuristics to the engine.

The controller is a plain :class:`~repro.bsp.engine.SuperstepObserver` — it
only consumes the public superstep statistics and injects control-plane
start messages, exactly the coupling the paper claims makes the heuristics
"generalizable ... by other BSP and distributed graph frameworks".

Responsibilities:

* keep the ordered list of pending traversal roots;
* at each superstep boundary, feed the window's peak memory to the
  :class:`~repro.scheduling.sizing.SwathSizer` and ask the
  :class:`~repro.scheduling.initiation.InitiationPolicy` whether to start
  the next swath (always starting one at quiescence so the job can't
  strand roots);
* record a :class:`SwathEvent` log that the benches plot.

Works with any message-driven program that provides a ``start_messages``
factory (BC and APSP do).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..bsp.engine import BSPEngine, SuperstepObserver
from ..bsp.superstep import SuperstepStats
from .initiation import InitiationContext, InitiationPolicy, SequentialInitiation
from .sizing import SizerObservation, StaticSizer, SwathSizer

__all__ = ["SwathController", "SwathEvent"]

StartFactory = Callable[[Sequence[int]], list[tuple[int, tuple]]]


@dataclass(frozen=True)
class SwathEvent:
    """One swath initiation, for traces and reports."""

    superstep: int
    size: int
    roots: tuple[int, ...]
    remaining_after: int


@dataclass
class SwathController(SuperstepObserver):
    """Schedules traversal roots in swaths (see module docstring)."""

    roots: Sequence[int]
    start_factory: StartFactory
    sizer: SwathSizer = field(default_factory=lambda: StaticSizer(1))
    initiation: InitiationPolicy = field(default_factory=SequentialInitiation)
    events: list[SwathEvent] = field(default_factory=list)
    #: optional :class:`repro.obs.MetricsRegistry` for swath telemetry
    metrics: Any = None
    #: optional :class:`repro.obs.RunTimeline`; initiations annotate it so
    #: `repro trace report` shows swath boundaries next to straggler flags
    timeline: Any = None

    def __post_init__(self) -> None:
        self._pending: list[int] = [int(r) for r in self.roots]
        seen = set()
        for r in self._pending:
            if r in seen:
                raise ValueError(f"duplicate root {r}")
            seen.add(r)
        self._baseline_memory = 0.0
        self._window_peak = 0.0
        self._window_size = 0
        self._steps_since_initiation = 0
        self._messages_history: list[int] = []
        # Sizer decisions ride the same registry as controller telemetry
        # (repro_swath_size / repro_swath_probe_mem_bytes) unless the
        # sizer was given its own.
        if self.metrics is not None and self.sizer.metrics is None:
            self.sizer.metrics = self.metrics

    # ------------------------------------------------------------------
    # Observer protocol
    # ------------------------------------------------------------------
    def on_job_start(self, engine: BSPEngine) -> None:
        # Footprint before any traversal: partition + initial states.
        self._baseline_memory = max(
            (w.memory_footprint() for w in engine.workers), default=0.0
        )
        self._initiate(engine, superstep=-1)

    def on_superstep_end(self, engine: BSPEngine, stats: SuperstepStats) -> None:
        self._window_peak = max(self._window_peak, stats.peak_memory)
        self._steps_since_initiation += 1
        self._messages_history.append(stats.total_messages)
        if not self._pending:
            return
        quiescent = engine.active_vertices == 0 and not engine.buffered_messages
        ctx = InitiationContext(
            superstep=stats.index,
            steps_since_initiation=self._steps_since_initiation,
            messages_history=self._messages_history,
            quiescent=quiescent,
        )
        if quiescent or self.initiation.should_initiate(ctx):
            self._close_window()
            self._initiate(engine, superstep=stats.index)

    def has_pending_work(self) -> bool:
        return bool(self._pending)

    # ------------------------------------------------------------------
    def _close_window(self) -> None:
        """Report the finished swath window's memory peak to the sizer."""
        if self._window_size > 0:
            self.sizer.observe(
                SizerObservation(
                    swath_size=self._window_size,
                    peak_memory=max(self._window_peak, self._baseline_memory),
                    baseline_memory=self._baseline_memory,
                )
            )
            if self.metrics is not None:
                self.metrics.gauge(
                    "swath_window_peak_memory_bytes",
                    help="Peak per-worker memory in the last swath window",
                ).set(max(self._window_peak, self._baseline_memory))
        self._window_peak = 0.0

    def _initiate(self, engine: BSPEngine, superstep: int) -> None:
        if not self._pending:
            return
        size = self.sizer.next_size(remaining=len(self._pending))
        swath, self._pending = self._pending[:size], self._pending[size:]
        engine.inject_messages(self.start_factory(swath))
        self.events.append(
            SwathEvent(
                superstep=superstep,
                size=len(swath),
                roots=tuple(swath),
                remaining_after=len(self._pending),
            )
        )
        if self.timeline is not None:
            # The injected messages run in superstep+1; annotate there.
            self.timeline.annotate(
                superstep + 1, "swath-initiation",
                size=len(swath), remaining=len(self._pending),
            )
        self._window_size = len(swath)
        self._steps_since_initiation = 0
        self._messages_history = []
        self.initiation.reset()
        if self.metrics is not None:
            self.metrics.counter(
                "swath_initiations_total",
                help="Swaths started by the controller",
            ).inc()
            self.metrics.gauge(
                "swath_size", help="Roots started in the most recent swath"
            ).set(len(swath))
            self.metrics.gauge(
                "swath_pending_roots",
                help="Traversal roots not yet started",
            ).set(len(self._pending))

    # ------------------------------------------------------------------
    @property
    def num_swaths(self) -> int:
        return len(self.events)

    @property
    def completed_all(self) -> bool:
        return not self._pending

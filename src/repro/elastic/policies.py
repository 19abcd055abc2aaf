"""Worker-scaling policies for §VIII's elasticity analysis.

The paper scales between two fleet sizes (4 and 8 workers) at superstep
boundaries.  A policy sees one superstep's context (active vertices, the
fleet running now and, in a projection, the measured per-superstep times
at both sizes) and picks the fleet size for that superstep.  The same
stateless policies drive the projection (``ElasticityModel``) and live
runs (``ElasticResizer``), so one object can be reused across runs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

__all__ = [
    "ScalingContext",
    "ScalingPolicy",
    "FixedWorkers",
    "ActiveFractionPolicy",
    "OraclePolicy",
]


@dataclass(frozen=True)
class ScalingContext:
    """Per-superstep information available to a scaling decision."""

    step: int  # the superstep the choice is for
    active_vertices: int
    max_active: int  # peak active count: the trace's, or the run's so far
    num_graph_vertices: int
    low: int
    high: int
    workers: int  # the fleet running now
    steps_since_change: int | None = None  # since the fleet last changed size
    time_low: float | None = None  # measured step time at ``low`` (projection)
    time_high: float | None = None  # measured step time at ``high``


class ScalingPolicy(ABC):
    """Chooses a fleet size (low or high) for each superstep."""

    @abstractmethod
    def choose(self, ctx: ScalingContext) -> int: ...

    @property
    def label(self) -> str:
        return type(self).__name__


class FixedWorkers(ScalingPolicy):
    """Static provisioning at a constant fleet size."""

    def __init__(self, workers: int) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.workers = workers

    def choose(self, ctx: ScalingContext) -> int:
        if self.workers not in (ctx.low, ctx.high):
            raise ValueError(
                f"FixedWorkers({self.workers}) outside the measured sizes "
                f"({ctx.low}, {ctx.high})"
            )
        return self.workers

    @property
    def label(self) -> str:
        return f"Fixed-{self.workers}"


class ActiveFractionPolicy(ScalingPolicy):
    """The paper's dynamic heuristic: scale out when >= ``threshold`` of
    vertices are active (default 50%), scale in otherwise.

    ``reference`` selects the denominator: ``"peak"`` (fraction of the
    peak active count — robust across swath sizes, our default) or
    ``"graph"`` (fraction of |V|).  ``cooldown`` keeps a new fleet for at
    least that many supersteps, which suppresses thrash around the
    threshold.
    """

    def __init__(
        self, threshold: float = 0.5, reference: str = "peak", cooldown: int = 0
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if reference not in ("peak", "graph"):
            raise ValueError("reference must be 'peak' or 'graph'")
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        self.threshold = threshold
        self.reference = reference
        self.cooldown = cooldown

    def choose(self, ctx: ScalingContext) -> int:
        since = ctx.steps_since_change
        if since is not None and since < self.cooldown:
            return ctx.workers
        total = ctx.max_active if self.reference == "peak" else ctx.num_graph_vertices
        frac = ctx.active_vertices / total if total else 0.0
        return ctx.high if frac >= self.threshold else ctx.low

    @property
    def label(self) -> str:
        hold = f", cooldown {self.cooldown}" if self.cooldown else ""
        return f"Dynamic({self.threshold:.0%} of {self.reference}{hold})"


class OraclePolicy(ScalingPolicy):
    """Ideal scaling: per superstep, whichever size was measured faster
    (a projection only: a live run has no measurements)."""

    def choose(self, ctx: ScalingContext) -> int:
        if ctx.time_low is None or ctx.time_high is None:
            raise ValueError("OraclePolicy needs the measured times of a projection")
        return ctx.high if ctx.time_high < ctx.time_low else ctx.low

    @property
    def label(self) -> str:
        return "Oracle"

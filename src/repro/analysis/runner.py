"""High-level experiment runners shared by benchmarks, examples and tests.

Wraps the engine with the paper's standard experimental procedure:
PageRank runs to its fixed iteration count over all vertices; BC/APSP run
message-driven over a *subset of roots* (the paper uses 50-75), optionally
under a swath controller, and totals are extrapolated to all |V| roots
pro-rata (§V — "empirically verified" by the authors; our tests verify it
for the simulated engine too).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Sequence

from ..algorithms import apsp as apsp_mod
from ..algorithms import bc as bc_mod
from ..algorithms.apsp import APSPProgram
from ..algorithms.bc import BCProgram
from ..algorithms.pagerank import PageRankProgram
from ..bsp.engine import make_engine
from ..bsp.job import JobResult, JobSpec
from ..cloud.costmodel import DEFAULT_PERF_MODEL, PerfModel
from ..cloud.specs import LARGE_VM, VMSpec, scaled_large
from ..graph.csr import CSRGraph
from ..partition.base import Partitioner
from ..partition.hashing import HashPartitioner
from ..scheduling.controller import SwathController
from ..scheduling.initiation import InitiationPolicy, SequentialInitiation
from ..scheduling.sizing import StaticSizer, SwathSizer

__all__ = ["RunConfig", "TraversalRun", "run_pagerank", "run_traversal", "calibrate_worker_memory"]


@dataclass(frozen=True)
class RunConfig:
    """Cluster + cost-model configuration for one experiment run."""

    num_workers: int = 8
    partitioner: Partitioner = field(default_factory=HashPartitioner)
    vm_spec: VMSpec = LARGE_VM
    perf_model: PerfModel = DEFAULT_PERF_MODEL
    max_supersteps: int = 100_000
    #: execution backend: "sim" (sequential), "process"
    #: (real worker processes, repro.dist), "tcp" (worker sessions on
    #: ``repro worker`` daemons, repro.net), "dense-ref" (NumPy
    #: interpreter over the program's static KernelPlan — refuses
    #: programs the lifter cannot prove), or "auto" (static ranking over
    #: all of the above, repro.analysis.engine_select) — see
    #: docs/runtime.md
    engine: str = "sim"
    #: TCP backend endpoints: a list of ``(host, port)`` pairs or a
    #: workers-file path (str).  None auto-spawns localhost daemons.
    tcp_hosts: Any = None
    #: optional observability sinks (repro.obs), threaded into every job
    tracer: Any = None
    metrics: Any = None
    #: optional :class:`repro.obs.RunTimeline` attribution recorder
    timeline: Any = None
    #: optional :class:`repro.obs.FlightRecorder` event ring
    flight: Any = None
    #: optional postmortem sink (``dump(engine, error)``), e.g.
    #: :class:`repro.obs.PostmortemWriter`
    postmortem: Any = None
    #: statically profile the program (repro.check.costmodel) and record
    #: the ProgramProfile on the JobResult + metrics; cheap (pure AST)
    auto_profile: bool = True

    def with_memory(self, memory_bytes: int) -> "RunConfig":
        """Same config with the worker VM memory replaced (scaled regime)."""
        return replace(self, vm_spec=scaled_large(int(memory_bytes)))

    def job(self, program, graph: CSRGraph, **kwargs) -> JobSpec:
        return JobSpec(
            program=program,
            graph=graph,
            num_workers=self.num_workers,
            partitioner=self.partitioner,
            vm_spec=self.vm_spec,
            perf_model=self.perf_model,
            max_supersteps=self.max_supersteps,
            tracer=self.tracer,
            metrics=self.metrics,
            timeline=self.timeline,
            flight=self.flight,
            postmortem=self.postmortem,
            **kwargs,
        )


def _make_engine(cfg: RunConfig, job: JobSpec):
    """Instantiate the backend ``cfg.engine`` names for ``job``."""
    if cfg.engine == "auto":
        # the runners resolve "auto" via _resolve_auto before building
        # the engine; reaching here means a caller skipped that step
        raise ValueError(
            "engine 'auto' must be resolved by the runner before "
            "_make_engine (see _resolve_auto)"
        )
    kwargs = {}
    if cfg.tcp_hosts is not None and cfg.engine == "tcp":
        key = "workers_file" if isinstance(cfg.tcp_hosts, str) else "endpoints"
        kwargs[key] = cfg.tcp_hosts
    return make_engine(cfg.engine, job, **kwargs)


def _auto_profile(cfg: RunConfig, program) -> Any:
    """Static cost model of ``program``, recorded in metrics when present.

    Never fails the run: programs defined in a REPL (no source file) just
    come back unprofiled.
    """
    if not cfg.auto_profile:
        return None
    from ..check.costmodel import profile_of

    profile = profile_of(program)
    if profile is not None and cfg.metrics is not None:
        cfg.metrics.gauge(
            "repro_program_fanout_level",
            help="Static fan-out class level (0 none, 1 O(1), "
                 "2 O(out_degree), 3 broadcast)",
            program=profile.program,
        ).set(profile.fanout.level)
        cfg.metrics.gauge(
            "repro_program_payload_nbytes",
            help="Statically modelled upper payload bytes per message",
            program=profile.program,
        ).set(profile.payload.nbytes)
    return profile


def _auto_plan(cfg: RunConfig, program) -> Any:
    """Static lift verdict of ``program``, recorded in metrics when present.

    Mirrors :func:`_auto_profile`: never fails the run.  Returns the full
    :class:`~repro.check.vectorize.LiftResult` (engine auto-selection
    needs the refusal reason, not just the plan); programs whose
    compute() the lifter refuses come back with no plan, and the
    ``repro_kernel_plan_lifted`` gauge records 0; a program with no
    locatable source returns None and records nothing.
    """
    from ..check.vectorize import lift_of

    verdict = lift_of(program)
    if verdict is None:
        return None
    if cfg.metrics is not None:
        cfg.metrics.gauge(
            "repro_kernel_plan_lifted",
            help="1 when the program statically lifted to a KernelPlan "
                 "(RPC015), 0 when the lifter refused (RPC016-018)",
            program=verdict.program,
        ).set(1 if verdict.lifted else 0)
        if verdict.plan is not None:
            cfg.metrics.gauge(
                "repro_kernel_plan_phases",
                help="Number of guarded phases in the lifted KernelPlan",
                program=verdict.program,
            ).set(len(verdict.plan.phases))
            cfg.metrics.gauge(
                "repro_kernel_plan_ops",
                help="Total kernel ops across the lifted plan's phases",
                program=verdict.program,
            ).set(verdict.plan.num_ops)
    return verdict


def _resolve_auto(
    cfg: RunConfig, job: JobSpec, profile, verdict
) -> tuple[RunConfig, Any]:
    """Resolve ``engine="auto"`` to a concrete engine before the job runs.

    Returns ``(cfg, decision)``: ``cfg`` unchanged (decision None) for
    explicit engines, else a copy with the selected engine and the full
    :class:`~repro.analysis.engine_select.EngineDecision`, which is also
    recorded in the flight event stream (``engine.autoselect``).
    """
    if cfg.engine != "auto":
        return cfg, None
    from .engine_select import dense_refused_features, select_engine

    features = dense_refused_features(
        job.program, getattr(verdict, "plan", None), job.initial_messages
    )
    decision = select_engine(
        verdict=verdict,
        profile=profile,
        num_workers=cfg.num_workers,
        tcp_hosts=cfg.tcp_hosts,
        features=features,
    )
    if cfg.flight is not None:
        cfg.flight.record(
            "engine.autoselect",
            engine=decision.engine,
            reasons=list(decision.reasons),
            ranking=[[e, s] for e, s in decision.ranking],
            excluded=[[e, r] for e, r in decision.excluded],
            hazards=list(decision.hazards),
        )
    return replace(cfg, engine=decision.engine), decision


def _run(cfg: RunConfig, job: JobSpec, profile, verdict) -> JobResult:
    """Resolve the engine, run ``job``, attach the static analyses."""
    cfg, decision = _resolve_auto(cfg, job, profile, verdict)
    result = _make_engine(cfg, job).run()
    result.profile = profile
    if result.kernel_plan is None and verdict is not None:
        result.kernel_plan = verdict.plan
    result.engine_decision = decision
    return result


@dataclass
class TraversalRun:
    """Result of a BC/APSP run plus its swath log."""

    result: JobResult
    controller: SwathController

    @property
    def total_time(self) -> float:
        return self.result.total_time

    @property
    def num_swaths(self) -> int:
        return self.controller.num_swaths

    @property
    def profile(self) -> Any:
        """Static cost model recorded for the program (may be None)."""
        return self.result.profile


def run_pagerank(
    graph: CSRGraph,
    cfg: RunConfig,
    iterations: int = 30,
    use_combiner: bool = True,
    observers: Sequence = (),
    wrap_program=None,
) -> JobResult:
    """PageRank over all vertices for a fixed iteration count (paper: 30).

    ``wrap_program`` optionally wraps the constructed program before the
    job is built (tracing/sanitizing wrappers — ``repro run --sanitize``).
    """
    program = PageRankProgram(iterations=iterations, use_combiner=use_combiner)
    if wrap_program is not None:
        program = wrap_program(program)
    profile = _auto_profile(cfg, program)
    verdict = _auto_plan(cfg, program)
    job = cfg.job(program, graph, observers=list(observers))
    return _run(cfg, job, profile, verdict)


def _traversal_pieces(kind: str):
    if kind == "bc":
        return BCProgram(), bc_mod.start_messages
    if kind == "apsp":
        return APSPProgram(), apsp_mod.start_messages
    raise ValueError(f"unknown traversal kind {kind!r}; use 'bc' or 'apsp'")


def run_traversal(
    graph: CSRGraph,
    cfg: RunConfig,
    roots,
    kind: str = "bc",
    sizer: SwathSizer | None = None,
    initiation: InitiationPolicy | None = None,
    extra_observers: Sequence = (),
    wrap_program=None,
) -> TraversalRun:
    """Run BC or APSP over ``roots`` under a swath controller.

    Defaults reproduce the paper's baseline: one swath holding every root
    (``StaticSizer(len(roots))``) with sequential initiation.
    ``extra_observers`` ride along after the controller (progress
    reporters, invariant checkers); ``wrap_program`` optionally wraps the
    program before the job is built (``repro run --sanitize``).
    """
    roots = [int(r) for r in roots]
    program, start_factory = _traversal_pieces(kind)
    if wrap_program is not None:
        program = wrap_program(program)
    profile = _auto_profile(cfg, program)
    verdict = _auto_plan(cfg, program)
    controller = SwathController(
        roots=roots,
        start_factory=start_factory,
        sizer=sizer if sizer is not None else StaticSizer(max(1, len(roots))),
        initiation=initiation if initiation is not None else SequentialInitiation(),
        metrics=cfg.metrics,
        timeline=cfg.timeline,
    )
    job = cfg.job(
        program, graph, initially_active=False,
        observers=[controller, *extra_observers],
    )
    result = _run(cfg, job, profile, verdict)
    if not controller.completed_all:
        raise RuntimeError(
            "traversal ended with pending roots "
            f"({len(controller._pending)} left) — raise max_supersteps"
        )
    return TraversalRun(result=result, controller=controller)


def calibrate_worker_memory(
    graph: CSRGraph,
    cfg: RunConfig,
    roots,
    kind: str = "bc",
    headroom: float = 1.25,
) -> int:
    """Choose a worker memory capacity for the scaled regime.

    Runs the given swath once on effectively unlimited memory, measures the
    cluster's peak per-worker footprint, and returns
    ``peak / headroom`` — i.e. a capacity that the measured swath would
    *overflow* by ``headroom``x.  Scenarios use this to map the paper's
    "7 GB physical / 6 GB target / baseline spills" regime onto analogue
    graphs of any size.
    """
    if headroom <= 0:
        raise ValueError("headroom must be positive")
    big = cfg.with_memory(1 << 62)
    probe = run_traversal(graph, big, roots, kind=kind)
    peak = probe.result.trace.peak_memory
    return max(1, int(peak / headroom))

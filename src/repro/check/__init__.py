"""Pregel-aware static analyzer + dynamic sanitizer for vertex programs.

The engine's whole analysis (and the paper's swath heuristics, §IV) assume
vertex programs are true BSP citizens: message-driven, deterministic per
superstep, no shared state, honest resource hooks.  This package verifies
those contracts before and during a run:

* **Static pass** — ``repro check [path|module ...]`` runs the AST rules
  (RPC001..RPC014) over every :class:`~repro.bsp.api.VertexProgram`
  subclass; importable as :func:`analyze_source` / :func:`analyze_paths`
  for tests.  Suppress per line with ``# repro: noqa[RPC00X]``; configure
  defaults in ``[tool.repro.check]`` (pyproject.toml).
* **Cost models** — ``repro check --profile`` (module
  :mod:`repro.check.costmodel`) statically infers each program's
  :class:`ProgramProfile`: message fan-out class, payload-size model,
  combiner/aggregator compatibility, and process-engine pickle safety.
  :func:`profile_of` models a live program object; the profile seeds
  ``SamplingSizer.from_profile(...)`` swath sizing and gates
  :class:`repro.dist.ProcessBSPEngine` before it forks.
* **Vectorization front-end** — ``repro check --kernel-plan`` (module
  :mod:`repro.check.vectorize`) abstract-interprets each ``compute()``
  and either lifts it to a declarative :class:`KernelPlan` (RPC015 —
  gather/map/scatter ops the NumPy reference executor
  :class:`repro.bsp.dense_ref.DenseRefEngine` interprets directly) or
  refuses with the precise blocking construct (RPC016 data-dependent
  control flow, RPC017 non-dense state/payload schema, RPC018 unknown
  reduction monoid).  Every claimed plan is certified bit-equivalent
  against the simulation engine (``certify_determinism(engine=
  "dense-ref")``).
* **Plan optimizer** — module :mod:`repro.check.planopt` statically
  rewrites lifted plans (mask fusion, constant folding, dead-op
  elimination, phase fusion, scatter hoisting, CSE) into the form
  dense-ref actually executes, each rewrite certified bit-identical to
  the unoptimized plan (:func:`certify_optimization`).  Surfaced under
  ``--kernel-plan`` as RPC019 (plan optimized, digest), RPC020 (fusion
  blocked by an order-sensitive op), RPC021 (costmodel / kernel-plan
  verdict disagreement), RPC022 (engine-selection hazard); the optimized
  digests feed ``repro run --engine auto``'s static engine ranking
  (:mod:`repro.analysis.engine_select`).
* **Dynamic sanitizer** — :class:`SanitizingProgram` +
  :class:`SanitizerObserver` fingerprint delivered payloads against
  in-place mutation, :func:`certify_determinism` diffs 1-vs-N-worker
  outputs, and :func:`check_aggregator_laws` probes declared
  aggregators for the barrier-merge algebra.  ``repro run --sanitize``
  and ``repro check --sanitize`` wire them into real runs; violations
  surface through :mod:`repro.obs` metrics.

The contracts each rule enforces are documented in
``docs/vertex-program-contract.md``.
"""

from .analyzer import (
    ANALYZER_VERSION,
    FileResult,
    analyze_file,
    analyze_paths,
    analyze_paths_detailed,
    analyze_source,
)
from .cache import AnalysisCache
from .config import CheckConfig, DEFAULT_CONFIG, load_config
from .costmodel import (
    FanoutClass,
    PayloadModel,
    PickleRisk,
    ProgramProfile,
    SendSite,
    estimate_bytes_per_root,
    profile_file,
    profile_of,
    profile_paths,
    profile_source,
)
from .findings import Finding, Severity
from .rules import RULES, rule_catalog
from .sanitizer import (
    AggregatorLawReport,
    DeterminismReport,
    SanitizerObserver,
    SanitizerViolation,
    SanitizingProgram,
    SmokeReport,
    certify_determinism,
    check_aggregator_laws,
    freeze,
    run_sanitize_smoke,
)
from .planopt import (
    PLANOPT_RULES,
    PLANOPT_SIGNATURE,
    FusionBlock,
    OptCertification,
    PassReport,
    PlanOptResult,
    PlanVerdict,
    certify_optimization,
    optimize_file,
    optimize_plan,
    optimize_source,
    plan_profile_disagreements,
)
from .vectorize import (
    KERNEL_RULES,
    KernelPhase,
    KernelPlan,
    KOp,
    LiftResult,
    lift_file,
    lift_of,
    lift_paths,
    lift_source,
)

__all__ = [
    "ANALYZER_VERSION",
    "FileResult",
    "analyze_file",
    "analyze_paths",
    "analyze_paths_detailed",
    "analyze_source",
    "FanoutClass",
    "PayloadModel",
    "PickleRisk",
    "ProgramProfile",
    "SendSite",
    "estimate_bytes_per_root",
    "profile_file",
    "profile_of",
    "profile_paths",
    "profile_source",
    "CheckConfig",
    "DEFAULT_CONFIG",
    "load_config",
    "Finding",
    "Severity",
    "RULES",
    "rule_catalog",
    "AggregatorLawReport",
    "DeterminismReport",
    "SanitizerObserver",
    "SanitizerViolation",
    "SanitizingProgram",
    "SmokeReport",
    "certify_determinism",
    "check_aggregator_laws",
    "freeze",
    "run_sanitize_smoke",
    "AnalysisCache",
    "KERNEL_RULES",
    "KernelPhase",
    "KernelPlan",
    "KOp",
    "LiftResult",
    "lift_file",
    "lift_of",
    "lift_paths",
    "lift_source",
    "PLANOPT_RULES",
    "PLANOPT_SIGNATURE",
    "FusionBlock",
    "OptCertification",
    "PassReport",
    "PlanOptResult",
    "PlanVerdict",
    "certify_optimization",
    "optimize_file",
    "optimize_plan",
    "optimize_source",
    "plan_profile_disagreements",
]

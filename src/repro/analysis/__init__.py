"""Experiment harness: runners, calibrated scenarios, extrapolation, tables."""

from .runner import (
    RunConfig,
    TraversalRun,
    calibrate_worker_memory,
    run_pagerank,
    run_traversal,
)
from .scenarios import (
    BENCH_SCALE,
    ELASTIC_SWATH,
    MEMORY_HEADROOM,
    PAPER_BASE_SWATH,
    PAPER_ROOTS,
    TARGET_FRACTION,
    TraversalScenario,
    bc_scenario,
    paper_partitioners,
)
from .extrapolate import Extrapolation, extrapolate_runtime
from . import tables, traces

__all__ = [
    "RunConfig",
    "TraversalRun",
    "calibrate_worker_memory",
    "run_pagerank",
    "run_traversal",
    "BENCH_SCALE",
    "ELASTIC_SWATH",
    "MEMORY_HEADROOM",
    "PAPER_BASE_SWATH",
    "PAPER_ROOTS",
    "TARGET_FRACTION",
    "TraversalScenario",
    "bc_scenario",
    "paper_partitioners",
    "Extrapolation",
    "extrapolate_runtime",
    "tables",
    "traces",
]

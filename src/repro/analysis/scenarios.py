"""Canonical paper-reproduction scenarios shared by benches and examples.

Each scenario fixes everything the corresponding figure's experiment fixed:
dataset analogue and scale, algorithm, root subset, worker count, cost
model (the scaled regime — see
:data:`~repro.cloud.costmodel.SCALED_PERF_MODEL`), and the memory-capacity
calibration that maps the paper's 7 GB-physical / 6 GB-target / baseline-
spills setup onto our analogue sizes:

* worker capacity = (peak footprint of the paper's baseline swath) / 1.35,
  i.e. the baseline single swath overflows physical memory by ~35% — it
  thrashes virtual memory but stays below the fabric-restart threshold,
  exactly the paper's "largest swath that completes";
* heuristic target = 6/7 of capacity (the paper's 6 GB of 7 GB).

Roots per graph follow §VII: 75 roots for WG, 50 for CP (we default to the
paper's baseline swath sizes 40/25 for Fig. 4 runs, which used those).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..cloud.costmodel import SCALED_PERF_MODEL
from ..graph import datasets
from ..graph.csr import CSRGraph
from ..partition.base import Partitioner
from ..partition.hashing import HashPartitioner
from ..partition.metis import MultilevelPartitioner
from ..partition.streaming import StreamingGreedy
from .runner import RunConfig, calibrate_worker_memory

__all__ = [
    "TraversalScenario",
    "bc_scenario",
    "paper_partitioners",
    "PAPER_BASE_SWATH",
    "PAPER_ROOTS",
    "ELASTIC_SWATH",
]


def paper_partitioners(seed: int = 1) -> dict[str, Partitioner]:
    """The three §VII partitioning strategies, tuned as the benches use them.

    * ``Hash`` — the paper's default (scrambled id hash).
    * ``METIS`` — our multilevel partitioner; 15% imbalance slack trades a
      little balance for a much lower cut, as METIS's own defaults do.
    * ``Streaming`` — Stanton–Kliot linear-weighted deterministic greedy,
      random stream order.
    """
    return {
        "Hash": HashPartitioner(),
        "METIS": MultilevelPartitioner(seed=seed, imbalance=1.15, refine_passes=12),
        "Streaming": StreamingGreedy(order="random", seed=seed),
    }

#: §VI-B: the largest single swath that completed on 8 workers.
PAPER_BASE_SWATH = {"WG": 40, "CP": 25}
#: §VII: root-subset sizes used for the partitioning experiments.
PAPER_ROOTS = {"WG": 75, "CP": 50}
#: §VIII: fixed swath sizes for the elastic-scaling runs at BENCH_SCALE,
#: chosen so peak supersteps spill at 4 workers but fit at 8 — the
#: memory-relief mechanism behind the paper's superlinear per-superstep
#: speedups (Fig. 15).
ELASTIC_SWATH = {"WG": 17, "CP": 10}

#: Baseline-overflow factor used for memory calibration (see module doc).
MEMORY_HEADROOM = 1.35
#: Heuristic memory target as a fraction of physical capacity (6 GB / 7 GB).
TARGET_FRACTION = 6.0 / 7.0

#: Default dataset scale for benchmarks: small enough for seconds-long
#: runs, large enough for the small-world shapes to be unmistakable.
BENCH_SCALE = 0.3


@dataclass(frozen=True)
class TraversalScenario:
    """A fully-calibrated BC/APSP experiment setup."""

    dataset: str
    graph: CSRGraph
    roots: tuple[int, ...]
    base_swath: int
    capacity_bytes: int
    target_bytes: int
    num_workers: int
    kind: str
    scale: float

    def config(self, num_workers: int | None = None) -> RunConfig:
        cfg = RunConfig(
            num_workers=num_workers or self.num_workers,
            perf_model=SCALED_PERF_MODEL,
        )
        return cfg.with_memory(self.capacity_bytes)

    def unconstrained_config(self, num_workers: int | None = None) -> RunConfig:
        """Same cluster with effectively unlimited worker memory."""
        cfg = RunConfig(
            num_workers=num_workers or self.num_workers,
            perf_model=SCALED_PERF_MODEL,
        )
        return cfg.with_memory(1 << 62)

    @property
    def elastic_swath(self) -> int:
        """Fixed swath size for §VIII runs: :data:`ELASTIC_SWATH` at
        ``BENCH_SCALE``, where it was chosen; half the baseline swath at
        any other scale or dataset."""
        if self.scale == BENCH_SCALE and self.dataset in ELASTIC_SWATH:
            return ELASTIC_SWATH[self.dataset]
        return self.base_swath // 2


@lru_cache(maxsize=None)
def bc_scenario(
    dataset: str = "WG",
    scale: float = BENCH_SCALE,
    num_workers: int = 8,
    num_roots: int | None = None,
    kind: str = "bc",
) -> TraversalScenario:
    """Build (and cache) the calibrated scenario for a dataset analogue.

    Calibration runs the paper-baseline swath once on unconstrained memory
    to find its peak footprint; that probe is cheap at bench scales.
    """
    graph = datasets.load(dataset, scale=scale)
    base_swath = PAPER_BASE_SWATH.get(dataset, 40)
    n_roots = num_roots if num_roots is not None else base_swath
    if n_roots > graph.num_vertices:
        raise ValueError("more roots than vertices")
    roots = tuple(range(n_roots))
    cal_cfg = RunConfig(num_workers=num_workers, perf_model=SCALED_PERF_MODEL)
    capacity = calibrate_worker_memory(
        graph,
        cal_cfg,
        roots[:base_swath],
        kind=kind,
        headroom=MEMORY_HEADROOM,
    )
    return TraversalScenario(
        dataset=dataset,
        graph=graph,
        roots=roots,
        base_swath=base_swath,
        capacity_bytes=capacity,
        target_bytes=int(capacity * TARGET_FRACTION),
        num_workers=num_workers,
        kind=kind,
        scale=scale,
    )

"""The four workloads of the benchmark of record.

A workload fixes everything about one job except the seed: graph family
and size, algorithm, engine, worker count, partitioner, scheduling
heuristics and cost model.  ``prepare`` (untimed, run by the harness
parent) turns the seed into input files; the measured program — the
rounds in :mod:`bench.child` — receives only those files, never the seed
or the workload's name.

Each workload also carries the constants its metrics are normalised by:
the logical message count (``msgs_per_s = logical_messages / run_s``) and
the expected superstep count the output check enforces.  Why each one was
chosen is recorded in ``BENCHMARK.json`` and ``bench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.algorithms.bc import BCProgram, start_messages
from repro.algorithms.pagerank import PageRankProgram
from repro.algorithms.reference import betweenness_reference, pagerank_reference
from repro.analysis.runner import RunConfig, run_traversal
from repro.analysis.scenarios import (
    MEMORY_HEADROOM,
    TARGET_FRACTION,
    paper_partitioners,
)
from repro.bsp.dense_ref import DenseRefEngine
from repro.bsp.engine import BSPEngine
from repro.bsp.job import JobSpec
from repro.cloud.costmodel import SCALED_PERF_MODEL
from repro.cloud.specs import scaled_large
from repro.graph import datasets, generators
from repro.graph.io import write_edge_list
from repro.net.engine import TcpBSPEngine
from repro.partition.hashing import HashPartitioner
from repro.scheduling.controller import SwathController
from repro.scheduling.initiation import DynamicPeakDetect
from repro.scheduling.sizing import AdaptiveSizer

__all__ = ["WORKLOADS", "Workload", "Sinks"]


@dataclass
class Sinks:
    """The program's own telemetry slots (all None in untraced rounds)."""

    tracer: Any = None
    metrics: Any = None
    timeline: Any = None
    flight: Any = None

    def job_kwargs(self) -> dict:
        return dict(vars(self))


class Workload:
    """One benchmark workload; see the module docstring."""

    name: str
    #: which engine family runs it: "sim", "dense" or "tcp"
    engine: str
    num_workers: int
    #: a payload of the shape this workload's messages have, for the
    #: isolated ``PartitionWorker.emit`` timing
    sample_payload: Any
    #: tolerance of the output check against the sequential reference
    tolerance = 1e-9

    def generate(self, seed: int, quick: bool):
        """The input graph for ``seed`` (``quick``: about a tenth the work)."""
        raise NotImplementedError

    def reference(self, graph, quick: bool) -> np.ndarray:
        raise NotImplementedError

    def define(self, graph, quick: bool) -> dict:
        """Workload constants that depend on the generated graph."""
        raise NotImplementedError

    def prepare(self, seed: int, quick: bool, workdir: Path) -> dict:
        """Generate inputs from ``seed`` into ``workdir``; returns the
        JSON-able definition the rounds and the result record carry."""
        graph = self.generate(seed, quick)
        graph_path = workdir / "graph.txt"
        write_edge_list(graph, graph_path)
        reference_path = workdir / "reference.npy"
        np.save(reference_path, self.reference(graph, quick))
        return {
            "graph": graph.name,
            "vertices": int(graph.num_vertices),
            "arcs": int(graph.num_arcs),
            "graph_path": str(graph_path),
            "graph_mb": graph_path.stat().st_size / 1e6,
            "reference_path": str(reference_path),
            "engine": self.engine,
            "num_workers": self.num_workers,
            **self.define(graph, quick),
        }

    def partitioner(self):
        return HashPartitioner()

    def program(self, defn: dict):
        raise NotImplementedError

    def job(self, defn: dict, graph, partition, program, sinks: Sinks,
            observers: list) -> tuple[JobSpec, Any]:
        """Build the JobSpec; returns ``(job, swath controller or None)``."""
        job = JobSpec(
            program=program, graph=graph, num_workers=self.num_workers,
            partition=partition, observers=observers, **sinks.job_kwargs(),
        )
        return job, None

    def build_engine(self, job: JobSpec, plan):
        if self.engine == "dense":
            return DenseRefEngine(job, plan=plan)
        if self.engine == "tcp":
            # One daemon hosts every session: coordinator + one daemon is
            # all a 2-core host runs without the two sides time-slicing.
            return TcpBSPEngine(job, auto_daemons=1)
        return BSPEngine(job)

    def check_values(self, values: np.ndarray, reference: np.ndarray) -> str | None:
        """None when ``values`` match the reference, else what is wrong."""
        raise NotImplementedError


class PageRankWorkload(Workload):
    sample_payload = 1.0 / 64_000

    def __init__(self, name: str, engine: str, num_workers: int,
                 iterations: int, graph_fn, quick_iterations: int | None = None):
        self.name = name
        self.engine = engine
        self.num_workers = num_workers
        self.iterations = iterations
        self.quick_iterations = quick_iterations or iterations
        self.graph_fn = graph_fn

    def _iterations(self, quick: bool) -> int:
        return self.quick_iterations if quick else self.iterations

    def generate(self, seed: int, quick: bool):
        return self.graph_fn(seed, quick)

    def reference(self, graph, quick: bool) -> np.ndarray:
        return pagerank_reference(graph, iterations=self._iterations(quick))

    def define(self, graph, quick: bool) -> dict:
        iterations = self._iterations(quick)
        return {
            "algorithm": "pagerank",
            "iterations": iterations,
            "partitioner": "Hash",
            # one message along every arc in every iteration
            "logical_messages": int(graph.num_arcs) * iterations,
            "expected_supersteps": iterations + 1,
        }

    def program(self, defn: dict):
        return PageRankProgram(iterations=defn["iterations"])

    def check_values(self, values, reference):
        l1 = float(np.abs(values - reference).sum())
        if not l1 <= self.tolerance:
            return f"pagerank L1 distance to reference {l1:.3e} > {self.tolerance:g}"
        return None


class BCSwathWorkload(Workload):
    name = "bc_swath_sim"
    engine = "sim"
    num_workers = 4
    # a forward-wave message: (tag, root, depth, sigma, sender)
    sample_payload = (0, 3, 2, 5, 17)
    num_roots = 40

    def _roots(self, graph, quick: bool) -> list[int]:
        return list(range(8 if quick else self.num_roots))

    def generate(self, seed: int, quick: bool):
        return datasets.load("WG", scale=0.2 if quick else 2.0, seed=seed)

    def reference(self, graph, quick: bool) -> np.ndarray:
        return betweenness_reference(graph, self._roots(graph, quick))

    def define(self, graph, quick: bool) -> dict:
        # Memory calibration exactly as analysis.scenarios.bc_scenario does
        # it: one unconstrained single-swath run; capacity is its peak
        # footprint over MEMORY_HEADROOM.  The same run yields the logical
        # message count (BC has no combiner, and its traffic does not
        # depend on swath scheduling or partitioning).
        roots = self._roots(graph, quick)
        probe_cfg = RunConfig(
            num_workers=self.num_workers, perf_model=SCALED_PERF_MODEL
        ).with_memory(1 << 62)
        trace = run_traversal(graph, probe_cfg, roots, kind="bc").result.trace
        capacity = max(1, int(trace.peak_memory / MEMORY_HEADROOM))
        return {
            "algorithm": "bc",
            "roots": roots,
            "partitioner": "METIS",
            "sizer": "Adaptive",
            "initiation": "Dynamic",
            "capacity_bytes": capacity,
            "target_bytes": int(capacity * TARGET_FRACTION),
            "logical_messages": int(trace.total_messages),
            # set by swath scheduling; the harness requires every round to
            # agree with the first instead
            "expected_supersteps": None,
        }

    def partitioner(self):
        return paper_partitioners()["METIS"]

    def program(self, defn: dict):
        return BCProgram()

    def job(self, defn, graph, partition, program, sinks, observers):
        controller = SwathController(
            roots=defn["roots"],
            start_factory=start_messages,
            sizer=AdaptiveSizer(defn["target_bytes"]),
            initiation=DynamicPeakDetect(),
            metrics=sinks.metrics,
            timeline=sinks.timeline,
        )
        job = JobSpec(
            program=program, graph=graph, num_workers=self.num_workers,
            partition=partition,
            vm_spec=scaled_large(defn["capacity_bytes"]),
            perf_model=SCALED_PERF_MODEL,
            initially_active=False,
            max_supersteps=100_000,
            observers=[controller, *observers],
            **sinks.job_kwargs(),
        )
        return job, controller

    def check_values(self, values, reference):
        scale = max(1.0, float(np.abs(reference).max()))
        err = float(np.abs(values - reference).max()) / scale
        if not err <= self.tolerance:
            return f"betweenness relative error {err:.3e} > {self.tolerance:g}"
        return None


def _ws(n: int, quick_n: int):
    return lambda seed, quick: generators.watts_strogatz(
        quick_n if quick else n, 8, 0.1, seed=seed
    )


def _rmat(seed: int, quick: bool):
    return generators.rmat(scale=14 if quick else 17, edge_factor=8, seed=seed)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        BCSwathWorkload(),
        PageRankWorkload(
            "pr_sim",
            engine="sim", num_workers=4, iterations=20,
            graph_fn=_ws(8000, 800),
        ),
        PageRankWorkload(
            "pr_dense",
            engine="dense", num_workers=4, iterations=30,
            graph_fn=_rmat,
        ),
        PageRankWorkload(
            "pr_tcp_steps",
            engine="tcp", num_workers=2, iterations=600, quick_iterations=60,
            graph_fn=_ws(300, 300),
        ),
    )
}

"""Extension bench — host wall-clock of the sim and process backends.

The simulated-cloud clock is identical across backends by construction
(bit-equal results, same accounting); what differs is *host* wall-clock:

* **sequential** (``BSPEngine``) — the baseline interpreter loop;
* **process** (``repro.dist.ProcessBSPEngine``) — real worker processes,
  paying serialization per superstep, the Pregel.NET worker-per-VM shape
  (§III).

The measured times land in ``BENCH_engines.json`` so runs on different
hosts can be compared.
"""

import json
import time

from repro.algorithms import PageRankProgram
from repro.bsp import JobSpec, run_job
from repro.graph import generators as gen

from helpers import banner, run_once

ITERATIONS = 20
NUM_WORKERS = 4

#: report label -> run_job engine name
RUNNERS = {"sequential": "sim", "process": "process"}


def make_job(graph):
    return JobSpec(
        program=PageRankProgram(ITERATIONS), graph=graph,
        num_workers=NUM_WORKERS,
    )


def bench_graph():
    return gen.watts_strogatz(2000, 8, 0.1, seed=42)


def test_engines_wall_clock(benchmark):
    graph = bench_graph()
    results = {}
    wall = {}

    def run_all():
        for name, engine in RUNNERS.items():
            t0 = time.perf_counter()
            results[name] = run_job(make_job(graph), engine=engine)
            wall[name] = time.perf_counter() - t0
        return results["sequential"]

    run_once(benchmark, run_all)

    seq = results["sequential"]
    banner(
        f"Engine wall-clock: PageRank x{ITERATIONS}, "
        f"|V|={graph.num_vertices}, {NUM_WORKERS} workers"
    )
    print(f"{'engine':<12} {'host wall':>10} {'vs sequential':>14}")
    for name in RUNNERS:
        rel = wall[name] / wall["sequential"]
        print(f"{name:<12} {wall[name]:>9.3f}s {rel:>13.2f}x")

    # Same simulation regardless of backend.
    for name, res in results.items():
        assert res.values == seq.values, f"{name} diverged from sequential"
        assert res.total_time == seq.total_time

    payload = {
        "workload": {
            "app": "pagerank",
            "iterations": ITERATIONS,
            "num_vertices": graph.num_vertices,
            "num_workers": NUM_WORKERS,
        },
        "wall_clock_seconds": wall,
        "simulated_seconds": seq.total_time,
        "supersteps": seq.supersteps,
    }
    with open("BENCH_engines.json", "w") as f:
        json.dump(payload, f, indent=2)
    print("wrote BENCH_engines.json")

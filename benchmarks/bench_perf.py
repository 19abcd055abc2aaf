"""Extension bench — timeline recording overhead and detector precision.

Two claims behind ``repro trace report`` worth guarding numerically:

* attaching a :class:`repro.obs.RunTimeline` must be cheap (it appends
  one dataclass row per worker per superstep on quantities the engine
  already computed), and leaving it detached must cost nothing but an
  ``is None`` check per site;
* the straggler detector must attribute injected jitter to the injected
  worker — precision on a known-cause workload.

Numbers land in ``BENCH_perf.json`` for cross-revision comparison.
"""

import dataclasses
import json
import time

from repro.algorithms import PageRankProgram
from repro.bsp import JobSpec, run_job
from repro.cloud.costmodel import DEFAULT_PERF_MODEL
from repro.graph import generators as gen
from repro.obs import DiagnosticMonitor, RunTimeline
from repro.obs.diagnose import dominant_cause

from helpers import banner, run_once

#: alternate off/on runs, keep the fastest of each (interpreter noise)
REPEATS = 5
ITERATIONS = 20


def _job(graph, timeline=None, model=DEFAULT_PERF_MODEL, **kw):
    return JobSpec(
        program=PageRankProgram(ITERATIONS), graph=graph, num_workers=4,
        perf_model=model, timeline=timeline, **kw,
    )


def measure_overhead(graph):
    off, on = [], []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        run_job(_job(graph))
        off.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_job(_job(graph, timeline=RunTimeline()))
        on.append(time.perf_counter() - t0)
    return min(off), min(on)


def measure_precision(graph, seeds=range(6), target=2):
    """Fraction of flags landing on the jittered worker with the jitter
    cause, over several jitter seeds."""
    hits = total = 0
    for seed in seeds:
        model = dataclasses.replace(
            DEFAULT_PERF_MODEL, jitter=0.6, jitter_seed=seed,
            jitter_workers=(target,),
        )
        monitor = DiagnosticMonitor()
        run_job(_job(graph, model=model, observers=[monitor]))
        total += len(monitor.flags)
        hits += sum(
            f.worker == target and f.cause == "jitter"
            for f in monitor.flags
        )
        assert monitor.flags, f"seed {seed}: 0.6 jitter must flag"
        assert dominant_cause(monitor.flags)[0] == "jitter"
    return hits / total if total else 0.0


def test_timeline_overhead_and_detector_precision(benchmark):
    graph = gen.watts_strogatz(2000, 8, 0.1, seed=1)

    def run_all():
        return measure_overhead(graph), measure_precision(graph)

    (off_s, on_s), precision = run_once(benchmark, run_all)
    overhead = on_s / off_s - 1.0

    banner("repro trace: timeline overhead + straggler detector precision")
    print(f"{'timeline off':<18} {off_s * 1e3:>10.1f} ms")
    print(f"{'timeline on':<18} {on_s * 1e3:>10.1f} ms  ({overhead:+.1%})")
    print(f"{'precision':<18} {precision:>10.1%}")

    # Recording rides quantities the engine already computed; anything
    # past a few percent means a hot path grew work.  Generous bound so
    # shared-runner noise doesn't flap CI.
    assert overhead < 0.15, f"timeline recording cost {overhead:.1%}"
    # Injected jitter on a balanced graph must dominate the flags.
    assert precision >= 0.8, f"detector precision {precision:.1%}"

    payload = {
        "workload": {
            "graph": "watts_strogatz(2000, 8, 0.1)",
            "iterations": ITERATIONS,
            "workers": 4,
            "repeats": REPEATS,
        },
        "timeline_off_seconds": off_s,
        "timeline_on_seconds": on_s,
        "overhead_fraction": overhead,
        "detector_precision": precision,
    }
    with open("BENCH_perf.json", "w") as f:
        json.dump(payload, f, indent=2)
    print("wrote BENCH_perf.json")

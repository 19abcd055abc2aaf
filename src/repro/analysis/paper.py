"""The paper's evaluation: one function per table or figure, and one per
ablation or extension record beyond the paper.

Each function returns a :class:`Figure`: its rows of simulated numbers,
the paper's claim, and ``check``, every ordering and band the
reproduction asserts about those rows.  Experiments that several figures
read (swath sizing, swath initiation, the three partitioners, the same
job on 4 and 8 workers, PageRank on LJ) are functions of their own whose
results the figures take as inputs, so :func:`figures` runs each of them
once.

``python -m repro report`` runs :func:`figures` at ``BENCH_SCALE``,
rewrites the generated blocks of EXPERIMENTS.md (between
``<!-- begin KEY -->`` and ``<!-- end KEY -->``) and writes every number,
at full precision, to ``tests/paper/golden.json``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from ..algorithms import DiameterEstimationProgram, PageRankProgram
from ..bsp import JobResult, JobSpec, run_job
from ..cloud import scaled_large, spot_failure_schedule, spot_price
from ..cloud.costmodel import SCALED_PERF_MODEL
from ..elastic import (
    ActiveFractionPolicy,
    AlignedTraces,
    ElasticityModel,
    ElasticResizer,
    FixedWorkers,
    OraclePolicy,
    normalize_outcomes,
)
from ..graph import CSRGraph, datasets, summarize
from ..graph.properties import distance_profile
from ..partition import (
    FennelPartitioner,
    HashPartitioner,
    Partitioner,
    PartitioningAdvisor,
    SpectralPartitioner,
    StreamingGreedy,
    balance,
    remote_edge_fraction,
)
from ..partition.dynamic import DynamicRepartitioner
from ..scheduling import (
    AdaptiveSizer,
    DynamicPeakDetect,
    SamplingSizer,
    SequentialInitiation,
    StaticEveryN,
    StaticSizer,
)
from .extrapolate import extrapolate_runtime
from .runner import RunConfig, TraversalRun, run_pagerank, run_traversal
from .scenarios import BENCH_SCALE, TraversalScenario, bc_scenario, paper_partitioners
from .tables import sparkline

__all__ = [
    "Figure", "figures", "table1", "fig02", "fig03", "fig04", "fig05",
    "fig06", "fig07", "fig08", "fig09_12", "fig10_14", "fig15", "fig16",
    "ablation_costmodel", "ablation_combiners", "live_elastic", "advisor",
    "multitenancy", "execution_modes", "spot_market", "partitioner_generations",
    "scalability", "generalization_apsp", "dynamic_repartitioning",
    "sizing_runs", "initiation_runs", "partition_run", "partition_runs",
    "pagerank_run", "elastic_runs", "elastic_traces", "golden", "compare",
    "markdown", "render_experiments", "report",
]

Scenarios = dict[str, TraversalScenario]
#: One scenario's Figs. 8-14 runs: partitioner -> app -> result.
PartitionRuns = dict[str, dict[str, JobResult]]

#: Fig. 2: roots run per traversal before extrapolating to all |V| (§V).
FIG2_ROOTS = 20
#: Fig. 3: the paper's single swath of 7 roots.
FIG3_SWATH = 7
#: Figs. 8-14: root subsets of the partitioning runs, swaths of 10.
PARTITION_ROOTS = {"WG": 30, "CP": 25}
ELASTIC_POLICIES = [
    FixedWorkers(4), FixedWorkers(8), ActiveFractionPolicy(0.5), OraclePolicy(),
]
DYNAMIC = "Dynamic(50% of peak)"
#: Fig. 16 extension: per-event provisioning delays swept (drain = 1/9).
PROVISION_DELAYS = (0.0, 0.5, 2.0, 5.0, 10.0, 30.0)


@dataclass(frozen=True)
class Figure:
    """One table or figure of the paper, reproduced."""

    #: names the EXPERIMENTS.md block and the golden-file entry
    key: str
    #: what the paper reports
    claim: str
    #: row label -> column -> simulated number (a series is an array)
    rows: dict[str, dict[str, Any]]
    #: each ordering or band asserted about the rows -> whether it holds
    check: dict[str, bool]

    def failures(self) -> list[str]:
        return [name for name, ok in self.check.items() if not ok]


def _ascending(rows, labels, col) -> bool:
    return all(rows[a][col] < rows[b][col] for a, b in zip(labels, labels[1:]))


# ---------------------------------------------------------------------------
# Experiments that several figures read
# ---------------------------------------------------------------------------
def _unconstrained(num_workers: int = 8, **kw) -> RunConfig:
    """``num_workers`` workers with effectively unlimited memory; ``kw``
    (a partitioner, another perf model) overrides the rest."""
    kw.setdefault("perf_model", SCALED_PERF_MODEL)
    return RunConfig(num_workers=num_workers, **kw).with_memory(1 << 62)


def _swaths_of_10(graph, cfg, roots, kind="bc", observers=()) -> JobResult:
    """Figs. 8-14's traversal: ``roots`` in fixed swaths of 10."""
    return run_traversal(
        graph, cfg, roots, kind=kind, sizer=StaticSizer(10),
        extra_observers=observers,
    ).result


def _overlap_swath(sc: TraversalScenario) -> int:
    """Figs. 6-7: the fixed swath size the initiation policies overlap."""
    return max(2, sc.base_swath // 4)


def sizing_runs(sc: TraversalScenario) -> dict[str, TraversalRun]:
    """Figs. 4-5: the largest single swath against the sizing heuristics."""
    roots = sc.roots[: sc.base_swath]

    def run(cfg, sizer):
        return run_traversal(sc.graph, cfg, roots, kind=sc.kind, sizer=sizer)

    return {
        "baseline": run(sc.config(), StaticSizer(sc.base_swath)),
        "sampling-8w": run(sc.config(), SamplingSizer(sc.target_bytes)),
        "adaptive-8w": run(sc.config(), AdaptiveSizer(sc.target_bytes)),
        "adaptive-4w": run(sc.config(num_workers=4), AdaptiveSizer(sc.target_bytes)),
    }


def initiation_runs(sc: TraversalScenario) -> dict[str, TraversalRun]:
    """Figs. 6-7: when the next swath starts, at a fixed swath size."""
    policies = {
        "Sequential": SequentialInitiation(),
        "Static-2": StaticEveryN(2),
        "Static-4": StaticEveryN(4),
        "Static-6": StaticEveryN(6),
        "Static-8": StaticEveryN(8),
        "Dynamic": DynamicPeakDetect(),
    }
    return {
        name: run_traversal(
            sc.graph, sc.config(), sc.roots[: sc.base_swath], kind=sc.kind,
            sizer=StaticSizer(_overlap_swath(sc)), initiation=policy,
        )
        for name, policy in policies.items()
    }


def partition_run(
    sc: TraversalScenario, part: Partitioner, app: str,
    perf_model=SCALED_PERF_MODEL, observers=(),
) -> JobResult:
    """One of Figs. 8-14's jobs: ``app`` (PageRank, BC or APSP) under
    ``part``, the scenario's workers, memory unconstrained; a traversal
    runs PARTITION_ROOTS in swaths of 10."""
    cfg = replace(sc.unconstrained_config(), partitioner=part, perf_model=perf_model)
    if app == "PageRank":
        return run_pagerank(sc.graph, cfg, iterations=30)
    return _swaths_of_10(
        sc.graph, cfg, range(PARTITION_ROOTS[sc.dataset]), kind=app.lower(),
        observers=observers)


def partition_runs(sc: TraversalScenario) -> PartitionRuns:
    """Figs. 8-14: PageRank, BC and APSP under each §VII partitioner."""
    return {
        name: {app: partition_run(sc, part, app) for app in ("PageRank", "BC", "APSP")}
        for name, part in paper_partitioners().items()
    }


def pagerank_run(graph: CSRGraph) -> JobResult:
    """Fig. 2's LJ PageRank bar and the combiner ablation: 30 iterations on
    8 workers, memory unconstrained (on WG and CP that job is
    :func:`partition_runs`' Hash PageRank)."""
    return run_pagerank(graph, _unconstrained(), iterations=30)


def elastic_runs(sc: TraversalScenario) -> dict[int, JobResult]:
    """Figs. 15-16 and the live-elastic record: one job on 4 and on 8
    workers with fixed swaths of ``sc.elastic_swath`` roots (one that
    spills at 4 workers but fits at 8)."""
    return {
        w: run_traversal(
            sc.graph, sc.config(num_workers=w), sc.roots[: sc.base_swath],
            kind=sc.kind, sizer=StaticSizer(sc.elastic_swath),
            initiation=SequentialInitiation(),
        ).result
        for w in (4, 8)
    }


def elastic_traces(
    sc: TraversalScenario, runs: dict[int, JobResult]
) -> AlignedTraces:
    """:func:`elastic_runs`' two traces, superstep-aligned."""
    return AlignedTraces.from_traces(
        runs[4].trace, runs[8].trace, 4, 8, sc.graph.num_vertices)


# ---------------------------------------------------------------------------
# Tables and figures
# ---------------------------------------------------------------------------
def table1(graphs: dict[str, CSRGraph]) -> Figure:
    """Table 1: the dataset analogues, measured offline and by the engine's
    own multi-source BFS (DiameterEstimationProgram), over the same 48
    sources."""
    rows, check = {}, {}
    for key, g in graphs.items():
        s = summarize(g, sample=48)
        rng = np.random.default_rng(0)
        sources = rng.choice(g.num_vertices, size=48, replace=False)
        prog = DiameterEstimationProgram(sources)
        run_job(JobSpec(program=prog, graph=g, num_workers=4))
        ref = distance_profile(g, sources=sources)
        ours = np.zeros(len(ref), dtype=np.int64)
        for d, c in prog.histogram.items():
            ours[d] = c
        rows[key] = {
            "vertices": s.num_vertices, "edges": s.num_edges,
            "diam90": s.effective_diameter_90,
            "engine_diam90": prog.effective_diameter(),
        }
        check[f"{key}: engine distance histogram == offline BFS"] = (
            np.array_equal(ours, ref))
    by_size, by_diameter = ("SD", "WG", "CP", "LJ"), ("SD", "LJ", "WG", "CP")
    check["|V|: SD < WG < CP < LJ"] = _ascending(rows, by_size, "vertices")
    check["90% diameter: SD < LJ < WG < CP"] = _ascending(rows, by_diameter, "diam90")
    check["engine-measured 90% diameter: SD < LJ < WG < CP"] = _ascending(
        rows, by_diameter, "engine_diam90")
    return Figure(
        "table1",
        "|V| / |E| / 90% effective diameter: SD 82,168 / 948,464 / 4.7, "
        "WG 875,713 / 5,105,039 / 8.1, CP 3,774,768 / 16,518,948 / 9.4, "
        "LJ 4,847,571 / 68,993,773 / 6.5.",
        rows, check,
    )


def fig02(scenarios: Scenarios, pagerank: dict[str, JobResult]) -> Figure:
    """Fig. 2: total time of PageRank, APSP and BC on 8 workers; BC/APSP
    extrapolated from FIG2_ROOTS roots (§V); LJ for PageRank only.
    ``pagerank`` holds each dataset's PageRank job, LJ's too."""
    rows, check = {}, {}
    for ds, sc in scenarios.items():
        cfg = sc.unconstrained_config()
        pr = pagerank[ds].total_time
        rows[f"{ds} PageRank"] = {"time_s": pr}
        for kind, app in (("apsp", "APSP"), ("bc", "BC")):
            t = run_traversal(sc.graph, cfg, range(FIG2_ROOTS), kind=kind).total_time
            t = extrapolate_runtime(
                t, FIG2_ROOTS, sc.graph.num_vertices).projected_seconds
            rows[f"{ds} {app}"] = {"time_s": t, "x_pagerank": t / pr}
        bc, apsp = rows[f"{ds} BC"]["time_s"], rows[f"{ds} APSP"]["time_s"]
        check[f"{ds}: BC > APSP > 5 × PageRank"] = bc > apsp > 5 * pr
        check[f"{ds}: BC > 25 × PageRank"] = bc > 25 * pr
    rows["LJ PageRank"] = {"time_s": pagerank["LJ"].total_time}
    return Figure(
        "fig02",
        "BC and APSP take ~4 orders of magnitude longer than PageRank on WG and "
        "CP (the gap scales with |V|); LJ runs PageRank only, BC/APSP do not "
        "fit worker memory.",
        rows, check,
    )


def fig03(sc: TraversalScenario, pagerank: JobResult) -> Figure:
    """Fig. 3: messages per superstep on WG, 8 workers, one swath of 7;
    ``pagerank`` is Fig. 2's WG PageRank job."""
    cfg = sc.unconstrained_config()
    msgs = {"PageRank": pagerank.trace.series_messages()}
    for kind, app in (("bc", "BC"), ("apsp", "APSP")):
        run = run_traversal(sc.graph, cfg, range(FIG3_SWATH), kind=kind)
        msgs[app] = run.result.trace.series_messages()
    per = {app: m / cfg.num_workers for app, m in msgs.items()}
    steady = per["PageRank"][1:-1]
    check = {"PageRank: steady supersteps flat, std/mean < 0.01":
             steady.std() / steady.mean() < 0.01}
    for app in ("BC", "APSP"):
        s = per[app]
        check[f"{app}: peak strictly inside the run"] = (
            0 < int(np.argmax(s)) < len(s) - 1)
        check[f"{app}: peak > 5 × max(first, last, 1) msgs/worker"] = (
            s.max() > 5 * max(s[0], s[-1], 1))
    check["BC peak > APSP peak"] = per["BC"].max() > per["APSP"].max()
    return Figure(
        "fig03",
        "PageRank sends a flat ~637k messages per worker per superstep for 30 "
        "supersteps; BC and APSP draw a triangle waveform, peaking at 4.7M "
        "and 3M for one swath of 7 roots.",
        {app: {"msgs": m} for app, m in msgs.items()}, check,
    )


def fig04(
    scenarios: Scenarios, sizing: dict[str, dict[str, TraversalRun]]
) -> Figure:
    """Fig. 4: swath-size heuristics against the largest single swath."""
    rows, check = {}, {}
    for ds, sc in scenarios.items():
        runs = sizing[ds]
        base = runs["baseline"].total_time
        for name, run in runs.items():
            peak = run.result.trace.peak_memory
            rows[f"{ds} {name}"] = {
                "time_s": run.total_time, "speedup": base / run.total_time,
                "swaths": run.num_swaths, "peak_bytes": peak,
                "peak_frac": peak / sc.capacity_bytes,
            }
        check[f"{ds}: baseline peak > physical"] = (
            rows[f"{ds} baseline"]["peak_bytes"] > sc.capacity_bytes)
        for name in ("sampling-8w", "adaptive-8w"):
            row = rows[f"{ds} {name}"]
            check[f"{ds} {name}: 1.8 < speedup < 6.0"] = (
                1.8 < row["speedup"] < 6.0)
            check[f"{ds} {name}: peak ≤ 1.05 × physical"] = (
                row["peak_bytes"] <= 1.05 * sc.capacity_bytes)
        check[f"{ds}: adaptive-4w faster than the 8-worker baseline"] = (
            rows[f"{ds} adaptive-4w"]["time_s"] < base)
    return Figure(
        "fig04",
        "The baseline is the largest single swath that completes (40 roots on "
        "WG, 25 on CP), spilling to virtual memory. Sampling reaches ~2.5-3× "
        "speedup, adaptive up to 3.5×; adaptive on 4 workers takes about "
        "two-thirds of the 8-worker baseline's time (§VI-B).",
        rows, check,
    )


def fig05(sc: TraversalScenario, runs: dict[str, TraversalRun]) -> Figure:
    """Fig. 5: per-superstep peak worker memory of Fig. 4's WG runs."""
    cap, target = sc.capacity_bytes, sc.target_bytes
    rows = {}
    for name in ("baseline", "sampling-8w", "adaptive-8w"):
        mem = runs[name].result.trace.series_peak_memory()
        rows[name] = {
            "peak_mem": mem, "peak_frac": mem.max() / cap,
            "steps_over_target": int(np.count_nonzero(mem > target)),
        }
    base, samp, adap = (rows[n]["peak_mem"].max() for n in rows)
    check = {
        "baseline peak > physical": base > cap,
        "adaptive peak ≤ 1.05 × target": adap <= 1.05 * target,
        "sampling peak ≤ 1.05 × target": samp <= 1.05 * target,
        "adaptive peak ≥ 0.95 × sampling peak": adap >= 0.95 * samp,
        "adaptive peak > 0.5 × target": adap > 0.5 * target,
    }
    return Figure(
        "fig05",
        "On WG the baseline swath flat-lines at the 7 GB physical ceiling; "
        "adaptive hugs the 6 GB target; sampling stays close to it, less "
        "consistently.",
        rows, check,
    )


def fig06(
    scenarios: Scenarios, initiation: dict[str, dict[str, TraversalRun]]
) -> Figure:
    """Fig. 6: swath-initiation heuristics against sequential initiation."""
    rows, check = {}, {}
    for ds, sc in scenarios.items():
        runs = initiation[ds]
        base = runs["Sequential"].total_time
        for name, run in runs.items():
            rows[f"{ds} {name}"] = {
                "time_s": run.total_time, "speedup": base / run.total_time,
                "supersteps": run.result.supersteps,
                "peak_frac": run.result.trace.peak_memory / sc.capacity_bytes,
            }
        r = {name: rows[f"{ds} {name}"] for name in runs}
        check[f"{ds}: Dynamic speedup > 1.1"] = r["Dynamic"]["speedup"] > 1.1
        check[f"{ds}: Dynamic takes fewer supersteps than Sequential"] = (
            r["Dynamic"]["supersteps"] < r["Sequential"]["supersteps"])
        check[f"{ds}: Static-8 slower than Static-4"] = (
            r["Static-8"]["time_s"] > r["Static-4"]["time_s"])
    return Figure(
        "fig06",
        "Overlapping swaths removes tail supersteps. Static-N depends on graph "
        "and N (N=4 best on CP, Static-6 hand-picked on WG); Dynamic reaches "
        "up to 24% speedup on WG with no tuning.",
        rows, check,
    )


def fig07(runs: dict[str, TraversalRun]) -> Figure:
    """Fig. 7: messages per superstep of Fig. 6's WG runs.  flatness is
    mean/peak; idle_frac the share of supersteps under 5% of the peak."""
    rows = {}
    for name in ("Sequential", "Static-6", "Dynamic"):
        s = runs[name].result.trace.series_messages()
        f = s.astype(float)
        rows[name] = {
            "msgs": s,
            "flatness": float(f.mean() / f.max()),
            "idle_frac": float(np.count_nonzero(f < 0.05 * f.max()) / len(f)),
        }
    seq, check = rows["Sequential"], {}
    for name in ("Static-6", "Dynamic"):
        check[f"{name} flatter than Sequential"] = (
            rows[name]["flatness"] > seq["flatness"])
    for name in ("Static-6", "Dynamic"):
        check[f"{name} idle_frac ≤ Sequential's"] = (
            rows[name]["idle_frac"] <= seq["idle_frac"])
    return Figure(
        "fig07",
        "Sequential initiation peaks and falls to zero again and again; "
        "Static-6 sustains the highest message rate; Dynamic is slightly more "
        "conservative but automated. Flatter is better.",
        rows, check,
    )


def fig08(scenarios: Scenarios, parts: dict[str, PartitionRuns]) -> Figure:
    """Fig. 8: runtime under METIS and Streaming relative to Hash, with each
    partition's remote-edge fraction; plus §VII's BC on WG with the swath
    heuristics on.  Takes WG and CP."""
    rows, check = {}, {}
    for ds, sc in scenarios.items():
        for name, part in paper_partitioners().items():
            remote = remote_edge_fraction(sc.graph, part.partition(sc.graph, 8))
            row = rows[f"{ds} {name}"] = {"remote_frac": remote}
            for app, res in parts[ds][name].items():
                row[f"{app}_s"] = res.total_time
                row[f"{app}_x"] = res.total_time / parts[ds]["Hash"][app].total_time
        check[f"{ds} remote edges: METIS < Streaming < Hash"] = _ascending(
            rows, (f"{ds} METIS", f"{ds} Streaming", f"{ds} Hash"), "remote_frac")
    for app in ("PageRank", "BC", "APSP"):
        check[f"WG {app}: METIS / Hash < 0.85"] = (
            rows["WG METIS"][f"{app}_x"] < 0.85)
    check["CP BC: METIS / Hash > 0.9"] = rows["CP METIS"]["BC_x"] > 0.9
    check["CP APSP: METIS slower than Hash"] = (
        rows["CP METIS"]["APSP_s"] > rows["CP Hash"]["APSP_s"])

    wg, on = scenarios["WG"], {}
    for name, part in paper_partitioners().items():
        cfg = replace(wg.config(), partitioner=part)
        on[name] = run_traversal(
            wg.graph, cfg, wg.roots[: wg.base_swath], kind=wg.kind,
            sizer=AdaptiveSizer(wg.target_bytes), initiation=DynamicPeakDetect(),
        ).total_time
    for name, t in on.items():
        rows[f"WG {name}, heuristics on"] = {"BC_s": t, "BC_x": t / on["Hash"]}
    check["WG BC, heuristics on: METIS / Hash < 0.8"] = on["METIS"] / on["Hash"] < 0.8
    return Figure(
        "fig08",
        "Remote edges Hash/METIS/Streaming: 87/18/35% on WG, 86/17/65% on CP. "
        "WG improves ~42-50% with METIS and 24-35% with Streaming; CP shows no "
        "marked improvement for BC/APSP (superstep imbalance cancels it) and "
        "Hash beats METIS for APSP on CP. With the swath heuristics on, METIS "
        "is up to ~5× faster than Hash on WG BC (§VII).",
        rows, check,
    )


def fig09_12(parts: dict[str, PartitionRuns]) -> Figure:
    """Figs. 9 and 12: Fig. 8's BC runs split into compute+I/O and barrier
    wait; utilization = compute+I/O over allocated time.  Takes WG and CP."""
    rows = {
        f"{ds} {name}": runs["BC"].trace.breakdown()
        for ds, by_part in parts.items() for name, runs in by_part.items()
    }
    check = {}
    for ds in parts:
        h, m = rows[f"{ds} Hash"], rows[f"{ds} METIS"]
        check[f"{ds}: Hash utilization > METIS"] = (
            h["utilization"] > m["utilization"])
        check[f"{ds}: METIS barrier-wait share > Hash"] = (
            m["barrier_wait"] / m["total"] > h["barrier_wait"] / h["total"])
    check["WG: METIS total < Hash total"] = (
        rows["WG METIS"]["total"] < rows["WG Hash"]["total"])
    return Figure(
        "fig09_12",
        "On WG (Fig. 9) and CP (Fig. 12) Hash has the highest VM utilization "
        "yet the highest total time; METIS the inverse, its workers idling at "
        "the barrier.",
        rows, check,
    )


def fig10_14(parts: dict[str, PartitionRuns]) -> Figure:
    """Figs. 10, 11, 13, 14: per-worker messages in the 4 busiest
    supersteps of Fig. 8's BC runs under Hash and METIS.  Takes WG and CP."""
    rows, imb, mean = {}, {}, {}
    for ds, by_part in parts.items():
        for name in ("Hash", "METIS"):
            trace = by_part[name]["BC"].trace
            busiest = np.argsort(trace.series_messages())[-4:][::-1]
            imb[ds, name] = []
            for i in sorted(int(j) for j in busiest):
                per = trace[i].messages_per_worker
                row = rows[f"{ds} {name} superstep {i}"] = {
                    f"W{w}": int(v) for w, v in enumerate(per)}
                row["max_over_mean"] = float(per.max() / per.mean())
                imb[ds, name].append(row["max_over_mean"])
            mean[ds, name] = float(np.mean(imb[ds, name]))
            rows[f"{ds} {name}, mean of the 4"] = {"max_over_mean": mean[ds, name]}
    check = {
        f"{ds} Hash: mean max/mean < 1.45": mean[ds, "Hash"] < 1.45 for ds in parts}
    cp = mean["CP", "METIS"]
    check["CP METIS mean max/mean > 1.25 × CP Hash's"] = (
        cp > 1.25 * mean["CP", "Hash"])
    check["CP METIS mean max/mean > 1.25 × WG METIS's"] = (
        cp > 1.25 * mean["WG", "METIS"])
    check["CP METIS worst superstep max/mean > 1.7"] = max(imb["CP", "METIS"]) > 1.7
    return Figure(
        "fig10_14",
        "Hash spreads messages roughly evenly over the 8 workers (Figs. 10, "
        "13); METIS skews them, mildly on WG (Fig. 11), strongly on CP "
        "(Fig. 14), where one worker sends ~2× another's in superstep 9.",
        rows, check,
    )


def fig15(traces: dict[str, AlignedTraces]) -> Figure:
    """Fig. 15: per-superstep speedup of 8 over 4 workers, active vertices."""
    rows, check = {}, {}
    for ds, t in traces.items():
        model = ElasticityModel(t)
        sp, active = model.speedup_series(), model.active_series()
        rows[ds] = {
            "speedup": sp, "active": active,
            "superlinear_steps": int((sp > 2).sum()),
            "below_1x_steps": int((sp < 1).sum()),
        }
        check[f"{ds}: max speedup > 2"] = sp.max() > 2.0
        check[f"{ds}: min speedup < 1"] = sp.min() < 1.0
        top = sp >= np.percentile(sp, 90)
        check[f"{ds}: top-decile-speedup supersteps are busier than average"] = (
            active[top].mean() > active.mean())
    return Figure(
        "fig15",
        "The superstep sequence is the same on 4 and 8 workers; speedup spikes "
        "superlinearly (>2×) where active vertices peak and falls below 1× in "
        "low-activity supersteps.",
        rows, check,
    )


def fig16(traces: dict[str, AlignedTraces]) -> Figure:
    """Fig. 16: projected time and cost of each scaling policy, normalized
    to Fixed-4; plus the extension sweeping scaling overheads on WG."""
    rows, check = {}, {}
    for ds, t in traces.items():
        model = ElasticityModel(t)
        outcomes = model.evaluate_all(ELASTIC_POLICIES)
        for o, n in zip(outcomes, normalize_outcomes(outcomes, "Fixed-4")):
            rows[f"{ds} {n.label}"] = {
                "time_s": o.total_time, "cost_usd": o.cost,
                "norm_time": n.norm_time, "norm_cost": n.norm_cost,
            }
        r = {p.label: rows[f"{ds} {p.label}"] for p in ELASTIC_POLICIES}
        check[f"{ds}: Dynamic time ≤ 1.1 × Fixed-8"] = (
            r[DYNAMIC]["norm_time"] <= 1.1 * r["Fixed-8"]["norm_time"])
        check[f"{ds}: Dynamic cost ≤ 1.1 × Fixed-4"] = (
            r[DYNAMIC]["norm_cost"] <= 1.1)
        fastest = min(x["norm_time"] for x in r.values())
        check[f"{ds}: Oracle time ≤ every policy's + 1e-9"] = (
            r["Oracle"]["norm_time"] <= fastest + 1e-9)
        check[f"{ds}: Dynamic time ≤ 1.15 × Oracle"] = (
            r[DYNAMIC]["norm_time"] <= 1.15 * r["Oracle"]["norm_time"])

    sweep = []
    for delay in PROVISION_DELAYS:
        pm = replace(SCALED_PERF_MODEL, provision_delay=delay, release_delay=delay / 9)
        model = ElasticityModel(traces["WG"], perf_model=pm)
        norm = normalize_outcomes(model.evaluate_all(ELASTIC_POLICIES), "Fixed-4")
        dyn = next(n for n in norm if n.label == DYNAMIC)
        rows[f"WG Dynamic, {delay:g} s per scaling event"] = {
            "norm_time": dyn.norm_time, "norm_cost": dyn.norm_cost}
        sweep.append(dyn.norm_time)
    check["WG Dynamic, 0 s overhead: time < 0.75 × Fixed-4"] = sweep[0] < 0.75
    check["WG Dynamic time rises monotonically with overhead"] = all(
        a <= b + 1e-12 for a, b in zip(sweep, sweep[1:]))
    check["WG Dynamic at 30 s overhead slower than at 0 s"] = sweep[-1] > sweep[0]
    return Figure(
        "fig16",
        "Switching between 4 and 8 workers at 50% active vertices gets nearly "
        "Fixed-8's runtime (better on WG, comparable on CP) at a cost "
        "comparable to (CP) or cheaper than (WG) Fixed-4; the per-superstep "
        "Oracle bounds the benefit and Dynamic lands close to it. Scaling "
        "overheads are not charged.",
        rows, check,
    )


# ---------------------------------------------------------------------------
# Ablations and extension records (beyond the paper)
# ---------------------------------------------------------------------------
def ablation_costmodel(
    sc: TraversalScenario,
    sizing: dict[str, TraversalRun],
    initiation: dict[str, TraversalRun],
    parts: PartitionRuns,
) -> Figure:
    """Each headline effect with and without the cost-model term behind it,
    on WG.  The full-model column reads Figs. 4, 6 and 8's runs; the zeroed
    column reruns the same jobs with that one term set to 0."""
    full = SCALED_PERF_MODEL
    no_spill = replace(full, spill_penalty=0.0, restart_overflow_ratio=1e9)
    no_barrier = full.without(barrier_base=0.0, barrier_per_worker=0.0)
    no_serialize = full.without(
        t_serialize=0.0, conn_setup_per_peer=0.0, latency_per_peer=0.0)

    def swath_time(pm, sizer, initiation=None):
        return run_traversal(
            sc.graph, replace(sc.config(), perf_model=pm),
            sc.roots[: sc.base_swath], kind=sc.kind, sizer=sizer,
            initiation=initiation,
        ).total_time

    def bc_time(pm, name):
        return partition_run(sc, paper_partitioners()[name], "BC", pm).total_time

    overlap = StaticSizer(_overlap_swath(sc))
    fig4 = (
        sizing["baseline"].total_time / sizing["adaptive-8w"].total_time,
        swath_time(no_spill, StaticSizer(sc.base_swath))
        / swath_time(no_spill, AdaptiveSizer(sc.target_bytes)),
    )
    fig6 = (
        initiation["Sequential"].total_time / initiation["Dynamic"].total_time,
        swath_time(no_barrier, overlap, SequentialInitiation())
        / swath_time(no_barrier, overlap, DynamicPeakDetect()),
    )
    fig8 = (
        parts["Hash"]["BC"].total_time / parts["METIS"]["BC"].total_time,
        bc_time(no_serialize, "Hash") / bc_time(no_serialize, "METIS"),
    )
    rows = {
        "Fig. 4 swath-size speedup, spill penalty → 0": fig4,
        "Fig. 6 initiation speedup, barrier cost → 0": fig6,
        "Fig. 8 METIS gain over Hash, serialization + latency → 0": fig8,
    }
    return Figure(
        "ablation_costmodel",
        "The swath-size speedup comes from avoiding virtual-memory spill "
        "(§VI-B), the initiation speedup from fewer barrier-bound tail "
        "supersteps (§VI-C), the partitioning gain from fewer remote "
        "messages (§VII).",
        {label: {"full": f, "zeroed": z} for label, (f, z) in rows.items()},
        {
            "Fig. 4 speedup: > 1.8 in full, < 1.1 without the spill penalty":
                fig4[0] > 1.8 and fig4[1] < 1.1,
            "Fig. 6 speedup > 1.1 in full": fig6[0] > 1.1,
            "Fig. 6 speedup without barrier cost < full + 0.6":
                fig6[1] < 0.6 + fig6[0],
            "Fig. 6 gain without barrier cost < 0.6 × full gain + 0.05":
                fig6[1] - 1.0 < 0.6 * (fig6[0] - 1.0) + 0.05,
            "Fig. 8 gain > 1.2 in full": fig8[0] > 1.2,
            "Fig. 8 gain without serialization < 0.6 × full gain + 0.05":
                fig8[1] - 1.0 < 0.6 * (fig8[0] - 1.0) + 0.05,
        },
    )


def ablation_combiners(lj: CSRGraph, with_combiner: JobResult) -> Figure:
    """PageRank on LJ (supernodes: the best case for combining) with and
    without its SumCombiner; ``with_combiner`` is Fig. 2's LJ run."""
    runs = {
        "with combiner": with_combiner,
        "without combiner": run_pagerank(
            lj, _unconstrained(), iterations=30, use_combiner=False),
    }
    rows = {
        label: {
            "time_s": res.total_time, "messages": res.trace.total_messages,
            "remote": sum(s.remote_messages for s in res.trace),
        }
        for label, res in runs.items()
    }
    w, wo = rows["with combiner"], rows["without combiner"]
    return Figure(
        "ablation_combiners",
        "Combiners are left out of the evaluation: their impact is algorithm "
        "dependent, some algorithms being unable to exploit them fully (§III). "
        "BC cannot use one: its per-root messages do not fold.",
        rows,
        {
            "messages with combiner < 0.9 × without": (
                w["messages"] < 0.9 * wo["messages"]),
            "time with combiner < without": w["time_s"] < wo["time_s"],
        },
    )


def live_elastic(sc: TraversalScenario, static: dict[int, JobResult]) -> Figure:
    """§VIII's 4 ↔ 8 policy executed: Figs. 15-16's static runs against
    one that repartitions and migrates at superstep boundaries, paying
    0.5 s per provisioning (0.1 s per release)."""
    pm = replace(SCALED_PERF_MODEL, provision_delay=0.5, release_delay=0.1)
    resizer = ElasticResizer(ActiveFractionPolicy(0.5, cooldown=2), low=4, high=8)
    live = run_traversal(
        sc.graph, replace(sc.config(num_workers=4), perf_model=pm),
        sc.roots[: sc.base_swath], kind=sc.kind,
        sizer=StaticSizer(sc.elastic_swath), initiation=SequentialInitiation(),
        extra_observers=[resizer],
    ).result
    base = static[4]
    rows = {
        label: {
            "time_s": res.total_time, "norm_time": res.total_time / base.total_time,
            "norm_cost": res.total_cost / base.total_cost,
        }
        for label, res in (
            ("static-4", static[4]), ("static-8", static[8]), ("live-dynamic", live))
    }
    rows["live-dynamic"].update(
        scale_events=len(resizer.scale_events),
        overhead_s=resizer.scale_overhead_total,
    )
    return Figure(
        "live_elastic",
        "Switching between 4 and 8 workers is projected from static runs; "
        "the overheads of scaling are not yet considered (§VIII).",
        rows,
        {
            "live-dynamic faster than static-4": (
                live.total_time < static[4].total_time),
            "live-dynamic time < 1.5 × static-8": (
                live.total_time < 1.5 * static[8].total_time),
            "live-dynamic cheaper than static-8": (
                live.total_cost < static[8].total_cost),
            "live-dynamic scaled at least once": len(resizer.scale_events) > 0,
        },
    )


def advisor(scenarios: Scenarios, parts: dict[str, PartitionRuns]) -> Figure:
    """§IX future work: does a graph's structure predict whether METIS beats
    Hash?  The advisor's predicted METIS / Hash time against the measured
    BC ratio: Fig. 8's runs on WG and CP, 20 roots on SD and LJ."""
    measured = {
        ds: parts[ds]["METIS"]["BC"].total_time / parts[ds]["Hash"]["BC"].total_time
        for ds in scenarios
    }
    graphs = {ds: datasets.load(ds, scale=BENCH_SCALE) for ds in ("SD", "LJ")}
    for ds, g in graphs.items():
        t = {
            name: _swaths_of_10(
                g, _unconstrained(partitioner=paper_partitioners()[name]),
                range(20),
            ).total_time
            for name in ("Hash", "METIS")
        }
        measured[ds] = t["METIS"] / t["Hash"]
    graphs.update((ds, sc.graph) for ds, sc in scenarios.items())
    adv = PartitioningAdvisor(seed=0)
    rows = {}
    for ds in ("SD", "WG", "CP", "LJ"):
        advice = adv.advise(graphs[ds], 8)
        said = advice.recommendation == "min-cut"
        rows[ds] = {
            "predicted_x": advice.predicted_ratio, "measured_x": measured[ds],
            "advises_min_cut": int(said),
            "agrees": int(said == (measured[ds] < 0.85)),
        }
    wg, cp = rows["WG"], rows["CP"]
    return Figure(
        "advisor",
        "Future work (§IX): use graph properties to predict when min-cut "
        "partitioning helps BSP; it pays on WG, not on CP (§VII).",
        rows,
        {
            "WG: advisor says min-cut, measured METIS / Hash < 0.85": (
                wg["advises_min_cut"] == 1 and wg["measured_x"] < 0.85),
            "CP: advisor says hash, measured METIS / Hash > 0.85": (
                cp["advises_min_cut"] == 0 and cp["measured_x"] > 0.85),
            "advisor agrees with measurement on ≥ 3 of 4 graphs": (
                sum(r["agrees"] for r in rows.values()) >= 3),
            "predicted ratio: WG < CP": wg["predicted_x"] < cp["predicted_x"],
        },
    )


def multitenancy() -> Figure:
    """Zero-mean per-worker NIC jitter (five tenant seeds) against the
    noise-free run: BC on SD, 10 roots in swaths of 5, 2 and 8 workers."""
    g = datasets.load("SD", scale=BENCH_SCALE)

    def bc_time(cfg):
        return run_traversal(g, cfg, range(10), sizer=StaticSizer(5)).total_time

    rows, check = {}, {}
    for workers in (2, 8):
        base = bc_time(_unconstrained(workers))
        for amp in (0.1, 0.3):
            times = np.array([
                bc_time(_unconstrained(workers, perf_model=replace(
                    SCALED_PERF_MODEL, jitter=amp, jitter_seed=seed)))
                for seed in (1, 2, 3, 4, 5)
            ])
            label = f"{workers} workers, ±{amp:.0%}"
            rows[label] = {
                "noise_free_s": base, "mean_s": float(times.mean()),
                "tax": float(times.mean() / base - 1.0),
                "spread": float(times.std() / times.mean()),
            }
            check[f"{label}: tax > 0"] = rows[label]["tax"] > 0.0
    for workers in (8, 2):
        check[f"{workers} workers: tax at ±30% > at ±10%"] = (
            rows[f"{workers} workers, ±30%"]["tax"]
            > rows[f"{workers} workers, ±10%"]["tax"])
    check["8 workers, ±30%: run-to-run spread > 0"] = (
        rows["8 workers, ±30%"]["spread"] > 0.0)
    return Figure(
        "multitenancy",
        "On public clouds multi-tenancy impacts performance consistency (§I).",
        rows, check,
    )


#: Disk bandwidth scaled like the other data-plane coefficients (the scaled
#: regime multiplies per-op costs ~1000×, so bytes/s divides accordingly).
DISK_BANDWIDTH = 50e3


def execution_modes(sc: TraversalScenario, sizing: dict[str, TraversalRun]) -> Figure:
    """§II/§IV's design alternatives on Fig. 4's memory-starved WG job: the
    memory-buffered rows are Fig. 4's baseline and adaptive runs."""
    cap, roots = sc.capacity_bytes, sc.roots[: sc.base_swath]
    runs = {
        "memory BSP (thrashing baseline)": sizing["baseline"],
        "memory BSP + swath heuristics": sizing["adaptive-8w"],
    }
    for name, mode in (
        ("disk-buffered BSP (Giraph-style)", {"disk_buffering": True}),
        ("MapReduce-style iteration", {"mapreduce_iteration": True}),
    ):
        pm = replace(SCALED_PERF_MODEL, disk_bandwidth=DISK_BANDWIDTH, **mode)
        runs[name] = run_traversal(
            sc.graph, replace(sc.config(), perf_model=pm), roots, kind=sc.kind,
            sizer=StaticSizer(sc.base_swath))
    rows = {
        name: {
            "time_s": run.total_time,
            "peak_frac": run.result.trace.peak_memory / cap,
            "supersteps": run.result.supersteps,
        }
        for name, run in runs.items()
    }
    t = {name: r["time_s"] for name, r in rows.items()}
    disk = "disk-buffered BSP (Giraph-style)"
    return Figure(
        "execution_modes",
        "Disk-buffered BSP adds a uniform multiplicative overhead comparable "
        "to Hadoop's disk-based communication (§IV); MapReduce-style "
        "frameworks re-communicate the graph each iteration (§II-A). The "
        "paper keeps messages in memory and manages the pressure with swath "
        "heuristics.",
        rows,
        {
            "disk-buffered peak < physical": rows[disk]["peak_frac"] < 1.0,
            "disk-buffered faster than the thrashing baseline": (
                t[disk] < t["memory BSP (thrashing baseline)"]),
            "swath heuristics < 0.8 × disk-buffered": (
                t["memory BSP + swath heuristics"] < 0.8 * t[disk]),
            "MapReduce-style iteration slowest of all": (
                t["MapReduce-style iteration"] == max(t.values())),
        },
    )


#: Spot VMs: the share of the on-demand price paid, and a checkpoint
#: bandwidth and restart cost scaled to the regime's seconds.
SPOT_DISCOUNT = 0.3
SPOT_PERF_MODEL = SCALED_PERF_MODEL.without(restart_time=3.0, checkpoint_bandwidth=2e6)


def spot_market() -> Figure:
    """PageRank × 30 on SD (scale 0.5), 8 workers, on demand and on spot VMs
    checkpointing every 5 supersteps, at 5, 20 and 60 evictions per
    VM-hour sampled from the on-demand trace."""
    g, vm = datasets.load("SD", scale=0.5), scaled_large(1 << 62)

    def run(vm_spec, **kw):
        return run_job(JobSpec(
            program=PageRankProgram(iterations=30), graph=g, num_workers=8,
            vm_spec=vm_spec, perf_model=SPOT_PERF_MODEL, **kw))

    base = run(vm)
    runs, evictions = {"on-demand": base}, {"on-demand": 0}
    for rate in (5.0, 20.0, 60.0):
        schedule = spot_failure_schedule(base.trace, 8, evictions_per_hour=rate, seed=7)
        label = f"spot @{rate:g}/h"
        runs[label] = run(
            spot_price(vm, SPOT_DISCOUNT), checkpoint_interval=5,
            failure_schedule=schedule)
        evictions[label] = len(schedule)
    rows = {
        label: {
            "time_s": res.total_time, "cost_usd": res.total_cost,
            "norm_time": res.total_time / base.total_time,
            "norm_cost": res.total_cost / base.total_cost,
            "evictions": evictions[label], "recoveries": len(res.recoveries),
        }
        for label, res in runs.items()
    }
    calm, stormy = rows["spot @5/h"], rows["spot @60/h"]
    discount_only = calm["evictions"] == 0
    check = {
        "spot @5/h, no eviction sampled (the discount alone): cost < 0.6 × "
        "on-demand": discount_only and calm["norm_cost"] < 0.6,
        "spot @5/h, no eviction sampled (the discount alone): time < 1.6 × "
        "on-demand": discount_only and calm["norm_time"] < 1.6,
        "spot @60/h slower than @5/h": stormy["time_s"] > calm["time_s"],
        "spot @60/h: one recovery per eviction": (
            stormy["recoveries"] == stormy["evictions"] > 0),
    }
    for label, res in list(runs.items())[1:]:
        check[f"{label}: PageRank values equal on-demand's (atol 1e-9)"] = bool(
            np.allclose(res.values_array(), base.values_array(), atol=1e-9))
    return Figure(
        "spot_market",
        "Costs are pay-as-you-go on on-demand VMs (§VIII); preemptible "
        "capacity is beyond the paper.",
        rows, check,
    )


def partitioner_generations(
    scenarios: Scenarios, parts: dict[str, PartitionRuns]
) -> Figure:
    """Fig. 8's BC comparison across partitioner generations, WG and CP;
    the Hash and METIS rows are Fig. 8's runs."""
    fig8 = paper_partitioners()
    strategies = {
        "Hash (online, 2010)": fig8["Hash"],
        "LDG (streaming, 2012)": StreamingGreedy(order="random"),
        "Fennel (streaming, 2014)": FennelPartitioner(order="random"),
        "Spectral (offline, classic)": SpectralPartitioner(),
        "Multilevel (offline, METIS-style)": fig8["METIS"],
    }
    shared = {
        "Hash (online, 2010)": "Hash", "Multilevel (offline, METIS-style)": "METIS"}
    others = list(strategies)[1:]
    rows, check = {}, {}
    for ds, sc in scenarios.items():
        for label, part in strategies.items():
            res = (parts[ds][shared[label]]["BC"] if label in shared
                   else partition_run(sc, part, "BC"))
            p = part.partition(sc.graph, 8)
            rows[f"{ds} {label}"] = {
                "remote_frac": remote_edge_fraction(sc.graph, p),
                "balance": balance(sc.graph, p), "BC_s": res.total_time,
            }
        hash_row = rows[f"{ds} Hash (online, 2010)"]
        for label in strategies:
            row = rows[f"{ds} {label}"]
            row["BC_x"] = row["BC_s"] / hash_row["BC_s"]
        check[f"{ds}: every other strategy's remote edges < 0.6 × Hash's"] = all(
            rows[f"{ds} {label}"]["remote_frac"] < 0.6 * hash_row["remote_frac"]
            for label in others)
    check["WG: every other strategy's BC_x < 0.9"] = all(
        rows[f"WG {label}"]["BC_x"] < 0.9 for label in others)
    for label in ("Multilevel (offline, METIS-style)", "Spectral (offline, classic)"):
        check[f"CP {label}: BC_x > 0.9"] = rows[f"CP {label}"]["BC_x"] > 0.9
    return Figure(
        "partitioner_generations",
        "A better cut pays on WG but not on CP, whose min-cut partitions "
        "concentrate the traversal's frontier (§VII).",
        rows, check,
    )


#: Fleet sizes of the strong-scaling record.
WORKER_GRID = (1, 2, 4, 8, 16)


def scalability() -> Figure:
    """§IX's "more VMs": speedup over one worker (columns ``Nw``; ``1w_s``
    is the one-worker time) of PageRank × 20 and BC over 10 roots in
    swaths of 5, on SD at two scales."""
    graphs = {scale: datasets.load("SD", scale=scale) for scale in (0.25, 0.5)}
    rows, check = {}, {}
    for app in ("PageRank", "BC"):
        for scale, g in graphs.items():
            t = {}
            for w in WORKER_GRID:
                cfg = _unconstrained(w)
                t[w] = (
                    run_pagerank(g, cfg, iterations=20) if app == "PageRank"
                    else run_traversal(g, cfg, range(10), sizer=StaticSizer(5))
                ).total_time
            label = f"{app}, scale {scale:g}"
            rows[label] = {"1w_s": t[1]}
            rows[label].update((f"{w}w", t[1] / t[w]) for w in WORKER_GRID[1:])
            if app == "PageRank":
                check[f"{label}: every fleet slower than 1 worker"] = (
                    min(t[w] for w in WORKER_GRID[1:]) > t[1])
            else:
                check[f"{label}: 8 workers faster than 1"] = t[8] < t[1]
    for app in ("PageRank", "BC"):
        big, small = rows[f"{app}, scale 0.5"], rows[f"{app}, scale 0.25"]
        check[f"{app}: 16w speedup at scale 0.5 ≥ 0.95 × at 0.25"] = (
            big["16w"] >= 0.95 * small["16w"])
    return Figure(
        "scalability",
        "Future work (§IX): larger graphs and more VMs.",
        rows, check,
    )


def generalization_apsp(
    sc: TraversalScenario,
    sizing: dict[str, TraversalRun],
    initiation: dict[str, TraversalRun],
) -> Figure:
    """§IX: Figs. 4 and 6's heuristics applied unchanged to APSP on WG, on
    a scenario calibrated to APSP's own footprint (``kind="apsp"``)."""
    rows = {}
    for runs, base in ((sizing, "baseline"), (initiation, "Sequential")):
        for name, run in runs.items():
            rows[name] = {
                "time_s": run.total_time,
                "speedup": runs[base].total_time / run.total_time,
                "peak_frac": run.result.trace.peak_memory / sc.capacity_bytes,
            }
    check = {"baseline peak > physical": rows["baseline"]["peak_frac"] > 1.0}
    for name in ("sampling-8w", "adaptive-8w"):
        check[f"{name}: speedup > 1.5"] = rows[name]["speedup"] > 1.5
    for name in ("sampling-8w", "adaptive-8w"):
        check[f"{name}: peak ≤ 1.05 × physical"] = rows[name]["peak_frac"] <= 1.05
    check["Dynamic initiation speedup > 1.1"] = rows["Dynamic"]["speedup"] > 1.1
    return Figure(
        "generalization_apsp",
        "The heuristics can be leveraged for graph applications beyond BC "
        "(§IX).",
        rows, check,
    )


def dynamic_repartitioning(
    scenarios: Scenarios, parts: dict[str, PartitionRuns]
) -> Figure:
    """GPS-style online re-partitioning (§II): Fig. 8's BC job from Hash,
    migrating misplaced vertices every 3 supersteps, against Fig. 8's Hash
    and METIS runs.  Takes WG and CP."""
    rows, check = {}, {}
    for ds, sc in scenarios.items():
        policy = DynamicRepartitioner(interval=3)
        dynamic = partition_run(sc, HashPartitioner(), "BC", observers=[policy])
        hash_t = parts[ds]["Hash"]["BC"].total_time
        for name in ("Hash", "METIS"):
            t = parts[ds][name]["BC"].total_time
            rows[f"{ds} {name}"] = {"time_s": t, "x_hash": t / hash_t}
        moves = policy.migrations
        r = rows[f"{ds} dynamic"] = {
            "time_s": dynamic.total_time, "x_hash": dynamic.total_time / hash_t,
            "moved": policy.total_moved,
            # no migration fails the remote-edge check below by name
            "remote_start": moves[0].remote_fraction_before if moves else 1.0,
            "remote_end": moves[-1].remote_fraction_after if moves else 1.0,
        }
        check[f"{ds}: dynamic < 0.95 × Hash"] = r["x_hash"] < 0.95
        check[f"{ds}: remote edges end < 0.75 × where they started"] = (
            r["remote_end"] < 0.75 * r["remote_start"])
    check["CP: dynamic faster than METIS"] = (
        rows["CP dynamic"]["time_s"] < rows["CP METIS"]["time_s"])
    check["WG: METIS faster than dynamic"] = (
        rows["WG METIS"]["time_s"] < rows["WG dynamic"]["time_s"])
    return Figure(
        "dynamic_repartitioning",
        "GPS offers dynamic re-partitioning (§II); offline min-cut "
        "partitioning pays on WG but not on CP (§VII).",
        rows, check,
    )


def figures() -> list[Figure]:
    """Every table, figure and extension record at BENCH_SCALE, each
    experiment run once."""
    scs = {ds: bc_scenario(ds) for ds in ("WG", "CP")}
    sizing = {ds: sizing_runs(sc) for ds, sc in scs.items()}
    initiation = {ds: initiation_runs(sc) for ds, sc in scs.items()}
    parts = {ds: partition_runs(sc) for ds, sc in scs.items()}
    elastic = {ds: elastic_runs(sc) for ds, sc in scs.items()}
    traces = {ds: elastic_traces(scs[ds], runs) for ds, runs in elastic.items()}
    lj = datasets.load("LJ", scale=BENCH_SCALE)
    pagerank = {ds: parts[ds]["Hash"]["PageRank"] for ds in scs}
    pagerank["LJ"] = pagerank_run(lj)
    apsp = bc_scenario("WG", kind="apsp")
    return [
        table1({key: datasets.load(key) for key in ("SD", "WG", "CP", "LJ")}),
        fig02(scs, pagerank),
        fig03(scs["WG"], pagerank["WG"]),
        fig04(scs, sizing),
        fig05(scs["WG"], sizing["WG"]),
        fig06(scs, initiation),
        fig07(initiation["WG"]),
        fig08(scs, parts),
        fig09_12(parts),
        fig10_14(parts),
        fig15(traces),
        fig16(traces),
        ablation_costmodel(scs["WG"], sizing["WG"], initiation["WG"], parts["WG"]),
        ablation_combiners(lj, pagerank["LJ"]),
        live_elastic(scs["WG"], elastic["WG"]),
        advisor(scs, parts),
        multitenancy(),
        execution_modes(scs["WG"], sizing["WG"]),
        spot_market(),
        partitioner_generations(scs, parts),
        scalability(),
        generalization_apsp(apsp, sizing_runs(apsp), initiation_runs(apsp)),
        dynamic_repartitioning(scs, parts),
    ]


# ---------------------------------------------------------------------------
# The record: EXPERIMENTS.md blocks and the golden file
# ---------------------------------------------------------------------------
def golden(figs: list[Figure]) -> dict:
    """Every number of every figure as plain JSON values."""
    rows = {f.key: f.rows for f in figs}
    return json.loads(json.dumps(rows, default=lambda array: array.tolist()))


def compare(old: Any, new: Any, path: tuple[str, ...] = ()) -> list[str]:
    """Each value that differs between two golden records, exactly, as
    ``figure / row / column: old -> new``; a figure, row or column only one
    record has as ``figure / row: added`` (or ``removed``)."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [
            d for k in dict.fromkeys([*old, *new])
            for d in (
                compare(old[k], new[k], (*path, k)) if k in old and k in new
                else [f"{' / '.join((*path, k))}: {'added' if k in new else 'removed'}"]
            )
        ]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [
            d for i, (a, b) in enumerate(zip(old, new))
            for d in compare(a, b, (*path[:-1], f"{path[-1]}[{i}]"))
        ]
    if type(old) is type(new) and old == new:
        return []
    return [f"{' / '.join(path)}: {old!r} -> {new!r}"]


def _cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return f"{v:,}"
    if isinstance(v, float):
        return f"{v:.4g}"
    span = f"{_cell(min(v))}–{_cell(max(v))}"
    return f"{sparkline(v, width=40)} ({len(v)} steps, {span})"


def markdown(fig: Figure) -> str:
    """A figure's generated block: claim, rows, checks."""
    cols = list(dict.fromkeys(c for row in fig.rows.values() for c in row))
    lines = [f"Paper: {fig.claim}", "", "| | " + " | ".join(cols) + " |",
             "|---" * (len(cols) + 1) + "|"]
    for label, row in fig.rows.items():
        cells = (_cell(row[c]) if c in row else "" for c in cols)
        lines.append(f"| {label} | " + " | ".join(cells) + " |")
    lines.append("")
    lines += [f"- {'✓' if ok else '✗'} {name}" for name, ok in fig.check.items()]
    return "\n".join(lines)


def render_experiments(text: str, figs: list[Figure]) -> str:
    """``text`` with each figure's generated block replaced."""
    for fig in figs:
        block = re.compile(
            rf"(<!-- begin {fig.key} -->\n).*?(<!-- end {fig.key} -->)", re.S)
        text, n = block.subn(lambda m: m[1] + markdown(fig) + "\n" + m[2], text)
        if n != 1:
            raise ValueError(
                f"expected one '<!-- begin {fig.key} -->' ... "
                f"'<!-- end {fig.key} -->' block, found {n}")
    return text


def report(experiments: Path, golden_path: Path) -> list[str]:
    """Run every figure, rewrite the generated blocks of ``experiments`` and
    the golden file; return each failed check and each number that moved
    from the golden file as it was."""
    figs = figures()
    problems = [f"{f.key}: check failed: {c}" for f in figs for c in f.failures()]
    fresh = golden(figs)
    if golden_path.exists():
        old = json.loads(golden_path.read_text())
        problems += [f"moved: {d}" for d in compare(old, fresh)]
    text = render_experiments(experiments.read_text(), figs)
    experiments.write_text(text)
    golden_path.parent.mkdir(parents=True, exist_ok=True)
    golden_path.write_text(json.dumps(fresh, indent=1, allow_nan=False) + "\n")
    return problems

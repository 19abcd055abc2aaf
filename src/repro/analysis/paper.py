"""The paper's evaluation: one function per table or figure.

Each function returns a :class:`Figure`: its rows of simulated numbers,
the paper's claim, and ``check``, every ordering and band the
reproduction asserts about those rows.  Experiments that several figures
read (swath sizing, swath initiation, the three partitioners, the same
job on 4 and 8 workers) are functions of their own whose results the
figures take as inputs, so :func:`figures` runs each of them once.

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

from ..algorithms import DiameterEstimationProgram
from ..bsp import JobResult, JobSpec, run_job
from ..cloud.costmodel import SCALED_PERF_MODEL
from ..elastic import (
    ActiveFractionPolicy,
    AlignedTraces,
    ElasticityModel,
    FixedWorkers,
    OraclePolicy,
    normalize_outcomes,
)
from ..graph import CSRGraph, datasets, summarize
from ..graph.properties import distance_profile
from ..partition import remote_edge_fraction
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
    "sizing_runs", "initiation_runs", "partition_runs", "elastic_traces",
    "golden", "compare", "markdown", "render_experiments", "report",
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
def sizing_runs(sc: TraversalScenario) -> dict[str, TraversalRun]:
    """Figs. 4-5: the largest single swath against the sizing heuristics."""
    roots = sc.roots[: sc.base_swath]

    def bc(cfg, sizer):
        return run_traversal(sc.graph, cfg, roots, kind="bc", sizer=sizer)

    return {
        "baseline": bc(sc.config(), StaticSizer(sc.base_swath)),
        "sampling-8w": bc(sc.config(), SamplingSizer(sc.target_bytes)),
        "adaptive-8w": bc(sc.config(), AdaptiveSizer(sc.target_bytes)),
        "adaptive-4w": bc(sc.config(num_workers=4), AdaptiveSizer(sc.target_bytes)),
    }


def initiation_runs(sc: TraversalScenario) -> dict[str, TraversalRun]:
    """Figs. 6-7: when the next swath starts, at a fixed swath size."""
    size = max(2, sc.base_swath // 4)
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
            sc.graph, sc.config(), sc.roots[: sc.base_swath], kind="bc",
            sizer=StaticSizer(size), initiation=policy,
        )
        for name, policy in policies.items()
    }


def partition_runs(sc: TraversalScenario) -> PartitionRuns:
    """Figs. 8-14: PageRank, BC and APSP under each §VII partitioner,
    8 workers, memory unconstrained."""
    roots = range(PARTITION_ROOTS[sc.dataset])
    out = {}
    for name, part in paper_partitioners().items():
        cfg = RunConfig(
            num_workers=8, partitioner=part, perf_model=SCALED_PERF_MODEL
        ).with_memory(1 << 62)
        out[name] = {"PageRank": run_pagerank(sc.graph, cfg, iterations=30)}
        for kind, app in (("bc", "BC"), ("apsp", "APSP")):
            out[name][app] = run_traversal(
                sc.graph, cfg, roots, kind=kind, sizer=StaticSizer(10)
            ).result
    return out


def elastic_traces(sc: TraversalScenario, swath: int) -> AlignedTraces:
    """Figs. 15-16: one BC job on 4 and on 8 workers, superstep-aligned,
    with fixed swaths of ``swath`` roots (one that spills at 4 workers
    but fits at 8)."""
    low, high = (
        run_traversal(
            sc.graph, sc.config(num_workers=w), sc.roots[: sc.base_swath],
            kind="bc", sizer=StaticSizer(swath),
            initiation=SequentialInitiation(),
        ).result.trace
        for w in (4, 8)
    )
    return AlignedTraces.from_traces(low, high, 4, 8, sc.graph.num_vertices)


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


def fig02(scenarios: Scenarios, lj: CSRGraph) -> Figure:
    """Fig. 2: total time of PageRank, APSP and BC on 8 workers; BC/APSP
    extrapolated from FIG2_ROOTS roots (§V); LJ for PageRank only."""
    rows, check = {}, {}
    for ds, sc in scenarios.items():
        cfg = sc.unconstrained_config()
        pr = run_pagerank(sc.graph, cfg, iterations=30).total_time
        rows[f"{ds} PageRank"] = {"time_s": pr}
        for kind, app in (("apsp", "APSP"), ("bc", "BC")):
            t = run_traversal(sc.graph, cfg, range(FIG2_ROOTS), kind=kind).total_time
            t = extrapolate_runtime(
                t, FIG2_ROOTS, sc.graph.num_vertices).projected_seconds
            rows[f"{ds} {app}"] = {"time_s": t, "x_pagerank": t / pr}
        bc, apsp = rows[f"{ds} BC"]["time_s"], rows[f"{ds} APSP"]["time_s"]
        check[f"{ds}: BC > APSP > 5 × PageRank"] = bc > apsp > 5 * pr
        check[f"{ds}: BC > 25 × PageRank"] = bc > 25 * pr
    cfg = RunConfig(num_workers=8, perf_model=SCALED_PERF_MODEL).with_memory(1 << 62)
    rows["LJ PageRank"] = {"time_s": run_pagerank(lj, cfg, iterations=30).total_time}
    return Figure(
        "fig02",
        "BC and APSP take ~4 orders of magnitude longer than PageRank on WG and "
        "CP (the gap scales with |V|); LJ runs PageRank only, BC/APSP do not "
        "fit worker memory.",
        rows, check,
    )


def fig03(sc: TraversalScenario) -> Figure:
    """Fig. 3: messages per superstep on WG, 8 workers, one swath of 7."""
    cfg = sc.unconstrained_config()
    pr = run_pagerank(sc.graph, cfg, iterations=30)
    msgs = {"PageRank": pr.trace.series_messages()}
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
        cfg = RunConfig(
            num_workers=8, partitioner=part, perf_model=SCALED_PERF_MODEL
        ).with_memory(wg.capacity_bytes)
        on[name] = run_traversal(
            wg.graph, cfg, wg.roots[: wg.base_swath], kind="bc",
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
        model = ElasticityModel(t, perf_model=SCALED_PERF_MODEL)
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
        model = ElasticityModel(
            traces["WG"], perf_model=pm, include_scaling_overheads=delay > 0)
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


def figures() -> list[Figure]:
    """Every table and figure at BENCH_SCALE, each experiment run once."""
    scs = {ds: bc_scenario(ds) for ds in ("WG", "CP")}
    sizing = {ds: sizing_runs(sc) for ds, sc in scs.items()}
    initiation = {ds: initiation_runs(sc) for ds, sc in scs.items()}
    parts = {ds: partition_runs(sc) for ds, sc in scs.items()}
    traces = {ds: elastic_traces(sc, sc.elastic_swath) for ds, sc in scs.items()}
    return [
        table1({key: datasets.load(key) for key in ("SD", "WG", "CP", "LJ")}),
        fig02(scs, datasets.load("LJ", scale=BENCH_SCALE)),
        fig03(scs["WG"]),
        fig04(scs, sizing),
        fig05(scs["WG"], sizing["WG"]),
        fig06(scs, initiation),
        fig07(initiation["WG"]),
        fig08(scs, parts),
        fig09_12(parts),
        fig10_14(parts),
        fig15(traces),
        fig16(traces),
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
    ``figure / row / column: old -> new``."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [
            d for k in dict.fromkeys([*old, *new])
            for d in compare(old.get(k), new.get(k), (*path, k))
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

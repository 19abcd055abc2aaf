#!/usr/bin/env python
"""Elastic scaling analysis — the paper's §VIII methodology end to end.

Runs the same BC job at 4 and 8 workers (identical superstep sequences),
derives the per-superstep speedup profile, and evaluates scaling policies:
fixed fleets, the paper's 50%-active-vertices dynamic threshold, and the
per-superstep oracle.  Also prices everything through the pay-as-you-go
billing model.

Run:  python examples/elastic_scaling.py
"""

from repro.analysis import bc_scenario, run_traversal, tables
from repro.elastic import (
    ActiveFractionPolicy,
    AlignedTraces,
    ElasticityModel,
    FixedWorkers,
    OraclePolicy,
    normalize_outcomes,
)
from repro.scheduling import SequentialInitiation, StaticSizer


def main() -> None:
    sc = bc_scenario("WG", scale=0.25)
    print(f"graph: {sc.graph}; fixed swath of {sc.elastic_swath} roots "
          f"(heuristics off, as in the paper's §VIII)\n")

    runs = {}
    for workers in (4, 8):
        runs[workers] = run_traversal(
            sc.graph, sc.config(num_workers=workers),
            sc.roots[: sc.base_swath], kind="bc",
            sizer=StaticSizer(sc.elastic_swath),
            initiation=SequentialInitiation(),
        )
        print(f"measured {workers}-worker run: "
              f"{runs[workers].total_time:.1f}s over "
              f"{runs[workers].result.supersteps} supersteps")

    traces = AlignedTraces.from_traces(
        runs[4].result.trace, runs[8].result.trace, 4, 8, sc.graph.num_vertices
    )
    model = ElasticityModel(traces)

    speedup = model.speedup_series()
    active = model.active_series().astype(float)
    print(f"\nper-superstep profile ({len(speedup)} steps):")
    print(f"  active vertices  {tables.sparkline(active, width=56)}")
    print(f"  8v4 speedup      {tables.sparkline(speedup, width=56)}")
    print(f"  speedup range {speedup.min():.2f}x .. {speedup.max():.2f}x "
          f"({int((speedup > 2).sum())} superlinear, "
          f"{int((speedup < 1).sum())} below 1x)")

    policies = [
        FixedWorkers(4), FixedWorkers(8),
        ActiveFractionPolicy(0.5), OraclePolicy(),
    ]
    rows = normalize_outcomes(model.evaluate_all(policies), "Fixed-4")
    print("\nprojected runtime and cost (normalized to the fixed 4-worker run):")
    print(tables.table(
        ["policy", "norm. time", "norm. cost", "scale events"],
        [[r.label, f"{r.norm_time:.3f}x", f"{r.norm_cost:.3f}x", r.scale_events]
         for r in rows],
    ))
    print(
        "\nScaling out only for the high-activity supersteps captures the"
        "\nsuperlinear spikes (doubled aggregate memory at the peaks) while"
        "\navoiding 8-worker barrier overhead in the drained tail — near"
        "\nfixed-8 runtime at near fixed-4 cost."
    )


if __name__ == "__main__":
    main()

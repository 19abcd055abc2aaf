"""Extension bench — GPS-style dynamic re-partitioning vs the paper's §VII.

§II credits GPS with "dynamic re-partitioning approaches"; §VII shows
offline min-cut partitioning can backfire on imbalance-prone graphs.  The
natural question: does *online* re-partitioning — start from free hashing,
migrate misplaced vertices while the job runs — capture the cut benefit
without the offline pass, and does it too fall to CP's imbalance trap?
"""

from repro.analysis import RunConfig, run_traversal, tables
from repro.algorithms import BCProgram
from repro.algorithms import bc as bc_mod
from repro.bsp import JobSpec, run_job
from repro.cloud.costmodel import SCALED_PERF_MODEL
from repro.partition import MultilevelPartitioner
from repro.partition.dynamic import DynamicRepartitioner
from repro.scheduling import StaticSizer, SwathController

from helpers import banner, fmt_seconds, run_once

ROOTS = {"WG": 30, "CP": 25}


def make_job(graph, roots, partitioner=None):
    ctrl = SwathController(
        roots=list(roots), start_factory=bc_mod.start_messages,
        sizer=StaticSizer(10),
    )
    extra = {} if partitioner is None else {"partitioner": partitioner}
    cfg = RunConfig(num_workers=8, perf_model=SCALED_PERF_MODEL, **extra)
    return JobSpec(
        program=BCProgram(), graph=graph, num_workers=8,
        partitioner=cfg.partitioner, vm_spec=cfg.with_memory(1 << 62).vm_spec,
        perf_model=SCALED_PERF_MODEL, initially_active=False, observers=[ctrl],
    )


def run_comparison():
    from repro.graph import datasets

    out = {}
    for ds in ("WG", "CP"):
        g = datasets.load(ds, scale=0.3)
        roots = range(ROOTS[ds])
        static_hash = run_job(make_job(g, roots))
        metis = run_job(
            make_job(
                g, roots,
                MultilevelPartitioner(seed=1, imbalance=1.15, refine_passes=12),
            )
        )
        policy = DynamicRepartitioner(interval=3)
        job = make_job(g, roots)
        job.observers = [*job.observers, policy]
        dynamic = run_job(job)
        out[ds] = {
            "hash": static_hash.total_time,
            "metis": metis.total_time,
            "dynamic": dynamic.total_time,
            "moved": policy.total_moved,
            "remote_start": policy.migrations[0].remote_fraction_before
            if policy.migrations else 1.0,
            "remote_end": policy.migrations[-1].remote_fraction_after
            if policy.migrations else 1.0,
        }
    return out


def test_dynamic_repartitioning(benchmark):
    r = run_once(benchmark, run_comparison)

    banner("Extension: online re-partitioning (GPS-style) vs offline (BC)")
    rows = []
    for ds, d in r.items():
        rows.append([
            ds,
            fmt_seconds(d["hash"]),
            f"{d['metis'] / d['hash']:.2f}",
            f"{d['dynamic'] / d['hash']:.2f}",
            d["moved"],
            f"{d['remote_start']:.0%} -> {d['remote_end']:.0%}",
        ])
    print(tables.table(
        ["graph", "hash time", "METIS vs hash", "dynamic vs hash",
         "vertices moved", "remote edges (during run)"],
        rows,
    ))
    print("\nOnline migration recovers much of the offline cut win on WG "
          "with zero preprocessing.  On CP it does something offline METIS "
          "cannot: the balance guard stops migration *before* partitions "
          "fully align with communities, so it banks a moderate cut without "
          "the §VII frontier concentration — beating both hash (even cut, "
          "high traffic) and METIS (minimal cut, stalled barriers).")

    wg, cp = r["WG"], r["CP"]
    # Online beats static hashing on both graphs, zero preprocessing.
    assert wg["dynamic"] < 0.95 * wg["hash"]
    assert cp["dynamic"] < 0.95 * cp["hash"]
    # Cut genuinely improved during the run on both graphs.
    for d in r.values():
        assert d["remote_end"] < 0.75 * d["remote_start"]
    # The CP sweet spot: moderate online cut beats METIS's minimal cut.
    assert cp["dynamic"] < cp["metis"]
    # On WG the offline pass still wins outright (it can cut deeper safely).
    assert wg["metis"] < wg["dynamic"]
"""Cluster-telemetry bench — federation scrape latency and observer cost.

The ``/cluster`` route scrapes every fleet daemon's ``/sync`` snapshot
and merges the registries on each request, so its latency bounds how
hard an operator (or a dashboard refresh loop) can hammer the
coordinator.  The second number is the cost of the cluster-era
always-on observer — the live ``EngineHealth`` — which rides every
instrumented run and must stay within the same wall-clock bound the
flight recorder honors (``bench_flight.py``).  The ``repro_cost_*``
gauges are part of the metrics sink both arms carry.

Numbers land in ``BENCH_cluster.json`` for cross-revision comparison.
"""

import json
import time
import urllib.request

from repro.analysis import RunConfig, run_pagerank
from repro.graph import generators as gen
from repro.obs import (
    ClusterScraper,
    EngineHealth,
    LiveTelemetryServer,
    MetricsRegistry,
)
from repro.obs.cluster import ClusterMember

from helpers import banner, run_once

#: alternate off/on runs, keep the fastest of each (interpreter noise)
REPEATS = 7
ITERATIONS = 20
FLEET = 3
#: acceptance bound: the live observers must cost <= 2% wall-clock
MAX_OVERHEAD = 0.02


def _daemon_registry(i: int) -> MetricsRegistry:
    """A registry shaped like a working daemon's: vitals + histograms."""
    reg = MetricsRegistry()
    labels = {"host": f"10.0.0.{i}:9001", "transport": "tcp"}
    reg.gauge(
        "repro_daemon_sessions_active", help="live sessions", **labels
    ).set(2)
    reg.counter(
        "repro_daemon_sessions_total", help="sessions served", **labels
    ).inc(4 + i)
    reg.counter(
        "repro_daemon_heartbeats_sent_total", help="beats", **labels
    ).inc(500 * (i + 1))
    hist = reg.histogram(
        "bsp_superstep_host_seconds", help="superstep wall",
        buckets=(0.001, 0.01, 0.1, 1.0),
    )
    for k in range(100):
        hist.observe(0.0005 * (k % 7 + 1))
    return reg


def build_fleet():
    """FLEET real telemetry servers + a scraper federating them."""
    servers = [
        LiveTelemetryServer(metrics=_daemon_registry(i)).start()
        for i in range(FLEET)
    ]
    members = [
        ClusterMember(f"10.0.0.{i}:9001", srv.url)
        for i, srv in enumerate(servers)
    ]
    local = MetricsRegistry()
    local.counter("bsp_supersteps_total", help="steps").inc(40)
    return servers, ClusterScraper(members, local=local)


def measure_scrapes():
    """Best-of-REPEATS latency for one /sync GET and one /cluster merge."""
    servers, scraper = build_fleet()
    try:
        sync_s, cluster_s = [], []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            with urllib.request.urlopen(
                f"{servers[0].url}/sync", timeout=5
            ) as resp:
                resp.read()
            sync_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            registry, summary = scraper.scrape()
            cluster_s.append(time.perf_counter() - t0)
        assert not summary["errors"], summary["errors"]
        assert len(summary["members"]) == FLEET + 1  # + coordinator
        hosts = {
            dict(inst.labels).get("host")
            for _, _, _, insts in registry.collect()
            for inst in insts
        }
        assert {f"10.0.0.{i}:9001" for i in range(FLEET)} <= hosts
        assert "coordinator" in hosts
        return min(sync_s), min(cluster_s)
    finally:
        for srv in servers:
            srv.stop()


def measure_observer_overhead(graph):
    """Metrics-only run vs EngineHealth riding along.

    Both arms carry a metrics registry (its cost, the cost gauges
    included, is bench_perf.py's problem); the delta isolates the
    cluster-era live observer.
    """
    # one untimed warm-up so first-call import/allocation costs land in
    # neither arm
    run_pagerank(
        graph, RunConfig(num_workers=4, metrics=MetricsRegistry()),
        iterations=2,
    )
    off, on = [], []
    for _ in range(REPEATS):
        reg = MetricsRegistry()
        t0 = time.perf_counter()
        run_pagerank(
            graph, RunConfig(num_workers=4, metrics=reg),
            iterations=ITERATIONS,
        )
        off.append(time.perf_counter() - t0)
        reg = MetricsRegistry()
        t0 = time.perf_counter()
        run_pagerank(
            graph, RunConfig(num_workers=4, metrics=reg),
            iterations=ITERATIONS,
            observers=[EngineHealth(metrics=reg)],
        )
        on.append(time.perf_counter() - t0)
    return min(off), min(on)


def test_cluster_scrape_latency_and_observer_overhead(benchmark):
    graph = gen.watts_strogatz(2000, 8, 0.1, seed=1)

    def run_all():
        return measure_scrapes(), measure_observer_overhead(graph)

    (sync_s, cluster_s), (off_s, on_s) = run_once(benchmark, run_all)
    overhead = on_s / off_s - 1.0

    banner(f"cluster federation scrape latency ({FLEET} daemons)")
    print(f"{'/sync (1 daemon)':<22} {sync_s * 1e3:>10.2f} ms")
    print(f"{'/cluster fan-out':<22} {cluster_s * 1e3:>10.2f} ms")
    print(f"{'observers off':<22} {off_s * 1e3:>10.1f} ms")
    print(f"{'observers on':<22} {on_s * 1e3:>10.1f} ms  ({overhead:+.1%})")

    # The observer does O(workers) arithmetic per superstep on numbers
    # the engine already computed; blowing the bound means a hot path
    # started paying for telemetry.
    assert overhead < MAX_OVERHEAD, (
        f"live observer costs {overhead:.1%} (bound {MAX_OVERHEAD:.0%})"
    )

    payload = {
        "workload": {
            "graph": "watts_strogatz(2000, 8, 0.1)",
            "iterations": ITERATIONS,
            "workers": 4,
            "fleet": FLEET,
            "repeats": REPEATS,
        },
        "sync_scrape_seconds": sync_s,
        "cluster_scrape_seconds": cluster_s,
        "observers_off_seconds": off_s,
        "observers_on_seconds": on_s,
        "overhead_fraction": overhead,
        "overhead_bound": MAX_OVERHEAD,
    }
    with open("BENCH_cluster.json", "w") as f:
        json.dump(payload, f, indent=2)
    print("wrote BENCH_cluster.json")

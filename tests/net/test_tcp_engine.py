"""TcpBSPEngine: bit-equality with the sequential engine over real
localhost daemons, determinism certification, runner/CLI integration,
and transport-labelled telemetry.
"""

import numpy as np
import pytest

from repro.algorithms import BCProgram, PageRankProgram, betweenness_reference
from repro.algorithms import bc as bc_mod
from repro.analysis import RunConfig, run_pagerank, run_traversal
from repro.bsp import JobSpec, VertexProgram, run_job
from repro.check.sanitizer import certify_determinism
from repro.net import LocalDaemonFleet, TcpBSPEngine
from repro.obs import FlightRecorder, MetricsRegistry, to_json_dict


class _LambdaState(VertexProgram):
    """Fixture the RPC011 gate rejects: a lambda stored on ``self``."""

    def __init__(self):
        self.score = lambda x: x

    def compute(self, ctx, state, messages):
        ctx.vote_to_halt()
        return self.score(len(messages))


@pytest.fixture(scope="module")
def fleet3():
    """Three shared localhost daemons — 4 workers force multi-session."""
    fleet = LocalDaemonFleet(3)
    yield fleet
    fleet.shutdown()


def pr_job(graph, **kw):
    return JobSpec(
        program=PageRankProgram(8), graph=graph, num_workers=4, **kw
    )


class TestEquivalence:
    def test_pagerank_identical(self, small_world, fleet3):
        seq = run_job(pr_job(small_world))
        tcp = run_job(
            pr_job(small_world), engine="tcp", endpoints=fleet3.endpoints()
        )
        assert seq.values == tcp.values
        assert seq.supersteps == tcp.supersteps
        assert seq.total_time == pytest.approx(tcp.total_time)
        assert (
            seq.trace.series_messages().tolist()
            == tcp.trace.series_messages().tolist()
        )

    def test_bc_identical(self, small_world, fleet3):
        roots = range(6)
        mk = lambda: JobSpec(
            program=BCProgram(), graph=small_world, num_workers=3,
            initially_active=False,
            initial_messages=bc_mod.start_messages(roots),
        )
        seq = run_job(mk())
        tcp = run_job(mk(), engine="tcp", endpoints=fleet3.endpoints())
        assert seq.values == tcp.values
        ref = betweenness_reference(small_world, roots=roots)
        assert np.allclose(tcp.values_array(), ref, atol=1e-9)

    def test_matches_pipe_backend_exactly(self, ring10, fleet3):
        proc = run_job(pr_job(ring10), engine="process")
        tcp = run_job(pr_job(ring10), engine="tcp", endpoints=fleet3.endpoints())
        assert proc.values == tcp.values
        assert proc.total_time == pytest.approx(tcp.total_time)

    def test_auto_spawned_fleet(self, ring10):
        # No endpoints at all: the engine spawns (and tears down) its own
        # localhost daemons.
        seq = run_job(pr_job(ring10))
        tcp = run_job(pr_job(ring10), engine="tcp", auto_daemons=2)
        assert seq.values == tcp.values

    def test_certify_determinism_tcp(self, small_world):
        report = certify_determinism(
            lambda: PageRankProgram(6), small_world, num_workers=4,
            engine="tcp",
        )
        assert report.ok
        assert report.engine == "tcp"


class TestRunnerIntegration:
    def test_run_pagerank_engine_tcp(self, small_world, fleet3):
        sim = run_pagerank(small_world, RunConfig(num_workers=4), iterations=6)
        tcp = run_pagerank(
            small_world,
            RunConfig(num_workers=4, engine="tcp",
                      tcp_hosts=fleet3.endpoints()),
            iterations=6,
        )
        assert sim.values == tcp.values

    def test_run_traversal_engine_tcp(self, small_world, fleet3):
        sim = run_traversal(
            small_world, RunConfig(num_workers=3), range(4), kind="bc"
        )
        tcp = run_traversal(
            small_world,
            RunConfig(num_workers=3, engine="tcp",
                      tcp_hosts=fleet3.endpoints()),
            range(4), kind="bc",
        )
        assert sim.result.values == tcp.result.values
        assert sim.num_swaths == tcp.num_swaths

    def test_workers_file_config(self, ring10, fleet3, tmp_path):
        f = tmp_path / "workers"
        f.write_text(
            "# shared test fleet\n"
            + "\n".join(f"{h}:{p}" for h, p in fleet3.endpoints())
            + "\n"
        )
        sim = run_pagerank(ring10, RunConfig(num_workers=2), iterations=4)
        tcp = run_pagerank(
            ring10,
            RunConfig(num_workers=2, engine="tcp", tcp_hosts=str(f)),
            iterations=4,
        )
        assert sim.values == tcp.values


class TestTelemetry:
    def test_dist_metrics_carry_the_transport_label(self, ring10, fleet3):
        m = MetricsRegistry()
        run_job(
            pr_job(ring10, metrics=m), engine="tcp",
            endpoints=fleet3.endpoints(),
        )
        labelled = {
            metric["name"]
            for metric in to_json_dict(m)["metrics"]
            if metric["name"].startswith("dist_")
            and all(
                s["labels"].get("transport") == "tcp"
                for s in metric["series"]
            )
        }
        assert "dist_frames_total" in labelled
        assert "dist_workers_alive" in labelled
        assert "dist_heartbeats_total" in labelled

    def test_pipe_backend_labels_pipe(self, ring10):
        m = MetricsRegistry()
        run_job(pr_job(ring10, metrics=m), engine="process")
        for metric in to_json_dict(m)["metrics"]:
            if metric["name"] == "dist_frames_total":
                assert metric["series"][0]["labels"]["transport"] == "pipe"
                return
        pytest.fail("dist_frames_total not recorded")

    def test_flight_records_worker_connects(self, ring10, fleet3):
        flight = FlightRecorder()
        run_job(
            pr_job(ring10, flight=flight), engine="tcp",
            endpoints=fleet3.endpoints(),
        )
        connects = [
            e for e in flight.snapshot() if e.kind == "worker-connect"
        ]
        assert {e.attrs["connected_worker"] for e in connects} == {0, 1, 2, 3}
        assert all(e.attrs["transport"] == "tcp" for e in connects)
        # Endpoints name the daemon that accepted the session.
        endpoints = {f"{h}:{p}" for h, p in fleet3.endpoints()}
        assert all(e.attrs["endpoint"] in endpoints for e in connects)

    def test_worker_liveness_names_endpoints(self, ring10, fleet3):
        engine = TcpBSPEngine(pr_job(ring10), endpoints=fleet3.endpoints())
        try:
            rows = engine.worker_liveness()
            assert len(rows) == 4
            assert all(r["alive"] for r in rows)
            assert all(r["transport"] == "tcp" for r in rows)
            endpoints = {f"{h}:{p}" for h, p in fleet3.endpoints()}
            assert all(r["endpoint"] in endpoints for r in rows)
            # 4 workers on 3 daemons: at least one daemon multi-hosts.
            assert len({r["endpoint"] for r in rows}) == 3
        finally:
            engine.shutdown()


class TestClockAlignment:
    def test_handshake_synchronizes_every_channel(self, ring10, fleet3):
        engine = TcpBSPEngine(
            pr_job(ring10, flight=FlightRecorder()),
            endpoints=fleet3.endpoints(),
        )
        try:
            for h in engine._handles:
                assert h.clock.synchronized
                stats = h.clock.stats()
                assert stats["handshakes"] >= 1
                # loopback: same physical clock, so the estimate must be
                # tiny, and bounded by the exchange's own uncertainty
                assert abs(stats["offset_seconds"]) <= (
                    stats["uncertainty_seconds"] + 0.05
                )
        finally:
            engine.shutdown()

    def test_clock_sync_surfaces_in_flight_and_metrics(self, ring10, fleet3):
        flight = FlightRecorder()
        m = MetricsRegistry()
        run_job(
            pr_job(ring10, flight=flight, metrics=m), engine="tcp",
            endpoints=fleet3.endpoints(),
        )
        synced = [e for e in flight.snapshot() if e.kind == "clock-sync"]
        assert {e.attrs["synced_worker"] for e in synced} == {0, 1, 2, 3}
        assert all("offset_seconds" in e.attrs for e in synced)
        names = {
            metric["name"] for metric in to_json_dict(m)["metrics"]
        }
        assert "dist_clock_offset_seconds" in names
        assert "dist_clock_uncertainty_seconds" in names

    def test_merged_remote_events_monotonic_per_worker(self, ring10, fleet3):
        # Restamped through ClockSync, each worker's shipped events must
        # land in its own recording order on the coordinator's clock,
        # and the events_since cursor must stay monotonic.
        flight = FlightRecorder(capacity=8192)
        run_job(
            pr_job(ring10, flight=flight), engine="tcp",
            endpoints=fleet3.endpoints(),
        )
        events, cursor = flight.events_since(-1)
        assert cursor == events[-1].seq
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        per_worker: dict[int, list] = {}
        for e in events:
            if "worker_seq" in e.attrs:  # merged remote events
                per_worker.setdefault(e.worker, []).append(e)
        assert set(per_worker) == {0, 1, 2, 3}
        for evs in per_worker.values():
            # child order preserved...
            worker_seqs = [e.attrs["worker_seq"] for e in evs]
            assert worker_seqs == sorted(worker_seqs)
            # ...and the restamped coordinator-clock stamps are
            # monotonic with it (same-host daemons: offset ~0)
            hosts = [e.host for e in evs]
            assert hosts == sorted(hosts)


class TestConfigValidation:
    def test_empty_endpoint_list_rejected(self, ring10):
        with pytest.raises(ValueError, match="empty"):
            TcpBSPEngine(pr_job(ring10), endpoints=[])

    def test_unreachable_endpoints_rejected(self, ring10):
        with pytest.raises(Exception, match="no worker daemon accepted"):
            TcpBSPEngine(
                pr_job(ring10),
                endpoints=[("127.0.0.1", 1)],
                connect_timeout=0.5,
            )

    def test_gate_failure_tears_down_auto_fleet(self, ring10, monkeypatch):
        # An unpicklable program fails the RPC011 gate *before* launch:
        # no daemon fleet is spawned for it, and none leaks.
        import multiprocessing

        from repro.dist import ProgramSafetyError
        from repro.net import tcp

        spawned = []

        def spy(*args, **kwargs):
            spawned.append(args)
            return LocalDaemonFleet(*args, **kwargs)

        monkeypatch.setattr(tcp, "LocalDaemonFleet", spy)
        before = set(multiprocessing.active_children())
        with pytest.raises(ProgramSafetyError):
            TcpBSPEngine(
                JobSpec(program=_LambdaState(), graph=ring10, num_workers=2),
                auto_daemons=1,
            )
        leaked = [
            p for p in multiprocessing.active_children()
            if p not in before and p.is_alive()
        ]
        assert not leaked
        assert spawned == []

    def test_failed_constructor_closes_its_sessions(self, ring10):
        # The injection of the job's initial messages fails after both
        # sessions opened on a daemon the engine does not own: the
        # constructor must close them, with no help from the collector.
        import time

        from repro.net import probe_endpoint

        fleet = LocalDaemonFleet(1)
        try:
            endpoint = fleet.endpoints()[0]
            with pytest.raises(ValueError, match="unknown vertex"):
                TcpBSPEngine(
                    JobSpec(
                        program=PageRankProgram(3), graph=ring10,
                        num_workers=2, initial_messages=[(10**6, 1.0)],
                    ),
                    endpoints=[endpoint],
                )
            deadline = time.monotonic() + 5.0
            while (probe_endpoint(endpoint)["sessions_active"]
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert probe_endpoint(endpoint)["sessions_active"] == 0
        finally:
            fleet.shutdown()

"""Live telemetry endpoint: /metrics, /healthz and /events answer with
live values while a job is mid-run, on every execution backend."""

import json
import urllib.request

import pytest

from repro.analysis import RunConfig, run_pagerank
from repro.obs import (
    EngineHealth,
    FlightRecorder,
    LiveTelemetryServer,
    MetricsRegistry,
)


def get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


class TestEngineHealth:
    def test_snapshot_idle_then_running(self, small_world):
        health = EngineHealth()
        snap = health.snapshot()
        assert snap["state"] == "idle" and snap["ok"]
        cfg = RunConfig(num_workers=3)
        res = run_pagerank(
            small_world, cfg, iterations=4, observers=[health]
        )
        snap = health.snapshot()
        assert snap["state"] == "done"
        assert snap["superstep"] == res.supersteps - 1
        assert snap["workers"] == 3
        assert snap["workers_alive"] == 3
        assert snap["ok"]
        assert snap["sim_time"] == pytest.approx(res.total_time)

    def test_stale_boundary_reports_unhealthy(self, small_world):
        health = EngineHealth(stale_after=1e-9)
        run_pagerank(
            small_world, RunConfig(num_workers=2), iterations=3,
            observers=[health],
        )
        # state is "done", so staleness no longer matters
        assert health.snapshot()["ok"]
        health._state = "running"
        assert not health.snapshot()["ok"]

    def test_stale_after_validated(self):
        with pytest.raises(ValueError):
            EngineHealth(stale_after=0)
        with pytest.raises(ValueError):
            EngineHealth(max_heartbeat_age=0)


class FakeLivenessEngine:
    """Engine stand-in with a controllable worker_liveness() truth."""

    def __init__(self, liveness):
        self.num_workers = len(liveness)
        self._liveness = liveness

    def worker_liveness(self):
        return self._liveness


class TestHeartbeatAge:
    def _health(self, liveness, **kw):
        health = EngineHealth(**kw)
        health.on_job_start(FakeLivenessEngine(liveness))
        return health

    def test_ages_mirrored_into_gauges(self):
        reg = MetricsRegistry()
        health = self._health(
            [
                {"worker": 0, "alive": True, "heartbeat_age_seconds": 0.1},
                {"worker": 1, "alive": True, "heartbeat_age_seconds": 2.0},
            ],
            metrics=reg,
        )
        snap = health.snapshot()
        assert snap["ok"]  # no threshold set: ages are informational
        g = reg.gauge("repro_heartbeat_age_seconds", worker="1")
        assert g.value == pytest.approx(2.0)
        assert reg.gauge(
            "repro_heartbeat_age_seconds", worker="0"
        ).value == pytest.approx(0.1)

    def test_max_heartbeat_age_degrades_ok(self):
        health = self._health(
            [
                {"worker": 0, "alive": True, "heartbeat_age_seconds": 0.1},
                {"worker": 1, "alive": True, "heartbeat_age_seconds": 2.0},
            ],
            max_heartbeat_age=0.5,
        )
        snap = health.snapshot()
        assert snap["workers_lagging"] == 1
        assert not snap["ok"]
        assert snap["workers_alive"] == 2  # lagging, not dead


class TestRoutes:
    def test_unwired_routes_answer_503(self):
        with LiveTelemetryServer() as srv:
            code, body = get(f"{srv.url}/metrics")
            assert code == 503
            code, body = get(f"{srv.url}/healthz")
            assert code == 503 and not json.loads(body)["ok"]
            code, body = get(f"{srv.url}/events")
            assert code == 503

    def test_unknown_route_404_index_200(self):
        with LiveTelemetryServer() as srv:
            assert get(f"{srv.url}/nope")[0] == 404
            code, body = get(f"{srv.url}/")
            assert code == 200 and "/metrics" in body

    def test_metrics_prometheus_text(self):
        reg = MetricsRegistry()
        reg.counter("demo_total", help="demo").inc(3)
        with LiveTelemetryServer(metrics=reg) as srv:
            code, body = get(f"{srv.url}/metrics")
        assert code == 200
        assert "demo_total 3" in body

    def test_events_tail_with_cursor(self):
        flight = FlightRecorder()
        flight.record("one")
        with LiveTelemetryServer(flight=flight) as srv:
            code, body = get(f"{srv.url}/events")
            assert code == 200
            data = json.loads(body)
            assert [e["kind"] for e in data["events"]] == ["one"]
            cursor = data["cursor"]
            flight.record("two")
            code, body = get(f"{srv.url}/events?since={cursor}")
            data = json.loads(body)
            assert [e["kind"] for e in data["events"]] == ["two"]
            code, _ = get(f"{srv.url}/events?since=banana")
            assert code == 400

    def test_stop_is_idempotent(self):
        srv = LiveTelemetryServer().start()
        assert srv.running and srv.port > 0
        srv.stop()
        srv.stop()
        assert not srv.running
        with pytest.raises(RuntimeError):
            _ = srv.port


class MidRunScraper:
    """Observer that scrapes the live endpoint from inside the run loop,
    so the responses are guaranteed to describe an in-flight job."""

    def __init__(self, url: str, at_superstep: int = 1) -> None:
        self.url = url
        self.at = at_superstep
        self.scraped: dict[str, object] = {}

    def on_job_start(self, engine) -> None:
        pass

    def on_job_end(self, engine, result) -> None:
        pass

    def on_superstep_end(self, engine, stats) -> None:
        if stats.index != self.at or self.scraped:
            return
        self.scraped["metrics"] = get(f"{self.url}/metrics")
        self.scraped["healthz"] = get(f"{self.url}/healthz")
        self.scraped["events"] = get(f"{self.url}/events")

    def has_pending_work(self) -> bool:
        return False


@pytest.mark.parametrize("engine", ["sim", "process"])
class TestMidRunScrape:
    def test_all_engines_serve_live_values(self, small_world, engine):
        metrics = MetricsRegistry()
        flight = FlightRecorder()
        health = EngineHealth()
        with LiveTelemetryServer(metrics=metrics, flight=flight,
                                 health=health) as srv:
            scraper = MidRunScraper(srv.url, at_superstep=1)
            cfg = RunConfig(
                num_workers=2, engine=engine, metrics=metrics, flight=flight,
            )
            res = run_pagerank(
                small_world, cfg, iterations=5,
                observers=[health, scraper],
            )
        assert res.supersteps >= 3
        code, text = scraper.scraped["metrics"]
        assert code == 200
        assert "bsp_supersteps_total" in text
        code, text = scraper.scraped["healthz"]
        assert code == 200
        snap = json.loads(text)
        assert snap["state"] == "running"
        assert snap["superstep"] == 1
        assert snap["workers_alive"] == 2
        if engine == "process":
            # real heartbeat ages from the worker processes
            ages = [
                w["heartbeat_age_seconds"] for w in snap["worker_liveness"]
            ]
            assert len(ages) == 2 and all(a >= 0 for a in ages)
        code, text = scraper.scraped["events"]
        assert code == 200
        kinds = {e["kind"] for e in json.loads(text)["events"]}
        assert "superstep-open" in kinds

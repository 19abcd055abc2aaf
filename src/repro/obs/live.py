"""Live telemetry plane: a scrapeable HTTP endpoint for in-flight runs.

Everything else in :mod:`repro.obs` is either post-hoc (files written
after the run) or push-based (progress lines on stderr).  This module is
the *pull* side — the shape every cluster scheduler and the elastic
papers (PAPERS.md: "Elastic Resource Allocation for Distributed Graph
Processing Platforms") assume: a live endpoint that can be scraped while
the job runs.

:class:`LiveTelemetryServer` is a stdlib ``http.server`` running on a
daemon thread (bind port 0 by default — the OS picks a free port), serving:

* ``GET /metrics``  — the attached :class:`~repro.obs.MetricsRegistry` in
  Prometheus text exposition format (``to_prometheus_text``), scrapeable
  by an actual Prometheus;
* ``GET /healthz``  — JSON liveness/progress: superstep, active vertices,
  simulated time, per-worker liveness (real heartbeat ages under the
  process engine), and how long ago the engine last crossed a barrier;
* ``GET /events?since=<seq>`` — JSON tail of the attached
  :class:`~repro.obs.flight.FlightRecorder` ring; the returned ``cursor``
  feeds the next poll (monotonic across ring wraps; a wrap between polls
  is reported as a synthetic ``gap`` event);
* ``GET /sync``     — the registry as a lossless JSON snapshot, the
  merge source cluster federation scrapes;
* ``GET /cluster``  — coordinator-only fan-out: scrape every fleet
  daemon's ``/sync``, merge with ``host`` labels, render Prometheus
  text (``?format=json`` for the JSON snapshot + member summary).

:class:`EngineHealth` is the glue: a superstep observer that keeps a
thread-safe snapshot of engine progress, readable both by the HTTP
handler and in-process.

Wire it manually or via ``repro run --live-port``::

    health = EngineHealth()
    flight = FlightRecorder()
    server = LiveTelemetryServer(metrics=reg, flight=flight, health=health)
    server.start()                      # http://127.0.0.1:<server.port>
    run_job(JobSpec(..., metrics=reg, flight=flight,
                    observers=[health]))
    server.stop()
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from .cluster import snapshot_registry, snapshot_to_wire
from .export import to_prometheus_text

__all__ = ["EngineHealth", "LiveTelemetryServer"]


class EngineHealth:
    """Thread-safe ``/healthz``-equivalent snapshot of a running engine.

    Attach as an observer (``observers=[health]``); every superstep
    boundary refreshes the snapshot under a lock.  :meth:`snapshot` is
    safe from any thread and never touches engine internals beyond plain
    attribute reads — the same information the HTTP endpoint serves is
    available in-process.

    ``stale_after`` bounds how old the last boundary may be before the
    snapshot reports ``ok: false`` (a hung superstep stops crossing
    barriers but keeps the process alive — exactly the case post-hoc
    artifacts cannot see).  ``max_heartbeat_age`` (seconds) additionally
    degrades ``ok`` when any live worker's heartbeat age exceeds it,
    and with ``metrics`` attached every snapshot mirrors the ages into
    ``repro_heartbeat_age_seconds{worker=…}`` gauges so ``/healthz``
    degradation is graphable before it trips.
    """

    def __init__(
        self,
        stale_after: float = 60.0,
        max_heartbeat_age: float | None = None,
        metrics: Any = None,
    ) -> None:
        if stale_after <= 0:
            raise ValueError("stale_after must be positive")
        if max_heartbeat_age is not None and max_heartbeat_age <= 0:
            raise ValueError("max_heartbeat_age must be positive")
        self.stale_after = float(stale_after)
        self.max_heartbeat_age = (
            float(max_heartbeat_age) if max_heartbeat_age is not None
            else None
        )
        self.metrics = metrics
        self._lock = threading.Lock()
        self._engine: Any = None
        self._state = "idle"
        self._step = -1
        self._active = 0
        self._sim_time = 0.0
        self._workers = 0
        self._last_boundary = time.monotonic()

    # ---- observer protocol -------------------------------------------
    def on_job_start(self, engine) -> None:
        with self._lock:
            self._engine = engine
            self._state = "running"
            self._workers = engine.num_workers
            self._last_boundary = time.monotonic()

    def on_superstep_end(self, engine, stats) -> None:
        with self._lock:
            self._step = stats.index
            self._active = stats.active_end
            self._sim_time = stats.sim_time_end
            self._workers = stats.num_workers
            self._last_boundary = time.monotonic()

    def has_pending_work(self) -> bool:
        return False

    def on_job_end(self, engine, result) -> None:
        with self._lock:
            self._state = "done"
            self._last_boundary = time.monotonic()

    # ---- consumers ----------------------------------------------------
    def _liveness(self) -> list[dict]:
        engine = self._engine
        if engine is None:
            return []
        liveness = getattr(engine, "worker_liveness", None)
        if liveness is None:
            return []
        try:
            return liveness()
        except Exception:
            return []

    def snapshot(self) -> dict:
        """Current health as a JSON-safe dict (any thread)."""
        with self._lock:
            state = self._state
            boundary_age = time.monotonic() - self._last_boundary
            snap = {
                "state": state,
                "superstep": self._step,
                "active_vertices": self._active,
                "sim_time": self._sim_time,
                "workers": self._workers,
                "boundary_age_seconds": round(boundary_age, 3),
            }
        workers = self._liveness()
        alive = sum(1 for w in workers if w.get("alive", True))
        snap["workers_alive"] = alive if workers else snap["workers"]
        snap["worker_liveness"] = workers
        lagging = 0
        for w in workers:
            age = w.get("heartbeat_age_seconds")
            if age is None:
                continue
            if self.metrics is not None:
                self.metrics.gauge(
                    "repro_heartbeat_age_seconds",
                    help="Seconds since each worker's last heartbeat.",
                    worker=str(w.get("worker")),
                ).set(float(age))
            if (
                self.max_heartbeat_age is not None
                and w.get("alive", True)
                and float(age) > self.max_heartbeat_age
            ):
                lagging += 1
        snap["workers_lagging"] = lagging
        stalled = state == "running" and boundary_age > self.stale_after
        dead = bool(workers) and alive < len(workers)
        snap["ok"] = not (stalled or dead or lagging > 0)
        return snap


class _Handler(BaseHTTPRequestHandler):
    """Routes /metrics, /healthz, /events over the server's attachments.

    ``self.server`` is the ``ThreadingHTTPServer``; its ``owner`` attribute
    points back at the :class:`LiveTelemetryServer` holding the sinks.
    """

    def log_message(self, fmt, *args):  # pragma: no cover - silence stdlib
        pass

    def _reply(self, code: int, body: str, content_type: str) -> None:
        payload = body.encode()
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _reply_json(self, code: int, data: dict) -> None:
        self._reply(code, json.dumps(data), "application/json")

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler contract
        try:
            parsed = urlparse(self.path)
            route = parsed.path.rstrip("/") or "/"
            owner: LiveTelemetryServer = self.server.owner
            if route == "/metrics":
                if owner.metrics is None:
                    self._reply(503, "no metrics registry attached\n",
                                "text/plain; charset=utf-8")
                    return
                self._reply(
                    200, to_prometheus_text(owner.metrics),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif route == "/healthz":
                if owner.health is None:
                    self._reply_json(503, {"ok": False,
                                           "error": "no health probe attached"})
                    return
                snap = owner.health.snapshot()
                self._reply_json(200 if snap.get("ok") else 503, snap)
            elif route == "/events":
                if owner.flight is None:
                    self._reply_json(503, {"error":
                                           "no flight recorder attached"})
                    return
                query = parse_qs(parsed.query)
                try:
                    since = int(query.get("since", ["-1"])[0])
                except ValueError:
                    self._reply_json(400, {"error": "since must be an integer"})
                    return
                events, cursor = owner.flight.events_since(
                    since, mark_gaps=True
                )
                self._reply_json(200, {
                    "events": [e.to_dict() for e in events],
                    "cursor": cursor,
                    "dropped": owner.flight.dropped,
                })
            elif route == "/sync":
                # Lossless registry snapshot (JSON wire encoding) —
                # the merge source /cluster federation scrapes; the
                # Prometheus text on /metrics cannot be merged exactly.
                if owner.metrics is None:
                    self._reply_json(503, {"error":
                                           "no metrics registry attached"})
                    return
                body: dict = {
                    "snapshot": snapshot_to_wire(
                        snapshot_registry(owner.metrics)
                    ),
                }
                if owner.health is not None:
                    body["health"] = owner.health.snapshot()
                self._reply_json(200, body)
            elif route == "/cluster":
                if owner.cluster is None:
                    self._reply_json(503, {"error":
                                           "no cluster scraper attached"})
                    return
                registry, summary = owner.cluster.scrape()
                query = parse_qs(parsed.query)
                if query.get("format", [""])[0] == "json":
                    self._reply_json(200, {
                        "members": summary["members"],
                        "errors": summary["errors"],
                        "snapshot": snapshot_to_wire(
                            snapshot_registry(registry)
                        ),
                    })
                else:
                    self._reply(
                        200, to_prometheus_text(registry),
                        "text/plain; version=0.0.4; charset=utf-8",
                    )
            elif route == "/":
                self._reply(
                    200,
                    "repro live telemetry: /metrics /healthz "
                    "/events?since= /sync /cluster\n",
                    "text/plain; charset=utf-8",
                )
            else:
                self._reply(404, f"unknown route {route}\n",
                            "text/plain; charset=utf-8")
        except BrokenPipeError:  # pragma: no cover - client went away
            pass


class LiveTelemetryServer:
    """Background-thread HTTP server over the run's telemetry sinks.

    Binds ``host:port`` at :meth:`start` (port 0 = ephemeral; read the
    real one from :attr:`port`).  All attachments are optional — routes
    without a backing sink answer 503 so scrapers can tell "not wired"
    from "unhealthy".  ``stop`` is idempotent and joins the serve thread.
    """

    def __init__(
        self,
        metrics: Any = None,
        flight: Any = None,
        health: EngineHealth | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        cluster: Any = None,
    ) -> None:
        self.metrics = metrics
        self.flight = flight
        self.health = health
        #: optional :class:`~repro.obs.cluster.ClusterScraper` backing
        #: the ``/cluster`` fan-out route (coordinator-side only)
        self.cluster = cluster
        self._bind = (host, int(port))
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> "LiveTelemetryServer":
        if self._httpd is not None:
            raise RuntimeError("server already started")
        httpd = ThreadingHTTPServer(self._bind, _Handler)
        httpd.daemon_threads = True
        httpd.owner = self  # type: ignore[attr-defined]
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            name="repro-live-telemetry",
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("server not started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self._bind[0]
        return f"http://{host}:{self.port}"

    def stop(self) -> None:
        httpd, thread = self._httpd, self._thread
        self._httpd = self._thread = None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "LiveTelemetryServer":
        return self.start() if self._httpd is None else self

    def __exit__(self, *exc) -> None:
        self.stop()

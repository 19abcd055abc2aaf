"""Observability layer: phase spans, metrics, exporters, live telemetry.

The paper's entire analysis (§V-§VII) rests on per-superstep
instrumentation of the BSP engine; this package is the runtime side of
that — always-available, near-zero-cost-when-off instrumentation the
engine stack reports into:

* :mod:`repro.obs.spans` — :class:`SpanTracer`, nested engine-phase spans
  on both the simulated and the host (``perf_counter``) clock, exportable
  as JSON or Chrome ``trace_event`` files;
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of counters, gauges
  and fixed-bucket histograms populated by the engine, workers, swath
  controller and elastic engine;
* :mod:`repro.obs.export` — Prometheus text-format and JSON exporters for
  the registry;
* :mod:`repro.obs.progress` — :class:`RunReporter`, a superstep observer
  emitting throttled live progress lines to stderr;
* :mod:`repro.obs.summary` — utilization/breakdown tables from saved
  traces (backs ``repro trace summarize``);
* :mod:`repro.obs.timeline` — :class:`RunTimeline`, the structured
  per-(superstep, worker) attribution record, byte-identical across
  execution backends and rolled back with failure recovery;
* :mod:`repro.obs.diagnose` — straggler/skew detection with cause
  attribution (:class:`DiagnosticMonitor`) and critical-path breakdown;
* :mod:`repro.obs.perf` — timeline report/diff rendering (backs
  ``repro perf``);
* :mod:`repro.obs.flight` — :class:`FlightRecorder`, the always-on
  bounded ring of structured events (the crash "black box");
* :mod:`repro.obs.postmortem` — crash bundles dumped on abnormal job end
  and the incident-report renderer (backs ``repro postmortem``);
* :mod:`repro.obs.live` — :class:`LiveTelemetryServer`, a scrapeable
  ``/metrics`` + ``/healthz`` + ``/events`` HTTP endpoint for in-flight
  runs (backs ``repro run --live-port``);
* :mod:`repro.obs.cluster` — cluster telemetry plane: NTP-style
  :class:`ClockSync` remote-clock alignment, the JSON wire encoding of
  registry snapshots, and :class:`ClusterScraper` federation over every
  fleet daemon's telemetry server (backs ``/cluster`` and
  ``repro cluster status``).

Attach instruments through the job spec and read them after the run::

    from repro.obs import MetricsRegistry, SpanTracer, to_prometheus_text

    metrics, tracer = MetricsRegistry(), SpanTracer()
    run_job(JobSpec(..., metrics=metrics, tracer=tracer))
    print(to_prometheus_text(metrics))
    tracer.write_chrome_trace("run.trace.json")

The engines never call a sink: they emit a closed set of events on
:class:`repro.bsp.telemetry.Telemetry`, which feeds each *attached* sink
through one adapter.  A job with none attached dispatches every event to an
empty list and runs exactly as before.
"""

from .cluster import (
    ClockSync,
    ClusterMember,
    ClusterScraper,
    discover_members,
    snapshot_to_wire,
    wire_to_snapshot,
)
from .diagnose import (
    DiagnosticMonitor,
    StragglerFlag,
    attribute_run,
    critical_path,
    flag_stragglers_step,
    worker_skew,
)
from .export import (
    to_json_dict,
    to_prometheus_text,
    write_metrics_json,
    write_prometheus,
)
from .flight import FlightEvent, FlightRecorder, read_event_log
from .live import EngineHealth, LiveTelemetryServer
from .metrics import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .perf import perf_diff, perf_report
from .postmortem import (
    PostmortemWriter,
    build_bundle,
    load_postmortem,
    render_incident_report,
    write_postmortem,
)
from .progress import RunReporter
from .spans import Span, SpanTracer
from .summary import summarize_events, summarize_spans, summarize_trace
from .sync import apply_snapshot, snapshot_registry
from .timeline import (
    RunTimeline,
    StepMeta,
    TimelineRow,
    read_timeline,
    timeline_from_dict,
    timeline_to_dict,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "Span",
    "SpanTracer",
    "RunReporter",
    "to_prometheus_text",
    "to_json_dict",
    "write_prometheus",
    "write_metrics_json",
    "summarize_trace",
    "summarize_spans",
    "summarize_events",
    "snapshot_registry",
    "apply_snapshot",
    "RunTimeline",
    "TimelineRow",
    "StepMeta",
    "read_timeline",
    "timeline_to_dict",
    "timeline_from_dict",
    "DiagnosticMonitor",
    "StragglerFlag",
    "flag_stragglers_step",
    "attribute_run",
    "critical_path",
    "worker_skew",
    "perf_report",
    "perf_diff",
    "FlightEvent",
    "FlightRecorder",
    "read_event_log",
    "EngineHealth",
    "LiveTelemetryServer",
    "ClockSync",
    "ClusterMember",
    "ClusterScraper",
    "discover_members",
    "snapshot_to_wire",
    "wire_to_snapshot",
    "PostmortemWriter",
    "build_bundle",
    "write_postmortem",
    "load_postmortem",
    "render_incident_report",
]

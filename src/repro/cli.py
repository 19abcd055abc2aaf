"""Command-line interface for quick experiments.

Mirrors the Pregel.NET web role's job-submission surface (§III: graph file
location, application, worker count, partitioning scheme) as a CLI::

    python -m repro info --dataset WG --scale 0.3
    python -m repro generate --dataset CP --scale 0.2 --out cp.txt
    python -m repro partition --graph cp.txt --workers 8 --strategy metis
    python -m repro advise --graph cp.txt --workers 8
    python -m repro run --graph cp.txt --app pagerank --workers 8
    python -m repro run --dataset WG --app bc --roots 20 --workers 8 \\
        --sizer adaptive --initiation dynamic --trace-out trace.json
    python -m repro run --dataset WG --app pagerank --workers 4 \\
        --metrics-out m.prom --spans-out s.json --progress
    python -m repro trace summarize trace.json
    python -m repro check src/repro/algorithms examples --sanitize
    python -m repro run --dataset SD --app pagerank --sanitize
    python -m repro run --dataset WG --app bc --timeline-out tl.json
    python -m repro perf report tl.json
    python -m repro perf diff base.json new.json --threshold 0.1
    python -m repro run --dataset SD --app pagerank --live-port 0 \\
        --live-port-file port.txt --events-out events.ndjson
    python -m repro trace summarize events.ndjson
    python -m repro postmortem repro-crash.postmortem
    python -m repro worker serve --port 9001 --telemetry-port 0 \\
        --telemetry-port-file telemetry.port
    python -m repro cluster status localhost:9001 localhost:9002

``run`` prints the simulated runtime/cost summary and optionally dumps the
per-superstep trace (JSON) for plotting.  The observability flags attach
the :mod:`repro.obs` layer: ``--metrics-out`` writes the metrics registry
(Prometheus text, or JSON when the path ends in ``.json``),
``--spans-out``/``--chrome-out`` write engine phase spans (plain JSON /
Chrome ``trace_event``), ``--progress`` streams live telemetry to stderr,
and ``--check-invariants`` rides an
:class:`~repro.bsp.debug.InvariantChecker` along and fails the run (exit
code 1) on any violation.  ``trace summarize`` prints the paper-style
utilization/breakdown tables from a saved trace file.

``check`` is the Pregel-contract analyzer (:mod:`repro.check`): a static
AST pass (rules RPC001..RPC014) over vertex programs, plus — with
``--sanitize`` — the dynamic sanitizer smoke (payload-mutation
fingerprinting, 1-vs-N worker determinism diff, aggregator law probes),
and — with ``--profile`` — the static cost model per program (fan-out
class, payload bytes, combiner/aggregator inference).  ``run --sanitize``
rides the same sanitizer along a real run and fails it (exit code 1) on
any violation.

``run --timeline-out`` records the per-(superstep, worker)
:class:`~repro.obs.RunTimeline` (rows are byte-identical across
``--engine sim|process|tcp|dense-ref`` on the same seed) and rides a
:class:`~repro.obs.DiagnosticMonitor` along for online straggler flags;
``perf report`` renders a saved timeline's critical-path and straggler
attribution tables, and ``perf diff`` compares two timelines and exits 1
when any phase regressed beyond ``--threshold``.

Every ``run`` carries an always-on flight recorder (bounded event ring,
``--flight-size``; tee to NDJSON with ``--events-out``) and a postmortem
sink: an abnormal end (worker killed past its respawn budget, uncaught
compute exception, safety gate, Ctrl-C) dumps a self-contained crash
bundle to ``--postmortem-out`` and still flushes every ``--*-out``
artifact recorded so far.  ``repro postmortem <bundle>`` renders the
incident report; ``run --live-port N`` serves ``/metrics`` (Prometheus
text), ``/healthz`` (liveness/progress JSON) and ``/events?since=``
(flight tail) from a background thread while the job runs.  On a
``--engine tcp`` run with explicit hosts the live server also serves
``/cluster``: a fan-out scrape of every daemon's own telemetry server
(``worker serve --telemetry-port``) merged into one host-labelled
registry; ``repro cluster status`` prints the same merged view from
the shell.  A metrics-attached run prices every superstep as it closes,
so ``/metrics`` carries running ``repro_cost_*`` dollar gauges while the
job is in flight, ending equal to the run's cost attribution.

``run`` auto-profiles the program (disable with ``--no-profile``): the
profile is printed with the summary, recorded on the result/metrics, and
— for ``--sizer sampling``/``adaptive`` — seeds the swath sizer via
``from_profile(...)`` so the first probe swath is model-sized instead of
a blind guess.  Under ``--engine process`` the RPC011 pickle-safety gate
runs before any worker process is forked.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import RunConfig, run_pagerank, run_traversal
from .analysis.traces import read_json, write_json
from .bsp.debug import InvariantChecker
from .bsp.engine import ENGINES
from .cloud.costmodel import SCALED_PERF_MODEL
from .obs import (
    ClusterScraper,
    DiagnosticMonitor,
    EngineHealth,
    FlightRecorder,
    LiveTelemetryServer,
    MetricsRegistry,
    PostmortemWriter,
    RunReporter,
    RunTimeline,
    SpanTracer,
    discover_members,
    load_postmortem,
    perf_diff,
    perf_report,
    read_event_log,
    read_timeline,
    render_incident_report,
    summarize_events,
    summarize_trace,
    write_metrics_json,
    write_prometheus,
)
from .graph import datasets, io as graph_io, summarize
from .partition import (
    HashPartitioner,
    MultilevelPartitioner,
    PartitioningAdvisor,
    StreamingGreedy,
    evaluate,
)
from .scheduling import (
    AdaptiveSizer,
    DynamicPeakDetect,
    SamplingSizer,
    SequentialInitiation,
    StaticEveryN,
    StaticSizer,
)

__all__ = ["main", "build_parser"]

_STRATEGIES = {
    "hash": lambda seed: HashPartitioner(),
    "metis": lambda seed: MultilevelPartitioner(
        seed=seed, imbalance=1.15, refine_passes=12
    ),
    "streaming": lambda seed: StreamingGreedy(order="random", seed=seed),
}


def _load_graph(args) -> "object":
    if args.graph:
        return graph_io.read_edge_list(args.graph)
    if args.dataset:
        return datasets.load(args.dataset, scale=args.scale)
    raise SystemExit("one of --graph or --dataset is required")


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", help="edge-list file to load")
    p.add_argument(
        "--dataset", choices=sorted(datasets.DATASETS),
        help="synthetic dataset analogue (SD/WG/CP/LJ)",
    )
    p.add_argument("--scale", type=float, default=0.3, help="dataset scale knob")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="BSP graph processing on a simulated cloud"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="print a graph's Table-1-style summary")
    _add_graph_args(p)

    p = sub.add_parser("generate", help="write a dataset analogue to a file")
    _add_graph_args(p)
    p.add_argument("--out", required=True, help="output edge-list path")

    p = sub.add_parser("partition", help="partition a graph and report quality")
    _add_graph_args(p)
    p.add_argument("--workers", type=int, default=8)
    p.add_argument("--strategy", choices=sorted(_STRATEGIES), default="hash")
    p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("advise", help="recommend hash vs min-cut partitioning")
    _add_graph_args(p)
    p.add_argument("--workers", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("run", help="run an application on the simulated cloud")
    _add_graph_args(p)
    p.add_argument("--app", choices=["pagerank", "bc", "apsp"], default="pagerank")
    p.add_argument("--workers", type=int, default=8)
    p.add_argument("--strategy", choices=sorted(_STRATEGIES), default="hash")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--iterations", type=int, default=30, help="pagerank rounds")
    p.add_argument("--roots", type=int, default=20, help="bc/apsp traversal roots")
    p.add_argument(
        "--engine",
        choices=[*ENGINES, "auto"],
        default="sim",
        help="execution backend: sequential simulator, thread pool, real "
             "worker processes (repro.dist), TCP worker daemons "
             "(repro.net — see --hosts/--workers-file), the NumPy "
             "kernel-plan interpreter (refuses programs `repro check "
             "--kernel-plan` cannot lift), or 'auto' (static ranking "
             "over all of the above from the kernel-plan verdict, cost "
             "profile and topology; decision + reasons recorded in the "
             "result and flight stream) — see docs/runtime.md",
    )
    p.add_argument(
        "--hosts", metavar="HOST:PORT,...",
        help="--engine tcp: comma-separated `repro worker` daemon "
             "endpoints (default: auto-spawn localhost daemons)",
    )
    p.add_argument(
        "--workers-file", metavar="PATH",
        help="--engine tcp: file naming one daemon host:port per line "
             "(# comments allowed); alternative to --hosts",
    )
    p.add_argument(
        "--sizer", choices=["all", "static", "sampling", "adaptive"], default="all",
        help="swath-size heuristic (bc/apsp)",
    )
    p.add_argument("--swath", type=int, default=10, help="static swath size")
    p.add_argument(
        "--initiation", choices=["sequential", "static", "dynamic"],
        default="sequential",
    )
    p.add_argument("--every", type=int, default=4, help="static initiation N")
    p.add_argument(
        "--memory-mb", type=float, default=None,
        help="worker memory cap in MB (default: unconstrained)",
    )
    p.add_argument("--trace-out", help="write per-superstep trace JSON here")
    p.add_argument(
        "--timeline-out",
        help="write the per-(superstep, worker) attribution timeline "
             "(JSON) here for `repro perf report`/`diff`",
    )
    p.add_argument(
        "--metrics-out",
        help="write run metrics here (Prometheus text; JSON if path "
             "ends in .json)",
    )
    p.add_argument(
        "--spans-out", help="write engine phase spans here (JSON)"
    )
    p.add_argument(
        "--chrome-out",
        help="write phase spans in Chrome trace_event format "
             "(open in chrome://tracing or Perfetto)",
    )
    p.add_argument(
        "--progress", action="store_true",
        help="stream live per-superstep telemetry to stderr",
    )
    p.add_argument(
        "--check-invariants", action="store_true",
        help="run the engine invariant checker; exit 1 on any violation",
    )
    p.add_argument(
        "--sanitize", action="store_true",
        help="ride the vertex-program sanitizer along (payload-mutation "
             "fingerprinting + aggregator law probes); exit 1 on violations",
    )
    p.add_argument(
        "--no-profile", action="store_true",
        help="skip the static cost profile (repro.check.costmodel); "
             "disables model-seeded swath sizing",
    )
    p.add_argument(
        "--live-port", type=int, default=None, metavar="PORT",
        help="serve live telemetry (/metrics /healthz /events) on "
             "127.0.0.1:PORT while the run is in flight (0 = ephemeral)",
    )
    p.add_argument(
        "--live-port-file", metavar="PATH",
        help="write the bound live-telemetry port here (for scrapers "
             "when --live-port 0 picked an ephemeral port)",
    )
    p.add_argument(
        "--events-out", metavar="PATH",
        help="tee every flight-recorder event to an NDJSON log here "
             "(`repro trace summarize` understands the format)",
    )
    p.add_argument(
        "--flight-size", type=int, default=4096, metavar="N",
        help="flight-recorder ring capacity (drop-oldest beyond N events)",
    )
    p.add_argument(
        "--postmortem-out", default="repro-crash.postmortem", metavar="PATH",
        help="where to dump the crash bundle if the run ends abnormally "
             "(render with `repro postmortem PATH`)",
    )

    p = sub.add_parser(
        "check",
        help="Pregel-contract static analyzer (+ --sanitize dynamic smoke)",
    )
    from .check.cli import add_check_arguments

    add_check_arguments(p)

    p = sub.add_parser("trace", help="inspect saved per-superstep trace files")
    tsub = p.add_subparsers(dest="trace_command", required=True)
    ps = tsub.add_parser(
        "summarize",
        help="print the utilization/breakdown tables of a saved trace",
    )
    ps.add_argument("path", help="trace JSON written by run --trace-out")
    ps.add_argument(
        "--max-rows", type=int, default=24,
        help="per-superstep digest rows before eliding the middle",
    )

    p = sub.add_parser(
        "perf", help="analyze and diff recorded run timelines"
    )
    psub = p.add_subparsers(dest="perf_command", required=True)
    pr = psub.add_parser(
        "report",
        help="print critical-path + straggler attribution of a timeline",
    )
    pr.add_argument("path", help="timeline JSON written by run --timeline-out")
    pr.add_argument(
        "--mad-threshold", type=float, default=3.5,
        help="MAD modified z-score above which a worker flags",
    )
    pr.add_argument(
        "--min-ratio", type=float, default=1.2,
        help="minimum elapsed/median ratio for a straggler flag",
    )
    pd = psub.add_parser(
        "diff",
        help="compare two timelines; exit 1 on per-phase regression",
    )
    pd.add_argument("base", help="baseline timeline JSON")
    pd.add_argument("new", help="candidate timeline JSON")
    pd.add_argument(
        "--threshold", type=float, default=0.10,
        help="relative slowdown that counts as a regression",
    )

    p = sub.add_parser(
        "postmortem",
        help="render the incident report of a crash bundle "
             "(written by `run` on abnormal end)",
    )
    p.add_argument("path", help="bundle path (suffix .postmortem)")
    p.add_argument(
        "--last-events", type=int, default=8,
        help="flight-recorder tail length shown per worker",
    )

    p = sub.add_parser(
        "report", help="regenerate the headline experiments as markdown"
    )
    p.add_argument("--out", required=True, help="output markdown path")
    p.add_argument("--scale", type=float, default=0.2)
    p.add_argument("--workers", type=int, default=8)
    p.add_argument("--roots", type=int, default=20)

    p = sub.add_parser(
        "worker",
        help="TCP worker daemon for `repro run --engine tcp` (repro.net)",
    )
    wsub = p.add_subparsers(dest="worker_command", required=True)
    ws = wsub.add_parser(
        "serve",
        help="host PartitionWorker sessions for a remote coordinator "
             "(pickle transport: bind to trusted networks only)",
    )
    ws.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1; pickle frames execute "
             "code — never expose to an untrusted network)",
    )
    ws.add_argument(
        "--port", type=int, default=0,
        help="bind port (0 = ephemeral; see --port-file)",
    )
    ws.add_argument(
        "--port-file", metavar="PATH",
        help="write the bound port here once listening (for scripts "
             "launching with --port 0)",
    )
    ws.add_argument(
        "--max-sessions", type=int, default=None, metavar="N",
        help="refuse worker sessions beyond N at once (default: unlimited)",
    )
    ws.add_argument(
        "--telemetry-port", type=int, default=None, metavar="PORT",
        help="serve this daemon's own /metrics /healthz /events /sync "
             "on PORT (0 = ephemeral; scraped by the coordinator's "
             "/cluster route and `repro cluster status`)",
    )
    ws.add_argument(
        "--telemetry-port-file", metavar="PATH",
        help="write the bound telemetry port here (for scrapers when "
             "--telemetry-port 0 picked an ephemeral port)",
    )
    wst = wsub.add_parser(
        "status", help="probe a daemon's vitals and print them as JSON"
    )
    wst.add_argument("endpoint", help="daemon address, host:port")

    p = sub.add_parser(
        "cluster",
        help="inspect a fleet of worker daemons (repro.obs.cluster)",
    )
    csub = p.add_subparsers(dest="cluster_command", required=True)
    cs = csub.add_parser(
        "status",
        help="probe daemons, scrape their telemetry servers, and print "
             "the merged fleet status as JSON",
    )
    cs.add_argument(
        "endpoints", nargs="+", metavar="HOST:PORT",
        help="daemon endpoints to probe",
    )
    cs.add_argument(
        "--timeout", type=float, default=2.0,
        help="per-daemon probe/scrape timeout in seconds",
    )
    return parser


def _cmd_info(args) -> int:
    g = _load_graph(args)
    print(summarize(g, sample=48).row())
    return 0


def _cmd_generate(args) -> int:
    if not args.dataset:
        raise SystemExit("generate requires --dataset")
    g = datasets.load(args.dataset, scale=args.scale)
    graph_io.write_edge_list(g, args.out)
    print(f"wrote {g} to {args.out}")
    return 0


def _cmd_partition(args) -> int:
    g = _load_graph(args)
    part = _STRATEGIES[args.strategy](args.seed)
    p = part.partition(g, args.workers)
    print(evaluate(g, p, part.name).row())
    return 0


def _cmd_advise(args) -> int:
    g = _load_graph(args)
    advice = PartitioningAdvisor(seed=args.seed).advise(g, args.workers)
    print(advice.summary())
    return 0


def _make_sizer(args, roots: int, graph=None, profile=None):
    target = int(args.memory_mb * 1e6 * 6 / 7) if args.memory_mb else 1 << 40
    if args.sizer == "all":
        return StaticSizer(max(1, roots))
    if args.sizer == "static":
        return StaticSizer(args.swath)
    seeded = profile is not None and graph is not None
    if args.sizer == "sampling":
        if seeded:
            return SamplingSizer.from_profile(
                profile, target, num_vertices=graph.num_vertices,
                num_edges=graph.num_edges, num_workers=args.workers,
            )
        return SamplingSizer(target)
    if seeded:
        return AdaptiveSizer.from_profile(
            profile, target, num_vertices=graph.num_vertices,
            num_edges=graph.num_edges, num_workers=args.workers,
        )
    return AdaptiveSizer(target)


def _make_initiation(args):
    if args.initiation == "sequential":
        return SequentialInitiation()
    if args.initiation == "static":
        return StaticEveryN(args.every)
    return DynamicPeakDetect()


def _write_obs_artifacts(args, metrics, tracer, timeline, monitor) -> None:
    """Flush the attached observability sinks to their --*-out files.

    Called on success *and* from the failure path: partially-recorded
    metrics/spans/timelines from a crashed run are exactly what the
    postmortem workflow needs, so an engine failure must not lose them.
    """
    if timeline is not None:
        timeline.write_json(args.timeline_out)
        n_flags = len(monitor.flags) if monitor is not None else 0
        print(
            f"timeline written to {args.timeline_out} "
            f"({sum(len(s.workers) for s in timeline)} rows, "
            f"{n_flags} straggler flags)"
        )
    if metrics is not None and args.metrics_out:
        if args.metrics_out.endswith(".json"):
            write_metrics_json(metrics, args.metrics_out)
        else:
            write_prometheus(metrics, args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    if tracer is not None:
        if args.spans_out:
            tracer.write_json(args.spans_out)
            print(f"spans written to {args.spans_out}")
        if args.chrome_out:
            tracer.write_chrome_trace(args.chrome_out)
            print(f"chrome trace written to {args.chrome_out}")


def _cmd_run(args) -> int:
    g = _load_graph(args)
    live = args.live_port is not None
    metrics = MetricsRegistry() if (args.metrics_out or live) else None
    tracer = SpanTracer() if (args.spans_out or args.chrome_out) else None
    timeline = RunTimeline() if args.timeline_out else None
    # The flight recorder is always on for CLI runs: fixed-cost ring, and
    # the crash bundle / live /events tail are worthless without it.
    flight = FlightRecorder(capacity=args.flight_size)
    if args.events_out:
        flight.attach_sink(args.events_out)
    if metrics is not None:
        flight.bind_dropped_counter(
            metrics.counter(
                "repro_flight_dropped_total",
                help="flight events evicted from the bounded ring",
            )
        )
    postmortem = PostmortemWriter(args.postmortem_out)
    extra_observers = []
    monitor = None
    if args.timeline_out or args.progress:
        monitor = DiagnosticMonitor()
        extra_observers.append(monitor)
    if args.progress:
        extra_observers.append(RunReporter(monitor=monitor))
    checker = InvariantChecker() if args.check_invariants else None
    if checker is not None:
        extra_observers.append(checker)
    sanitizer = None
    wrap_program = None
    if args.sanitize:
        from .check import SanitizerObserver, SanitizingProgram

        # The observer binds to the wrapped program at job start.
        sanitizer = SanitizerObserver(metrics=metrics)
        wrap_program = SanitizingProgram
        extra_observers.append(sanitizer)
    tcp_hosts = None
    if getattr(args, "hosts", None):
        from .net import parse_endpoint

        tcp_hosts = [
            parse_endpoint(spec)
            for spec in args.hosts.split(",") if spec.strip()
        ]
    elif getattr(args, "workers_file", None):
        tcp_hosts = args.workers_file
    server = None
    if live:
        health = EngineHealth(metrics=metrics)
        extra_observers.append(health)
        cluster = None
        if args.engine == "tcp" and tcp_hosts is not None:
            # Federate the fleet: probe each daemon for its telemetry
            # server and let /cluster fan-out scrape the lot.
            endpoints = tcp_hosts
            if isinstance(endpoints, str):
                from .net import load_workers_file

                endpoints = load_workers_file(endpoints)
            members, errs = discover_members(endpoints)
            for name, why in errs.items():
                print(
                    f"cluster scrape disabled for {name}: {why}",
                    file=sys.stderr,
                )
            if members:
                cluster = ClusterScraper(members, local=metrics)
        server = LiveTelemetryServer(
            metrics=metrics, flight=flight, health=health,
            port=args.live_port, cluster=cluster,
        ).start()
        print(f"live telemetry at {server.url}", file=sys.stderr)
        if args.live_port_file:
            from pathlib import Path

            Path(args.live_port_file).write_text(f"{server.port}\n")
    cfg = RunConfig(
        num_workers=args.workers,
        partitioner=_STRATEGIES[args.strategy](args.seed),
        perf_model=SCALED_PERF_MODEL,
        engine=args.engine,
        tcp_hosts=tcp_hosts,
        tracer=tracer,
        metrics=metrics,
        timeline=timeline,
        flight=flight,
        postmortem=postmortem,
        auto_profile=not args.no_profile,
    )
    cfg = cfg.with_memory(
        int(args.memory_mb * 1e6) if args.memory_mb else (1 << 62)
    )
    from .bsp.dense_ref import PlanRefusedError
    from .dist import ProgramSafetyError

    try:
        try:
            if args.app == "pagerank":
                res = run_pagerank(
                    g, cfg, iterations=args.iterations,
                    observers=extra_observers, wrap_program=wrap_program,
                )
                trace = res.trace
                print(f"pagerank: {res.supersteps} supersteps")
            else:
                profile = None
                if not args.no_profile:
                    from .algorithms.apsp import APSPProgram
                    from .algorithms.bc import BCProgram
                    from .check import profile_of

                    profile = profile_of(
                        BCProgram if args.app == "bc" else APSPProgram
                    )
                run = run_traversal(
                    g, cfg, range(min(args.roots, g.num_vertices)),
                    kind=args.app,
                    sizer=_make_sizer(
                        args, args.roots, graph=g, profile=profile
                    ),
                    initiation=_make_initiation(args),
                    extra_observers=extra_observers,
                    wrap_program=wrap_program,
                )
                res = run.result
                trace = res.trace
                print(
                    f"{args.app}: {res.supersteps} supersteps, "
                    f"{run.num_swaths} swaths"
                )
        except PlanRefusedError as exc:
            # dense-ref gate: the program has no certified kernel plan;
            # the message carries the blocking rule and source span.
            print(f"repro run: {exc}", file=sys.stderr)
            print(
                "hint: `repro check --kernel-plan` explains what blocks "
                "the lift; other engines run this program unchanged",
                file=sys.stderr,
            )
            return 1
        except ProgramSafetyError as exc:
            # RPC011 gate: refused before forking any worker process (no
            # engine exists yet; the bundle carries the reason and the job).
            print(f"repro run: {exc}", file=sys.stderr)
            postmortem.dump(None, exc, job={
                "engine": args.engine, "program": exc.program_name,
                "graph": {"vertices": int(g.num_vertices),
                          "edges": int(g.num_edges)},
                "num_workers": args.workers,
            })
            print(
                f"postmortem bundle written to {postmortem.written}",
                file=sys.stderr,
            )
            return 1
        except (Exception, KeyboardInterrupt) as exc:
            # Abnormal end: the engine already dumped the postmortem via
            # its JobSpec sink; flush whatever the other sinks recorded.
            _write_obs_artifacts(args, metrics, tracer, timeline, monitor)
            if postmortem.written is not None:
                print(
                    f"postmortem bundle written to {postmortem.written} "
                    f"(render: repro postmortem {postmortem.written})",
                    file=sys.stderr,
                )
            print(
                f"repro run: {type(exc).__name__}: {exc}", file=sys.stderr
            )
            return 130 if isinstance(exc, KeyboardInterrupt) else 1
    finally:
        if server is not None:
            server.stop()
        flight.close()
    if res.engine_decision is not None:
        print(res.engine_decision.render())
    if res.profile is not None:
        print(f"profile: {res.profile.render()}")
    print(
        f"simulated time {trace.total_time:.2f}s | cost ${res.total_cost:.4f} | "
        f"messages {trace.total_messages:,} | peak worker memory "
        f"{trace.peak_memory / 1e6:.2f} MB"
    )
    print(f"cost attribution: {res.cost.summary()}")
    if args.trace_out:
        write_json(trace, args.trace_out)
        print(f"trace written to {args.trace_out}")
    _write_obs_artifacts(args, metrics, tracer, timeline, monitor)
    if args.events_out:
        print(f"events written to {args.events_out}")
    if checker is not None:
        if checker.violations:
            print(
                f"invariants: {len(checker.violations)} violation(s)",
                file=sys.stderr,
            )
            for v in checker.violations:
                print(f"  {v}", file=sys.stderr)
            return 1
        print("invariants: ok")
    if sanitizer is not None:
        if sanitizer.violations:
            print(
                f"sanitizer: {len(sanitizer.violations)} violation(s)",
                file=sys.stderr,
            )
            for v in sanitizer.violations:
                print(
                    f"  [{v.kind}] superstep {v.superstep} vertex "
                    f"{v.vertex}: {v.detail}",
                    file=sys.stderr,
                )
            return 1
        print("sanitizer: ok")
    return 0


def _cmd_check(args) -> int:
    from .check.cli import run_check

    return run_check(args)


def _looks_like_event_log(path: str) -> bool:
    """True when the first non-blank line is a one-line flight event."""
    import json

    try:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError:
                    return False
                return isinstance(data, dict) and "kind" in data
    except OSError:
        return False
    return False


def _cmd_trace(args) -> int:
    if _looks_like_event_log(args.path):
        try:
            events = read_event_log(args.path)
        except (ValueError, OSError) as exc:
            print(f"repro trace: {exc}", file=sys.stderr)
            return 2
        print(summarize_events(events))
        return 0
    trace = read_json(args.path)
    print(summarize_trace(trace, max_rows=args.max_rows))
    return 0


def _cmd_postmortem(args) -> int:
    try:
        bundle = load_postmortem(args.path)
    except (OSError, ValueError) as exc:
        print(f"repro postmortem: {exc}", file=sys.stderr)
        return 2
    print(render_incident_report(bundle, last_events=args.last_events))
    return 0


def _cmd_perf(args) -> int:
    try:
        if args.perf_command == "report":
            tl = read_timeline(args.path)
            print(
                perf_report(
                    tl,
                    mad_threshold=args.mad_threshold,
                    min_ratio=args.min_ratio,
                )
            )
            return 0
        base = read_timeline(args.base)
        new = read_timeline(args.new)
        text, regressed = perf_diff(base, new, threshold=args.threshold)
        print(text)
        return 1 if regressed else 0
    except (ValueError, OSError) as exc:
        print(f"repro perf: {exc}", file=sys.stderr)
        return 2


def _cmd_report(args) -> int:
    from pathlib import Path

    from .analysis.report import ReportConfig, generate_report

    text = generate_report(
        ReportConfig(scale=args.scale, workers=args.workers, roots=args.roots)
    )
    Path(args.out).write_text(text)
    print(f"wrote reproduction report to {args.out} ({len(text)} chars)")
    return 0


def _cmd_worker(args) -> int:
    if args.worker_command == "serve":
        from .net.daemon import serve

        return serve(
            host=args.host, port=args.port, port_file=args.port_file,
            max_sessions=args.max_sessions,
            telemetry_port=args.telemetry_port,
            telemetry_port_file=args.telemetry_port_file,
        )
    # status
    import json

    from .net import parse_endpoint, probe_endpoint
    from .net.transport import TransportError

    try:
        vitals = probe_endpoint(parse_endpoint(args.endpoint))
    except (TransportError, ValueError, OSError) as exc:
        print(f"repro worker: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(vitals, indent=2, sort_keys=True))
    return 0


def _cmd_cluster(args) -> int:
    """`repro cluster status`: probe + scrape a daemon fleet, print JSON."""
    import json

    members, errors = discover_members(args.endpoints, timeout=args.timeout)
    scraper = ClusterScraper(members, timeout=args.timeout)
    payload = scraper.status()
    payload["errors"].update(errors)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 1 if payload["errors"] else 0


_COMMANDS = {
    "info": _cmd_info,
    "generate": _cmd_generate,
    "partition": _cmd_partition,
    "advise": _cmd_advise,
    "run": _cmd_run,
    "check": _cmd_check,
    "trace": _cmd_trace,
    "perf": _cmd_perf,
    "postmortem": _cmd_postmortem,
    "report": _cmd_report,
    "worker": _cmd_worker,
    "cluster": _cmd_cluster,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests/CLI
    sys.exit(main())

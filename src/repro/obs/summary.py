"""The one reader of run files: ``repro trace summarize|report|diff``.

Every view is derived from the run file :func:`repro.analysis.traces.
write_json` writes (``repro run --trace-out``), without re-running:

* :func:`summarize_trace` — the run table, the time breakdown (Figs.
  9/12: compute + I/O against barrier and overhead, with utilization) and
  a per-superstep digest, over every row, so its totals are what the run
  took; long traces are elided around the middle;
* :func:`trace_report` — the same two tables over the committed steps
  (:func:`repro.analysis.traces.committed`), then per-worker skew and
  cost, the straggler flags with causes, the repartition hint when the
  flags support one, and the annotations;
* :func:`trace_diff` — per-phase comparison of two runs' committed
  steps; any phase (or message volume, or cost) regressing beyond
  ``threshold`` flags the diff, which the CLI turns into exit code 1.
  Phases below ``min_share`` of either run's total are ignored — a 3x
  blowup of a 0.1% phase is noise, not a regression.

``summarize_events`` digests flight-recorder NDJSON logs (``repro run
--events-out``): per-event-type counts, per-worker volume, and
inter-barrier latency percentiles.  Both readers compute quantiles
exactly from the values they hold (:func:`_quantiles`).
``repro trace summarize`` sniffs the file format and picks the right one.
"""

from __future__ import annotations

import numpy as np

from ..analysis.tables import table
from ..analysis.traces import committed, rolled_back_rows
from ..bsp.superstep import JobTrace
from ..cloud.costmeter import attribute_cost
from .diagnose import attribute_run, critical_path, dominant_cause, worker_skew

__all__ = ["PHASES", "summarize_trace", "trace_report", "trace_diff",
           "summarize_events"]

#: critical-path phases compared by trace_diff, in report order
PHASES = ("compute", "comm", "barrier", "overhead")


def _fmt_secs(x: float) -> str:
    """Four significant digits, and milliseconds from ten seconds up."""
    return f"{x:.3f}s" if abs(x) >= 10 else f"{x:.4g}s"


def _quantiles(values) -> list[float]:
    """p50, p90 and p99 of ``values`` (linear interpolation between the
    two nearest values)."""
    return np.quantile(np.asarray(values, dtype=float), (0.5, 0.9, 0.99)).tolist()


def _overview(trace: JobTrace, view: JobTrace) -> list[str]:
    """The run table and the time breakdown of ``view``, a subset of
    ``trace``'s steps; each number prints once."""
    rows = [
        ["supersteps", len(view)],
        ["workers", view.num_workers],
        ["total messages", view.total_messages],
        ["peak worker memory (MB)", view.peak_memory / 1e6],
        ["VM restarts", view.num_restarts],
    ]
    lost = rolled_back_rows(trace)
    if lost:
        rows.append(["rows rolled back by recovery", lost])
    if len(view):
        rows.append(
            ["superstep elapsed p50/p90/p99 (s)",
             "/".join(f"{q:.3g}" for q in _quantiles([s.elapsed for s in view]))]
        )
    sections = [table(["metric", "value"], rows, title="run summary")]

    cp = critical_path(view)
    total = cp["total"]
    times = [
        ("compute", cp["compute"]),
        ("comm", cp["comm"]),
        ("compute + I/O", view.busy_time_total()),
        ("barrier", cp["barrier"]),
        ("overhead", cp["overhead"]),
        ("total", total),
    ]
    sections.append(table(
        ["phase", "sim time", "share"],
        [(name, _fmt_secs(t), f"{t / total:.1%}" if total > 0 else "-")
         for name, t in times],
        title="time along the pacing worker (utilization "
              f"{cp['utilization']:.1%}, barrier-skew wait "
              f"{_fmt_secs(cp['skew_wait'])} worker-seconds)",
    ))
    return sections


def summarize_trace(trace: JobTrace, max_rows: int = 24) -> str:
    """Run table and time breakdown over every row, plus a digest."""
    sections = _overview(trace, trace)
    steps = list(trace)
    shown, elided = steps, 0
    if len(steps) > max_rows:
        head = max_rows // 2
        shown = steps[:head] + steps[len(steps) - (max_rows - head):]
        elided = len(steps) - max_rows
    per_step = table(
        ["step", "workers", "active", "msgs", "peak MB",
         "barrier s", "elapsed s", "cum sim s"],
        [
            [s.index, s.num_workers, s.active_end, s.total_messages,
             s.peak_memory / 1e6, s.barrier_time, s.elapsed, s.sim_time_end]
            for s in shown
        ],
        title="per-superstep digest",
    )
    if elided:
        per_step += f"\n({elided} middle supersteps elided)"
    sections.append(per_step)
    return "\n\n".join(sections)


def trace_report(
    trace: JobTrace,
    mad_threshold: float = 3.5,
    min_ratio: float = 1.2,
    degree_share=None,
    max_flags: int = 20,
) -> str:
    """Attribution report over a run file's committed steps.

    A run file carries no VM information, so the report prices it with
    the paper's standard fleet (large workers, small manager), the
    engines' default.  After a recovery the committed steps leave out the
    lost epoch and its restore stall, so these dollars are then below
    ``JobResult.cost``, which prices every row.
    """
    view = committed(trace)
    cost = attribute_cost(view)
    flags = attribute_run(
        view, mad_threshold=mad_threshold, min_ratio=min_ratio,
        degree_share=degree_share,
    )
    sections = _overview(trace, view)

    skew = worker_skew(view)
    per_worker_flags = [0] * view.num_workers
    for f in flags:
        per_worker_flags[f.worker] += 1
    worker_cost = {entry["worker"]: entry["total"] for entry in cost.per_worker}
    wrows = [
        (
            f"w{w}",
            _fmt_secs(float(skew["elapsed"][w])),
            _fmt_secs(float(skew["compute_time"][w])),
            _fmt_secs(float(skew["comm_time"][w])),
            int(skew["msgs_out"][w]),
            int(skew["msgs_out_remote"][w]),
            f"${worker_cost.get(w, 0.0):.4f}",
            per_worker_flags[w] or "",
        )
        for w in range(view.num_workers)
    ]
    sections.append(table(
        ["worker", "elapsed", "compute", "comm",
         "msgs out", "remote", "cost", "flags"],
        wrows,
        title="per-worker totals",
    ))
    sections.append(
        f"cost: ${cost.total:.4f} total (compute ${cost.compute:.4f}, "
        f"manager ${cost.manager:.4f}, egress ${cost.egress:.4f})"
    )

    if flags:
        cause, count = dominant_cause(flags)
        lines = [f"straggler flags ({len(flags)}; dominant cause: "
                 f"{cause} x{count}):"]
        lines += [f"  {f.line()}" for f in flags[:max_flags]]
        if len(flags) > max_flags:
            lines.append(f"  ... {len(flags) - max_flags} more")
        sections.append("\n".join(lines))
        from ..partition.advisor import repartition_hint

        hint = repartition_hint(flags, num_steps=len(view))
        if hint:
            sections.append(f"hint: {hint}")
    else:
        sections.append("straggler flags: none")

    events = getattr(trace, "events", ())
    if events:
        kinds: dict[str, int] = {}
        for e in events:
            kinds[e["kind"]] = kinds.get(e["kind"], 0) + 1
        sections.append(
            "events: "
            + ", ".join(f"{k} x{n}" for k, n in sorted(kinds.items()))
        )
    return "\n\n".join(sections)


def _delta(b: float, n: float) -> float:
    return (n - b) / b if b > 0 else (float("inf") if n > 0 else 0.0)


def _pct(delta: float) -> str:
    return f"{delta:+.1%}" if delta != float("inf") else "new"


def trace_diff(
    base: JobTrace,
    new: JobTrace,
    threshold: float = 0.10,
    min_share: float = 0.005,
) -> tuple[str, bool]:
    """Compare two runs' committed steps phase by phase.

    Returns ``(report_text, regressed)``; ``regressed`` is True when any
    phase carrying at least ``min_share`` of either run's total slowed
    down by more than ``threshold`` (relative), or total simulated time,
    message volume or cost did.
    """
    base, new = committed(base), committed(new)
    cp_base = critical_path(base)
    cp_new = critical_path(new)
    regressed = []
    rows = []
    for phase in (*PHASES, "total"):
        b, n = cp_base[phase], cp_new[phase]
        share = max(
            b / cp_base["total"] if cp_base["total"] > 0 else 0.0,
            n / cp_new["total"] if cp_new["total"] > 0 else 0.0,
        )
        delta = _delta(b, n)
        material = phase == "total" or share >= min_share
        bad = material and delta > threshold
        if bad:
            regressed.append(phase)
        rows.append((
            phase, _fmt_secs(b), _fmt_secs(n), _pct(delta),
            "REGRESSED" if bad else ("" if material else "(minor)"),
        ))
    # Dollar gating: same threshold, same default price book both sides
    # — a run that got faster but costlier (more workers, more egress)
    # still flags.
    cb, cn = attribute_cost(base).total, attribute_cost(new).total
    for name, b, n, fmt in (
        ("messages", base.total_messages, new.total_messages, str),
        ("cost", cb, cn, lambda x: f"${x:.4f}"),
    ):
        delta = _delta(b, n)
        if delta > threshold:
            regressed.append(name)
        rows.append((name, fmt(b), fmt(n), _pct(delta),
                     "REGRESSED" if delta > threshold else ""))
    rows.append(("supersteps", str(len(base)), str(len(new)), "", ""))
    text = table(
        ["phase", "base", "new", "delta", ""],
        rows,
        title=f"trace diff (threshold {threshold:.0%})",
    )
    if regressed:
        text += (
            "\n\nREGRESSION: "
            + ", ".join(regressed)
            + f" beyond {threshold:.0%}"
        )
    else:
        text += "\n\nclean: no phase regressed beyond the threshold"
    return text, bool(regressed)


def summarize_events(events, max_kinds: int = 32) -> str:
    """Digest a flight-recorder event list (see :func:`read_event_log`).

    Three tables: per-kind counts (with host-time span), per-worker event
    volume, and — when the log holds ``barrier-exit`` events — the
    inter-barrier latency distribution (host-clock gap between successive
    coordinator barrier exits) as p50/p90/p99.
    """
    events = list(events)
    if not events:
        return "event log is empty"
    sections = []

    kinds: dict[str, list[float]] = {}
    order: list[str] = []
    for e in events:
        if e.kind not in kinds:
            kinds[e.kind] = [0, e.host, e.host]
            order.append(e.kind)
        entry = kinds[e.kind]
        entry[0] += 1
        entry[1] = min(entry[1], e.host)
        entry[2] = max(entry[2], e.host)
    rows = [
        [k, kinds[k][0], kinds[k][1], kinds[k][2]]
        for k in sorted(order, key=lambda k: -kinds[k][0])[:max_kinds]
    ]
    title = f"event kinds ({len(events)} events)"
    if len(order) > max_kinds:
        title += f" — top {max_kinds} of {len(order)} kinds"
    sections.append(
        table(["kind", "count", "first s", "last s"], rows, title=title)
    )

    per_worker: dict[int, int] = {}
    for e in events:
        per_worker[e.worker] = per_worker.get(e.worker, 0) + 1
    rows = [
        ["coordinator" if w < 0 else f"worker {w}", n]
        for w, n in sorted(per_worker.items())
    ]
    sections.append(table(["source", "events"], rows, title="event sources"))

    exits = sorted(
        (e.host for e in events if e.kind == "barrier-exit" and e.worker < 0)
    )
    if len(exits) >= 2:
        gaps = _quantiles([b - a for a, b in zip(exits, exits[1:])])
        rows = [[f"p{p}", f"{q:.3g}"] for p, q in zip((50, 90, 99), gaps)]
        rows.append(["barriers", len(exits)])
        sections.append(
            table(
                ["quantile", "host s"], rows,
                title="inter-barrier latency (coordinator host clock)",
            )
        )
    return "\n\n".join(sections)

"""`repro perf`: render and diff recorded run timelines.

Two entry points, both pure functions over
:class:`~repro.obs.timeline.RunTimeline` dumps:

* :func:`perf_report` — the attribution tables: run summary,
  critical-path phase breakdown (compute / comm / barrier / overhead +
  barrier-skew utilization, Figs. 9-14 offline), per-worker skew, the
  straggler flags with causes, and the repartition hint when the flags
  support one.
* :func:`perf_diff` — per-phase comparison of two runs; any phase (or
  message volume) regressing beyond ``threshold`` flags the diff, which
  the CI smoke step turns into a failing exit code.  Phases below
  ``min_share`` of either run's total are ignored — a 3x blowup of a
  0.1% phase is noise, not a regression.
"""

from __future__ import annotations

from ..analysis.tables import table
from .diagnose import attribute_run, critical_path, dominant_cause, worker_skew

__all__ = ["perf_report", "perf_diff", "PHASES"]

#: critical-path phases compared by perf_diff, in report order
PHASES = ("compute", "comm", "barrier", "overhead")


def _fmt_secs(x: float) -> str:
    return f"{x:.4g}s"


def _cost_report(timeline):
    """Price a timeline with the default book (paper's VM flavors).

    Timeline dumps carry no VM information, so reports price them with
    the paper's standard fleet (large workers, small manager), the
    engines' default.  A timeline holds committed steps only: when a
    recovery rolled steps back this leaves out the lost epoch and its
    restore stall, so the perf dollars are then below ``JobResult.cost``,
    which prices every row of the trace.
    """
    from ..cloud.costmeter import attribute_cost

    return attribute_cost(timeline)


def perf_report(
    timeline,
    mad_threshold: float = 3.5,
    min_ratio: float = 1.2,
    degree_share=None,
    max_flags: int = 20,
) -> str:
    """Human-readable attribution report for one recorded timeline."""
    cp = critical_path(timeline)
    cost = _cost_report(timeline)
    flags = attribute_run(
        timeline,
        mad_threshold=mad_threshold,
        min_ratio=min_ratio,
        degree_share=degree_share,
    )
    sections = []

    sections.append(
        "run: "
        f"{len(timeline.steps)} supersteps x {timeline.num_workers} workers, "
        f"{_fmt_secs(cp['total'])} simulated, "
        f"{timeline.total_messages} messages, "
        f"${cost.total:.4f}"
        + (
            f", {timeline.rolled_back_rows} rows rolled back by recovery"
            if timeline.rolled_back_rows
            else ""
        )
    )

    total = cp["total"]
    rows = [
        (phase, _fmt_secs(cp[phase]),
         f"{cp[phase] / total:.1%}" if total > 0 else "-")
        for phase in PHASES
    ]
    rows.append(("total", _fmt_secs(total), "100.0%" if total > 0 else "-"))
    sections.append(
        table(["phase", "sim time", "share"], rows,
              title="critical path (pacing worker per superstep)")
    )
    sections.append(
        f"utilization {cp['utilization']:.1%} "
        f"(barrier-skew wait {_fmt_secs(cp['skew_wait'])} worker-seconds)"
    )

    skew = worker_skew(timeline)
    per_worker_flags = [0] * timeline.num_workers
    for f in flags:
        per_worker_flags[f.worker] += 1
    worker_cost = {
        entry["worker"]: entry["total"] for entry in cost.per_worker
    }
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
        for w in range(timeline.num_workers)
    ]
    sections.append(
        table(
            ["worker", "elapsed", "compute", "comm",
             "msgs out", "remote", "cost", "flags"],
            wrows,
            title="per-worker totals",
        )
    )
    sections.append("cost: " + cost.summary())

    if flags:
        cause, count = dominant_cause(flags)
        lines = [f"straggler flags ({len(flags)}; dominant cause: "
                 f"{cause} x{count}):"]
        lines += [f"  {f.line()}" for f in flags[:max_flags]]
        if len(flags) > max_flags:
            lines.append(f"  ... {len(flags) - max_flags} more")
        sections.append("\n".join(lines))
        from ..partition.advisor import repartition_hint

        hint = repartition_hint(flags, num_steps=len(timeline.steps))
        if hint:
            sections.append(f"hint: {hint}")
    else:
        sections.append("straggler flags: none")

    if timeline.events:
        kinds: dict[str, int] = {}
        for e in timeline.events:
            kinds[e["kind"]] = kinds.get(e["kind"], 0) + 1
        sections.append(
            "events: "
            + ", ".join(f"{k} x{n}" for k, n in sorted(kinds.items()))
        )
    return "\n\n".join(sections)


def perf_diff(
    base,
    new,
    threshold: float = 0.10,
    min_share: float = 0.005,
) -> tuple[str, bool]:
    """Compare two timelines phase by phase.

    Returns ``(report_text, regressed)``; ``regressed`` is True when any
    phase carrying at least ``min_share`` of either run's total slowed
    down by more than ``threshold`` (relative), or total simulated time
    or message volume did.
    """
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
        delta = (n - b) / b if b > 0 else (float("inf") if n > 0 else 0.0)
        material = phase == "total" or share >= min_share
        bad = material and delta > threshold
        if bad:
            regressed.append(phase)
        rows.append(
            (
                phase,
                _fmt_secs(b),
                _fmt_secs(n),
                f"{delta:+.1%}" if delta != float("inf") else "new",
                "REGRESSED" if bad else ("" if material else "(minor)"),
            )
        )
    mb, mn = base.total_messages, new.total_messages
    mdelta = (mn - mb) / mb if mb > 0 else (float("inf") if mn > 0 else 0.0)
    if mdelta > threshold:
        regressed.append("messages")
    rows.append(
        (
            "messages",
            str(mb),
            str(mn),
            f"{mdelta:+.1%}" if mdelta != float("inf") else "new",
            "REGRESSED" if mdelta > threshold else "",
        )
    )
    # Dollar gating: same threshold, same default price book both sides
    # — a run that got faster but costlier (more workers, more egress)
    # still flags.
    cb, cn = _cost_report(base).total, _cost_report(new).total
    cdelta = (cn - cb) / cb if cb > 0 else (float("inf") if cn > 0 else 0.0)
    if cdelta > threshold:
        regressed.append("cost")
    rows.append(
        (
            "cost",
            f"${cb:.4f}",
            f"${cn:.4f}",
            f"{cdelta:+.1%}" if cdelta != float("inf") else "new",
            "REGRESSED" if cdelta > threshold else "",
        )
    )
    rows.append(
        ("supersteps", str(len(base.steps)), str(len(new.steps)), "", "")
    )
    text = table(
        ["phase", "base", "new", "delta", ""],
        rows,
        title=f"perf diff (threshold {threshold:.0%})",
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

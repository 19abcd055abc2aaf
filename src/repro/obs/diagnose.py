"""Straggler/skew attribution and critical-path analysis over timelines.

The paper's §V-§VII diagnosis questions — *which worker is pacing the
barrier, and why* — answered online.  Works on the trace's own rows — a
:class:`~repro.bsp.superstep.SuperstepStats` and its
:class:`~repro.bsp.superstep.WorkerStepStats` — so the same code runs
inside the job as a superstep observer and offline over a saved
timeline (``repro perf report``).

Detection: per superstep, the MAD modified z-score of per-worker elapsed
times (z = 0.6745·(x−med)/MAD — robust to the one straggler it is looking
for) plus a minimum slowdown ratio so microsecond wobbles never flag.
When the fleet is too symmetric for a meaningful MAD (the common case:
identical workers + one outlier makes MAD exactly 0), the ratio test
alone decides.

Attribution walks the row's own decomposition, most-specific cause first:

* ``jitter``          — the injected multi-tenant wobble (the row records
                        the factor the engine applied);
* ``memory-pressure`` — spill slowdown from the memory model;
* ``remote-traffic``  — comm-dominated row with an outsized share of the
                        fleet's remote bytes (§VII's min-cut cure);
* ``degree-skew``     — compute-dominated row on the partition hosting an
                        outsized share of total out-degree
                        (:func:`repro.partition.metrics.part_degrees`);
* ``unknown``         — slow without a story (surfaced, never guessed).

:class:`DiagnosticMonitor` packages the detector as a superstep observer:
flags export as ``repro_straggler_flags_total{cause=}``, trace events, and
a :meth:`~DiagnosticMonitor.skew_signal` the elastic layer's
:class:`~repro.elastic.live.LiveSkewGuard` and the repartition advisor
(:func:`repro.partition.advisor.repartition_hint`) consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "StragglerFlag",
    "flag_stragglers_step",
    "attribute_run",
    "DiagnosticMonitor",
    "critical_path",
    "worker_skew",
    "dominant_cause",
]

#: slowdown factors this close to 1.0 are considered "not applied"
_FACTOR_EPS = 0.02


@dataclass(frozen=True)
class StragglerFlag:
    """One (superstep, worker) flagged as pacing the barrier."""

    superstep: int
    worker: int
    #: elapsed / median elapsed of the fleet this superstep
    ratio: float
    #: MAD modified z-score (0.0 when the fleet was too symmetric for MAD)
    z: float
    cause: str  # jitter | memory-pressure | remote-traffic | degree-skew | unknown
    detail: str

    def line(self) -> str:
        return (
            f"s{self.superstep:<4d} w{self.worker:<3d} "
            f"x{self.ratio:.2f} {self.cause} ({self.detail})"
        )


def _attribute(row, rows, degree_share) -> tuple[str, str]:
    """Why is this row slow? Most specific recorded cause wins."""
    if row.jitter_factor > 1.0 + _FACTOR_EPS:
        return "jitter", f"jitter_factor={row.jitter_factor:.2f}"
    if row.mem_slowdown > 1.0 + _FACTOR_EPS:
        return "memory-pressure", f"mem_slowdown={row.mem_slowdown:.2f}"
    comm = row.comm_time
    busy = row.compute_time + comm
    if busy <= 0:
        return "unknown", "no recorded activity"
    n = len(rows)
    if comm > row.compute_time:
        total_remote = sum(r.msgs_out_remote + r.msgs_in for r in rows)
        own_remote = row.msgs_out_remote + row.msgs_in
        share = own_remote / total_remote if total_remote > 0 else 0.0
        if n > 1 and share > 1.15 / n:
            return (
                "remote-traffic",
                f"comm {comm / busy:.0%} of busy, "
                f"{share:.0%} of fleet message traffic",
            )
    if degree_share is not None and row.worker < len(degree_share):
        share = float(degree_share[row.worker])
        if n > 1 and share > 1.15 / n:
            return (
                "degree-skew",
                f"hosts {share:.0%} of total out-degree",
            )
    total_calls = sum(r.compute_calls for r in rows)
    if n > 1 and total_calls > 0:
        share = row.compute_calls / total_calls
        if share > 1.15 / n:
            return "degree-skew", f"{share:.0%} of fleet compute calls"
    return "unknown", f"compute {row.compute_time / busy:.0%} of busy"


def flag_stragglers_step(
    step,
    mad_threshold: float = 3.5,
    min_ratio: float = 1.2,
    degree_share=None,
) -> list[StragglerFlag]:
    """Flag stragglers among one superstep's workers.

    ``step`` is a :class:`~repro.bsp.superstep.SuperstepStats`;
    ``degree_share`` is the optional per-worker fraction of total
    out-degree hosted (for degree-skew attribution).
    """
    rows = step.workers
    if len(rows) < 2:
        return []
    elapsed = np.array([r.elapsed for r in rows])
    med = float(np.median(elapsed))
    if med <= 0:
        return []
    mad = float(np.median(np.abs(elapsed - med)))
    flags = []
    for r, x in zip(rows, elapsed):
        ratio = float(x / med)
        if ratio < min_ratio:
            continue
        z = 0.6745 * (x - med) / mad if mad > 0 else 0.0
        if mad > 0 and z < mad_threshold:
            continue
        cause, detail = _attribute(r, rows, degree_share)
        flags.append(
            StragglerFlag(
                superstep=step.index,
                worker=r.worker,
                ratio=ratio,
                z=float(z),
                cause=cause,
                detail=detail,
            )
        )
    return flags


def attribute_run(
    timeline,
    mad_threshold: float = 3.5,
    min_ratio: float = 1.2,
    degree_share=None,
) -> list[StragglerFlag]:
    """Run the per-superstep detector over a whole recorded timeline."""
    flags: list[StragglerFlag] = []
    for step in timeline.steps:
        flags.extend(
            flag_stragglers_step(
                step,
                mad_threshold=mad_threshold,
                min_ratio=min_ratio,
                degree_share=degree_share,
            )
        )
    return flags


def dominant_cause(flags: Sequence[StragglerFlag]) -> tuple[str, int] | None:
    """(cause, count) of the most common attribution, or None."""
    counts: dict[str, int] = {}
    for f in flags:
        counts[f.cause] = counts.get(f.cause, 0) + 1
    if not counts:
        return None
    cause = max(counts, key=lambda c: (counts[c], c))
    return cause, counts[cause]


class DiagnosticMonitor:
    """Online straggler detector as a superstep observer.

    Attach like any observer (``observers=[DiagnosticMonitor(...)]``);
    needs no timeline — it reads each superstep's live stats.  Flags
    accumulate on :attr:`flags`, export as
    ``repro_straggler_flags_total{cause=}`` on the engine's registry and
    as ``straggler`` trace events on its tracer, and feed
    :meth:`skew_signal` — an EMA of the worst per-step slowdown ratio
    (1.0 = balanced) that :class:`~repro.elastic.live.LiveSkewGuard`
    vetoes scale-in on.  Flags of a rolled-back epoch are dropped as the
    timeline's steps are, so at job end :attr:`flags` equals
    :func:`attribute_run` over the run's timeline.
    """

    def __init__(
        self,
        mad_threshold: float = 3.5,
        min_ratio: float = 1.2,
        ema_alpha: float = 0.3,
    ) -> None:
        if not 0 < ema_alpha <= 1:
            raise ValueError("ema_alpha must be in (0, 1]")
        self.mad_threshold = float(mad_threshold)
        self.min_ratio = float(min_ratio)
        self.ema_alpha = float(ema_alpha)
        self.flags: list[StragglerFlag] = []
        self._degree_share = None
        self._skew = 1.0
        self._metrics = None
        self._tracer = None
        self._flight = None

    # ---- observer protocol -------------------------------------------
    def on_job_start(self, engine) -> None:
        self._metrics = engine.metrics
        self._tracer = engine.tracer
        self._flight = getattr(engine, "flight", None)
        self._degree_share = self._degree_share_of(engine)

    @staticmethod
    def _degree_share_of(engine):
        from ..partition.metrics import part_degrees

        deg = part_degrees(engine.graph, engine.partition)
        total = deg.sum()
        return deg / total if total > 0 else None

    def on_superstep_end(self, engine, stats) -> None:
        rows = stats.workers
        ds = self._degree_share
        if ds is None or len(ds) != stats.num_workers:
            # Elastic resize changed the fleet; re-derive the shares.
            self._degree_share = self._degree_share_of(engine)
        elapsed = [w.elapsed for w in rows]
        med = float(np.median(elapsed)) if rows else 0.0
        worst = max(elapsed) / med if med > 0 else 1.0
        self._skew += self.ema_alpha * (worst - self._skew)
        if self.flags and self.flags[-1].superstep >= stats.index:
            # The index went back: a recovery resumed here, so the flags
            # of the lost epoch roll back as the timeline's steps do.
            self._drop_from(stats.index)
        step_flags = flag_stragglers_step(
            stats,
            mad_threshold=self.mad_threshold,
            min_ratio=self.min_ratio,
            degree_share=self._degree_share,
        )
        for f in step_flags:
            self.flags.append(f)
            if self._metrics is not None:
                self._metrics.counter(
                    "repro_straggler_flags_total",
                    help="Superstep-worker pairs flagged as stragglers",
                    cause=f.cause,
                ).inc()
            if self._tracer is not None:
                self._tracer.record(
                    "straggler", sim=stats.sim_time_end, category="diagnose",
                    superstep=stats.index, worker=f.worker,
                    ratio=round(f.ratio, 3), cause=f.cause,
                )
            if self._flight is not None:
                self._flight.record(
                    "straggler", superstep=stats.index, worker=f.worker,
                    sim=stats.sim_time_end, ratio=round(f.ratio, 3),
                    cause=f.cause,
                )

    def on_job_end(self, engine, result) -> None:
        # A failure at the last boundary can roll back with no replay.
        self._drop_from(engine.superstep)

    def _drop_from(self, superstep: int) -> None:
        self.flags = [f for f in self.flags if f.superstep < superstep]

    def has_pending_work(self) -> bool:
        return False

    # ---- consumers ----------------------------------------------------
    def skew_signal(self) -> float:
        """EMA of max-elapsed/median-elapsed per superstep (1.0 = even)."""
        return self._skew

    def worst_flag(self) -> StragglerFlag | None:
        """Most severe flag so far (by slowdown ratio)."""
        return max(self.flags, key=lambda f: f.ratio, default=None)


# ----------------------------------------------------------------------
# Critical-path breakdown (Figs. 9-14, online)
# ----------------------------------------------------------------------
def critical_path(timeline) -> dict[str, float]:
    """Phase breakdown of the run's simulated wall clock.

    Each superstep's elapsed time decomposes along the *pacing* (slowest)
    worker: its compute and comm time (scaled by its spill/jitter factors,
    which stretch both proportionally), the modeled barrier, and the
    overhead charged beyond the slowest worker (checkpoints, recovery,
    restarts, elastic stalls).  ``skew_wait`` totals the other workers'
    idle time at barriers — the utilization gap of Figs. 9/12.
    """
    compute = comm = barrier = overhead = 0.0
    skew_wait = 0.0
    allocated = busy = 0.0
    for step in timeline.steps:
        rows = step.workers
        slowest = max(rows, key=lambda r: r.elapsed, default=None)
        if slowest is not None and slowest.busy_time > 0:
            stretch = slowest.mem_slowdown * slowest.jitter_factor
            compute += slowest.compute_time * stretch
            comm += slowest.comm_time * stretch
            pace = slowest.elapsed
        else:
            pace = 0.0
        barrier += step.barrier_time
        overhead += step.overhead_time + step.restart_time
        skew_wait += sum(pace - r.elapsed for r in rows)
        allocated += step.elapsed * step.num_workers
        busy += sum(r.elapsed for r in rows)
    total = sum(s.elapsed for s in timeline.steps)
    return {
        "compute": compute,
        "comm": comm,
        "barrier": barrier,
        "overhead": overhead,
        "total": total,
        "skew_wait": skew_wait,
        "utilization": busy / allocated if allocated > 0 else 0.0,
    }


def worker_skew(timeline) -> dict[str, np.ndarray]:
    """Per-worker totals over the run (Figs. 10-14's x-axis = worker id)."""
    return {
        "elapsed": timeline.per_worker_total("elapsed"),
        "compute_time": timeline.per_worker_total("compute_time"),
        "comm_time": timeline.per_worker_total("comm_time"),
        "msgs_out": timeline.per_worker_total("msgs_out"),
        "msgs_out_remote": timeline.per_worker_total("msgs_out_remote"),
        "queue_depth": timeline.per_worker_total("queue_depth"),
    }

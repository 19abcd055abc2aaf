"""Dollar attribution: timelines + egress → per-step / per-worker cost.

The paper's entire evaluation is *performance per dollar* on a public
cloud, and :class:`~repro.cloud.billing.BillingMeter` already answers
"what did the run cost?".  This module answers the follow-ups the
paper's optimization loop needs: **where** did the dollars go — which
superstep, which worker, how much of it was instance-hours vs. network
egress — using a :class:`PriceBook` (instance $/hr with billing-grain
rounding, $/GB egress; Azure-2012 defaults to match :mod:`.specs`).

:func:`attribute_cost` folds a finished run into a :class:`CostReport`;
it accepts either a :class:`~repro.obs.timeline.RunTimeline` or a raw
:class:`~repro.bsp.superstep.JobTrace` (duck-typed), so the engine can
attach a report to every :class:`~repro.bsp.job.JobResult` without
requiring a timeline sink.  :class:`CostMeter` is the *live* variant: an
engine observer that accumulates the same attribution superstep by
superstep and mirrors it into ``repro_cost_*`` gauges on a metrics
registry, so the dollar burn is visible on ``/metrics`` mid-run.

Invariant (tested): the per-superstep attributions sum *exactly* to the
report total — the billing-grain rounding surcharge is distributed
pro-rata over steps by elapsed time, never dropped or double-counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from .specs import GB, LARGE_VM, SMALL_VM, VMSpec

__all__ = [
    "PriceBook",
    "CostReport",
    "CostMeter",
    "attribute_cost",
    "DEFAULT_PRICES",
]


@dataclass(frozen=True)
class PriceBook:
    """Cloud pricing: instance $/hr, egress $/GB, billing granularity.

    ``instance_rates`` overrides hourly prices by VM spec name; specs
    not listed fall back to their own ``price_per_hour``.  The default
    ``egress_per_gb`` is the Azure-2012 outbound-data price the paper's
    deployment paid.  ``billing_grain_seconds`` rounds each instance's
    billed run duration *up* to the grain (3600 = the paper's hourly
    billing); 0 bills exact seconds.
    """

    instance_rates: Mapping[str, float] = field(default_factory=dict)
    egress_per_gb: float = 0.12
    billing_grain_seconds: float = 0.0

    def rate_per_second(self, spec: VMSpec) -> float:
        hourly = self.instance_rates.get(spec.name, spec.price_per_hour)
        return hourly / 3600.0

    def egress_cost(self, transferred_bytes: float) -> float:
        return (transferred_bytes / GB) * self.egress_per_gb

    def billed_duration(self, seconds: float) -> float:
        grain = self.billing_grain_seconds
        if grain <= 0 or seconds <= 0:
            return seconds
        return math.ceil(seconds / grain - 1e-9) * grain

    def step_cost(
        self, worker_vm: VMSpec, manager_vm: VMSpec, num_workers: int,
        elapsed: float, egress_bytes: float,
    ) -> tuple[float, float, float]:
        """``(compute, manager, egress)`` dollars of one superstep.

        Pay-as-you-go: every worker VM bills the step's full elapsed time
        (idle at the barrier is still allocated), the manager alongside;
        egress is priced on the bytes the step put on the wire.
        """
        return (
            num_workers * elapsed * self.rate_per_second(worker_vm),
            elapsed * self.rate_per_second(manager_vm),
            self.egress_cost(egress_bytes),
        )


#: Pay-per-second, spec-listed instance prices, Azure-2012 egress.
DEFAULT_PRICES = PriceBook()


@dataclass
class CostReport:
    """Per-superstep and per-worker dollar attribution for one run."""

    total: float
    compute: float
    manager: float
    egress: float
    rounding: float
    per_step: list[dict]
    per_worker: list[dict]
    prices: PriceBook
    worker_spec: str
    manager_spec: str

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "compute": self.compute,
            "manager": self.manager,
            "egress": self.egress,
            "rounding": self.rounding,
            "worker_spec": self.worker_spec,
            "manager_spec": self.manager_spec,
            "egress_per_gb": self.prices.egress_per_gb,
            "billing_grain_seconds": self.prices.billing_grain_seconds,
            "per_step": self.per_step,
            "per_worker": self.per_worker,
        }

    def summary(self) -> str:
        """One line for run footers and incident reports."""
        return (
            f"${self.total:.4f} total "
            f"(compute ${self.compute:.4f}, manager ${self.manager:.4f}, "
            f"egress ${self.egress:.4f}"
            + (
                f", grain rounding ${self.rounding:.4f}"
                if self.rounding else ""
            )
            + f") across {len(self.per_step)} supersteps"
        )


def _steps_and_rows(source: Any) -> list[tuple[int, int, float, list]]:
    """Normalize a RunTimeline or JobTrace into attribution inputs.

    Returns ``[(superstep, num_workers, elapsed, rows)]`` where each row
    is ``(worker, elapsed, bytes_out)``.  Duck-typed on the two shapes:
    a timeline has ``steps`` of ``StepMeta`` + flat ``rows``; a job
    trace has ``steps`` of ``SuperstepStats`` with nested ``workers``.
    """
    steps = getattr(source, "steps", None)
    if steps is None:
        raise TypeError(
            f"cannot attribute cost over {type(source).__name__}: "
            "expected a RunTimeline or JobTrace"
        )
    out: list[tuple[int, int, float, list]] = []
    if hasattr(source, "rows"):  # RunTimeline
        by_step: dict[int, list] = {}
        for row in source.rows:
            by_step.setdefault(int(row.superstep), []).append(
                (int(row.worker), float(row.elapsed), float(row.bytes_out))
            )
        for meta in steps:
            out.append((
                int(meta.superstep),
                int(meta.num_workers),
                float(meta.elapsed),
                by_step.get(int(meta.superstep), []),
            ))
    else:  # JobTrace
        for stats in steps:
            out.append((
                int(stats.index),
                int(stats.num_workers),
                float(stats.elapsed),
                [
                    (int(w.worker), float(w.elapsed), float(w.bytes_out))
                    for w in stats.workers
                ],
            ))
    return out


def attribute_cost(
    source: Any,
    worker_vm: VMSpec = LARGE_VM,
    manager_vm: VMSpec = SMALL_VM,
    prices: PriceBook = DEFAULT_PRICES,
) -> CostReport:
    """Fold a finished run into per-step / per-worker dollars.

    Pay-as-you-go semantics match :class:`~repro.cloud.billing.BillingMeter`:
    every worker VM is billed for the step's full elapsed time — idle at
    the barrier is still allocated — plus the manager VM alongside.
    Egress is charged where the bytes originated (per sending worker).
    A positive billing grain rounds each VM's *whole-run* allocation up;
    the surcharge is then spread over steps pro-rata by elapsed time so
    the per-step column still sums exactly to the total.
    """
    steps = _steps_and_rows(source)
    w_rate = prices.rate_per_second(worker_vm)
    m_rate = prices.rate_per_second(manager_vm)

    per_step: list[dict] = []
    worker_seconds: dict[int, float] = {}
    worker_egress: dict[int, float] = {}
    total_compute = total_manager = total_egress = 0.0
    run_seconds = 0.0
    max_workers = 0
    for index, num_workers, elapsed, rows in steps:
        compute, manager, egress = prices.step_cost(
            worker_vm, manager_vm, num_workers, elapsed,
            sum(b for _, _, b in rows),
        )
        per_step.append({
            "superstep": index,
            "elapsed": elapsed,
            "workers": num_workers,
            "compute": compute,
            "manager": manager,
            "egress": egress,
            "total": compute + manager + egress,
        })
        total_compute += compute
        total_manager += manager
        total_egress += egress
        run_seconds += elapsed
        max_workers = max(max_workers, num_workers)
        for worker, _w_elapsed, w_bytes in rows:
            # Billed for the barrier-synchronized step, not own busy time.
            worker_seconds[worker] = (
                worker_seconds.get(worker, 0.0) + elapsed
            )
            worker_egress[worker] = worker_egress.get(worker, 0.0) + w_bytes

    # Billing-grain surcharge: each instance's run allocation rounds up.
    rounding = 0.0
    if prices.billing_grain_seconds > 0 and run_seconds > 0:
        extra_wall = prices.billed_duration(run_seconds) - run_seconds
        rounding = extra_wall * (m_rate + max_workers * w_rate)
        for entry in per_step:
            share = rounding * (entry["elapsed"] / run_seconds)
            entry["rounding"] = share
            entry["total"] += share

    per_worker = [
        {
            "worker": worker,
            "billed_seconds": seconds,
            "compute": seconds * w_rate,
            "egress": prices.egress_cost(worker_egress.get(worker, 0.0)),
            "total": seconds * w_rate
            + prices.egress_cost(worker_egress.get(worker, 0.0)),
        }
        for worker, seconds in sorted(worker_seconds.items())
    ]

    return CostReport(
        total=total_compute + total_manager + total_egress + rounding,
        compute=total_compute,
        manager=total_manager,
        egress=total_egress,
        rounding=rounding,
        per_step=per_step,
        per_worker=per_worker,
        prices=prices,
        worker_spec=worker_vm.name,
        manager_spec=manager_vm.name,
    )


class CostMeter:
    """Engine observer: live dollar attribution into ``repro_cost_*``.

    Attach via ``engine.add_observer(CostMeter(registry))`` (or let the
    CLI wire it when a live server is up).  At every superstep boundary
    it prices the step exactly like :func:`attribute_cost` and updates:

    * ``repro_cost_total_dollars`` — run total so far (gauge)
    * ``repro_cost_compute_dollars`` / ``repro_cost_manager_dollars`` /
      ``repro_cost_egress_dollars`` — component breakdown (gauges)
    * ``repro_cost_superstep_dollars`` — the last step's cost (gauge)

    Grain rounding is a whole-run quantity, so the live gauges bill
    exact seconds; :meth:`finalize` (called from ``on_job_end``) adds
    the surcharge once the run duration is known.
    """

    def __init__(
        self,
        registry,
        prices: PriceBook = DEFAULT_PRICES,
        worker_vm: VMSpec | None = None,
        manager_vm: VMSpec | None = None,
    ) -> None:
        self.prices = prices
        self.worker_vm = worker_vm
        self.manager_vm = manager_vm
        self.total = 0.0
        self.compute = 0.0
        self.manager = 0.0
        self.egress = 0.0
        self.run_seconds = 0.0
        self.max_workers = 0
        self._g_total = registry.gauge(
            "repro_cost_total_dollars",
            help="Attributed run cost so far (instance time + egress).",
        )
        self._g_compute = registry.gauge(
            "repro_cost_compute_dollars",
            help="Worker instance-time dollars so far.",
        )
        self._g_manager = registry.gauge(
            "repro_cost_manager_dollars",
            help="Manager instance-time dollars so far.",
        )
        self._g_egress = registry.gauge(
            "repro_cost_egress_dollars",
            help="Network egress dollars so far.",
        )
        self._g_step = registry.gauge(
            "repro_cost_superstep_dollars",
            help="Dollar cost attributed to the latest superstep.",
        )

    # Engine-observer protocol (duck-typed; see BSPEngine.add_observer).
    def on_job_start(self, engine) -> None:
        pass

    def has_pending_work(self) -> bool:
        return False

    def on_superstep_end(self, engine, stats) -> None:
        worker_vm = self.worker_vm or engine.vm_spec
        manager_vm = self.manager_vm or engine.job.manager_vm
        elapsed = float(stats.elapsed)
        compute, manager, egress = self.prices.step_cost(
            worker_vm, manager_vm, stats.num_workers, elapsed,
            sum(float(w.bytes_out) for w in stats.workers),
        )
        self.compute += compute
        self.manager += manager
        self.egress += egress
        # Summed the way the report sums, so the two agree to the last bit.
        self.total = self.compute + self.manager + self.egress
        self.run_seconds += elapsed
        self.max_workers = max(self.max_workers, int(stats.num_workers))
        self._g_compute.set(self.compute)
        self._g_manager.set(self.manager)
        self._g_egress.set(self.egress)
        self._g_total.set(self.total)
        self._g_step.set(compute + manager + egress)

    def on_job_end(self, engine, result) -> None:
        self.finalize(
            worker_vm=self.worker_vm or engine.vm_spec,
            manager_vm=self.manager_vm or engine.job.manager_vm,
        )

    def finalize(
        self, worker_vm: VMSpec, manager_vm: VMSpec
    ) -> float:
        """Add the billing-grain surcharge; returns the final total."""
        if self.prices.billing_grain_seconds > 0 and self.run_seconds > 0:
            extra = (
                self.prices.billed_duration(self.run_seconds)
                - self.run_seconds
            )
            self.total += extra * (
                self.prices.rate_per_second(manager_vm)
                + self.max_workers * self.prices.rate_per_second(worker_vm)
            )
            self._g_total.set(self.total)
        return self.total

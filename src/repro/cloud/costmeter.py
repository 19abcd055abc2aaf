"""Dollar attribution: the one bill, priced from a run's trace.

The paper's entire evaluation is *performance per dollar* on a public
cloud, billed pro-rata per VM-second (§VIII).  :func:`step_cost` is the
only pricing function: one superstep's worker instance time, manager
instance time and network egress.  Every view of a run's cost folds the
same per-step records through it:

* :func:`attribute_cost` folds a finished run into a :class:`CostReport`
  (per superstep, per worker).  It reads the steps of a
  :class:`~repro.bsp.superstep.JobTrace` (duck-typed): the engine prices
  the whole trace into every :class:`~repro.bsp.job.JobResult`
  (``JobResult.total_cost`` is its instance part), and ``repro trace
  report`` prices a run file's committed steps only
  (:func:`repro.analysis.traces.committed`);
* with a metrics registry attached, the telemetry spine prices each step
  as it closes into the ``repro_cost_*`` gauges, so the dollar burn is
  visible on ``/metrics`` mid-run and ends equal to the report's total.

Invariant (tested): the per-superstep attributions sum to the report
total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .specs import GB, LARGE_VM, SMALL_VM, VMSpec

__all__ = [
    "EGRESS_PER_GB",
    "CostReport",
    "attribute_cost",
    "step_cost",
]

#: Outbound-data price the paper's Azure-2012 deployment paid, $/GB.
EGRESS_PER_GB = 0.12


def step_cost(
    worker_vm: VMSpec, manager_vm: VMSpec, num_workers: int, elapsed: float,
    egress_bytes: float, extra_vm_seconds: float = 0.0,
) -> tuple[float, float, float]:
    """``(compute, manager, egress)`` dollars of one superstep.

    Pay-as-you-go: every worker VM bills the step's full elapsed time
    (idle at the barrier is still allocated), the manager alongside.
    ``extra_vm_seconds`` are worker VM-seconds held beyond
    ``num_workers x elapsed`` (a scale-out's new VMs bill from
    acquisition).  Egress is priced on the bytes the step put on the wire.
    """
    return (
        (num_workers * elapsed + extra_vm_seconds) * worker_vm.price_per_second,
        elapsed * manager_vm.price_per_second,
        (egress_bytes / GB) * EGRESS_PER_GB,
    )


@dataclass
class CostReport:
    """Per-superstep and per-worker dollar attribution for one run."""

    total: float
    compute: float
    manager: float
    egress: float
    per_step: list[dict]
    per_worker: list[dict]
    worker_spec: str
    manager_spec: str

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "compute": self.compute,
            "manager": self.manager,
            "egress": self.egress,
            "worker_spec": self.worker_spec,
            "manager_spec": self.manager_spec,
            "egress_per_gb": EGRESS_PER_GB,
            "per_step": self.per_step,
            "per_worker": self.per_worker,
        }

    def summary(self) -> str:
        """One line for run footers and incident reports."""
        return (
            f"${self.total:.4f} total "
            f"(compute ${self.compute:.4f}, manager ${self.manager:.4f}, "
            f"egress ${self.egress:.4f}) across {len(self.per_step)} supersteps"
        )


def attribute_cost(
    source: Any, worker_vm: VMSpec = LARGE_VM, manager_vm: VMSpec = SMALL_VM,
) -> CostReport:
    """Fold a finished run into per-step / per-worker dollars.

    Each step is priced by :func:`step_cost`.  Egress is charged where
    the bytes originated (per sending worker).  A worker's column bills
    the steps it ran in; a scale-out's boot-time VM-seconds appear only
    in the per-step column.
    """
    steps = getattr(source, "steps", None)
    if steps is None:
        raise TypeError(
            f"cannot attribute cost over {type(source).__name__}: "
            "expected a JobTrace"
        )
    w_rate = worker_vm.price_per_second
    per_step: list[dict] = []
    worker_seconds: dict[int, float] = {}
    worker_egress: dict[int, float] = {}
    total_compute = total_manager = total_egress = 0.0
    for stats in steps:
        elapsed, num_workers = float(stats.elapsed), int(stats.num_workers)
        compute, manager, egress = step_cost(
            worker_vm, manager_vm, num_workers, elapsed,
            sum(float(w.bytes_out) for w in stats.workers),
            float(stats.extra_vm_seconds),
        )
        per_step.append({
            "superstep": int(stats.index),
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
        for w in stats.workers:
            # Billed for the barrier-synchronized step, not own busy time.
            worker_seconds[w.worker] = (
                worker_seconds.get(w.worker, 0.0) + elapsed
            )
            worker_egress[w.worker] = (
                worker_egress.get(w.worker, 0.0) + float(w.bytes_out)
            )

    per_worker = []
    for worker, seconds in sorted(worker_seconds.items()):
        egress = (worker_egress[worker] / GB) * EGRESS_PER_GB
        per_worker.append({
            "worker": worker,
            "billed_seconds": seconds,
            "compute": seconds * w_rate,
            "egress": egress,
            "total": seconds * w_rate + egress,
        })

    return CostReport(
        total=total_compute + total_manager + total_egress,
        compute=total_compute,
        manager=total_manager,
        egress=total_egress,
        per_step=per_step,
        per_worker=per_worker,
        worker_spec=worker_vm.name,
        manager_spec=manager_vm.name,
    )

"""Preemptible ("spot") VM economics for BSP jobs.

A natural question over the paper's pay-as-you-go analysis: public clouds
sell interruptible capacity at a deep discount — is checkpoint-and-restart
BSP cheap enough to exploit it?  This module models a spot market:

* spot VMs cost ``discount`` x the on-demand price;
* each VM is independently evicted as a Poisson process with rate
  ``evictions_per_hour`` (of *simulated* time);
* an eviction is a worker failure — the engine's checkpoint/rollback
  machinery (Pregel-style coordinated recovery) handles it, paying restart
  plus recomputation time.

:func:`spot_failure_schedule` converts a reference trace + eviction rate
into the engine's ``failure_schedule``; :func:`spot_price` builds the
discounted VM flavor.  ``repro.analysis.paper.spot_market`` sweeps
eviction rates to find where spot stops being worth it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..bsp.superstep import JobTrace
from .specs import VMSpec

__all__ = ["spot_price", "spot_failure_schedule", "expected_evictions"]


def spot_price(spec: VMSpec, discount: float = 0.3) -> VMSpec:
    """The spot flavor of ``spec``: same hardware, discounted price.

    ``discount`` is the *fraction of the on-demand price you pay* (0.3 =
    70% off, the typical spot ballpark).
    """
    if not 0.0 < discount <= 1.0:
        raise ValueError("discount must be in (0, 1]")
    return replace(
        spec,
        name=f"{spec.name}-spot{int(discount * 100)}",
        price_per_hour=spec.price_per_hour * discount,
    )


def expected_evictions(
    trace: JobTrace, num_workers: int, evictions_per_hour: float
) -> float:
    """Mean eviction count for a job shaped like ``trace``."""
    if evictions_per_hour < 0:
        raise ValueError("evictions_per_hour must be non-negative")
    hours = trace.total_time / 3600.0
    return evictions_per_hour * num_workers * hours


def spot_failure_schedule(
    trace: JobTrace,
    num_workers: int,
    evictions_per_hour: float,
    seed: int = 0,
) -> dict[int, int]:
    """Sample per-superstep evictions from a reference (failure-free) trace.

    Each superstep of duration ``t`` gives each worker an eviction
    probability ``1 - exp(-rate * t / 3600)``; at most one eviction per
    superstep is kept (the engine's rollback makes simultaneous failures
    equivalent to one).  Deterministic for a given seed.

    The schedule is approximate for the *recovered* run (replayed supersteps
    are not re-sampled), which makes it a slight *underestimate* of spot
    pain — noted by the bench.

    The returned dict feeds ``JobSpec.failure_schedule`` and works on
    every backend: the in-process engines *model* the eviction (charge
    rollback time, restore state), while
    :class:`repro.dist.ProcessBSPEngine` makes it real — the victim
    worker process is SIGKILLed and a replacement is restarted from the
    checkpoint (its :meth:`~repro.dist.ProcessBSPEngine.kill_worker_at`
    writes into the same schedule).
    """
    if evictions_per_hour < 0:
        raise ValueError("evictions_per_hour must be non-negative")
    rng = np.random.default_rng(seed)
    schedule: dict[int, int] = {}
    for step in trace:
        p = 1.0 - np.exp(-evictions_per_hour * step.elapsed / 3600.0)
        victims = np.flatnonzero(rng.random(num_workers) < p)
        if len(victims):
            schedule[step.index] = int(victims[0])
    return schedule

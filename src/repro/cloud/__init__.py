"""Simulated public-cloud substrate (Azure stand-in).

Deterministic models for everything the paper's evaluation depends on:
VM flavors and pricing (:mod:`specs`), the time/memory coefficient set
(:mod:`costmodel`), data-plane transfer timing (:mod:`network`), physical
memory + virtual-memory spill (:mod:`memorymodel`), pro-rata pricing of a
run's trace (:mod:`costmeter`) and elastic provisioning
(:mod:`provisioner`).  The queue-based barrier of Pregel.NET's control
plane is priced in :mod:`costmodel`.
"""

from .specs import GB, LARGE_VM, MBPS, SMALL_VM, VMSpec, scaled_large
from .costmodel import DEFAULT_PERF_MODEL, PerfModel
from .network import NetworkModel, TrafficSummary
from .memorymodel import MemoryModel, MemoryUsage
from .costmeter import EGRESS_PER_GB, CostReport, attribute_cost, step_cost
from .provisioner import ElasticProvisioner, ScaleEvent
from .spot import expected_evictions, spot_failure_schedule, spot_price

__all__ = [
    "GB",
    "MBPS",
    "LARGE_VM",
    "SMALL_VM",
    "VMSpec",
    "scaled_large",
    "DEFAULT_PERF_MODEL",
    "PerfModel",
    "NetworkModel",
    "TrafficSummary",
    "MemoryModel",
    "MemoryUsage",
    "CostReport",
    "EGRESS_PER_GB",
    "attribute_cost",
    "step_cost",
    "ElasticProvisioner",
    "ScaleEvent",
    "expected_evictions",
    "spot_failure_schedule",
    "spot_price",
]

"""VM instance specifications and pricing — Azure-2012 stand-ins.

The paper provisions *large* Azure instances for partition workers (4 cores
@ 1.6 GHz, 7 GB RAM, 400 Mbps NIC, $0.48/VM-hour) and *small* instances
(exactly one quarter of each: 1 core, 1.75 GB, 100 Mbps, $0.12/VM-hour) for
the web/manager roles.

Our dataset analogues are ~1000x smaller than the paper's SNAP graphs, so a
literal 7 GB worker would never feel memory pressure; :func:`scaled_large`
shrinks the memory capacity (and only the memory — time coefficients are
relative anyway) so the paper's *ratios* reappear at our scale.  Scenario
configs state the scale they use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["VMSpec", "LARGE_VM", "SMALL_VM", "scaled_large", "GB", "MBPS"]

GB = 1024**3
MBPS = 1_000_000 / 8  # 1 megabit/s in bytes/s


@dataclass(frozen=True)
class VMSpec:
    """A simulated VM flavor.

    ``network_bytes_per_s`` is per-VM full-duplex NIC capacity;
    ``price_per_hour`` is billed pro-rata per VM-second by
    :func:`~repro.cloud.costmeter.step_cost`.
    """

    name: str
    cores: int
    memory_bytes: int
    network_bytes_per_s: float
    price_per_hour: float

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if self.memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        if self.network_bytes_per_s <= 0:
            raise ValueError("network_bytes_per_s must be positive")
        if self.price_per_hour < 0:
            raise ValueError("price_per_hour must be non-negative")

    @property
    def price_per_second(self) -> float:
        return self.price_per_hour / 3600.0


#: The paper's large Azure instance (partition workers).
LARGE_VM = VMSpec(
    name="azure-large",
    cores=4,
    memory_bytes=7 * GB,
    network_bytes_per_s=400 * MBPS,
    price_per_hour=0.48,
)

#: The paper's small Azure instance (web UI / job manager) — one quarter.
SMALL_VM = VMSpec(
    name="azure-small",
    cores=1,
    memory_bytes=int(1.75 * GB),
    network_bytes_per_s=100 * MBPS,
    price_per_hour=0.12,
)


def scaled_large(memory_bytes: int, name: str | None = None) -> VMSpec:
    """A large-VM flavor with memory shrunk to ``memory_bytes``.

    Used by scenarios to map the paper's 7 GB physical / 6 GB target regime
    onto our scaled-down graphs; all other resources keep the large-VM shape.
    """
    return replace(
        LARGE_VM,
        name=name or f"azure-large-mem{memory_bytes}",
        memory_bytes=int(memory_bytes),
    )

"""repro.dist: distributed BSP runtime (real worker processes).

The execution backend next to the sequential
:class:`~repro.bsp.engine.BSPEngine`: :class:`ProcessBSPEngine` runs each partition worker behind one of two
transports (:mod:`repro.net`) — forked local processes reached over a
``socketpair`` by default, ``repro worker`` TCP daemons via
:class:`repro.net.TcpBSPEngine` — with bulk frame transport
(:mod:`repro.net.codec`), heartbeat failure detection, and checkpointed
recovery that restarts replacement workers.  ``docs/runtime.md``
compares the engines.
"""

from .engine import (
    ChildError,
    ProcessBSPEngine,
    ProgramSafetyError,
    WorkerFailure,
)

__all__ = [
    "ProcessBSPEngine",
    "WorkerFailure",
    "ChildError",
    "ProgramSafetyError",
]

"""repro.dist: distributed BSP runtime (real worker processes).

The third execution backend next to the sequential
:class:`~repro.bsp.engine.BSPEngine` and the thread-pool
:class:`~repro.bsp.parallel.ThreadedBSPEngine`:
:class:`ProcessBSPEngine` runs each partition worker behind a pluggable
transport (:mod:`repro.net`) — forked local processes with pipe frames
by default, ``repro worker`` TCP daemons via
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

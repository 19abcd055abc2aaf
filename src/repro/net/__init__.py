"""repro.net: the cluster runtime — codecs, transports, daemons, TCP engine.

The distributed engine (:mod:`repro.dist`) is split into layers here so
the coordinator logic is transport-agnostic:

* :mod:`repro.net.codec` — the pickle-5 out-of-band frame codec shared
  by every transport, plus stream framing for byte-oriented channels;
* :mod:`repro.net.transport` — the :class:`Transport` interface and
  the :class:`PipeTransport` (forked local processes) backend;
* :mod:`repro.net.session` — the worker-side command state machine,
  shared by the forked child and the TCP daemon;
* :mod:`repro.net.daemon` — the ``repro worker`` asyncio TCP daemon and
  :func:`host_session`, the session loop forked workers run too;
* :mod:`repro.net.tcp` — :class:`TcpChannel`, the coordinator's one
  channel class (a forked worker's too), the TCP transport and the
  local daemon fleet it spawns and owns, and daemon probing;
* :mod:`repro.net.engine` — :class:`TcpBSPEngine`
  (``repro run --engine tcp``).

**Security caveat**: frames are pickles.  Run daemons on localhost or a
trusted private network only (docs/runtime.md § TCP runtime).
"""

from .codec import (
    FrameError,
    FrameTooLarge,
    StreamDecoder,
    encode_stream_frame,
    pack_frame,
    unpack_frame,
)
from .daemon import PROTOCOL_VERSION, WorkerDaemon, host_session, serve
from .session import WorkerSession
from .tcp import (
    LocalDaemonFleet,
    TcpChannel,
    TcpTransport,
    load_workers_file,
    parse_endpoint,
    probe_endpoint,
)
from .transport import (
    PipeTransport,
    Transport,
    TransportClosed,
    TransportError,
    WorkerInit,
    monotonic_now,
)

__all__ = [
    "FrameError",
    "FrameTooLarge",
    "LocalDaemonFleet",
    "PROTOCOL_VERSION",
    "PipeTransport",
    "StreamDecoder",
    "TcpBSPEngine",
    "TcpChannel",
    "TcpTransport",
    "Transport",
    "TransportClosed",
    "TransportError",
    "WorkerDaemon",
    "WorkerInit",
    "WorkerSession",
    "encode_stream_frame",
    "host_session",
    "load_workers_file",
    "monotonic_now",
    "pack_frame",
    "parse_endpoint",
    "probe_endpoint",
    "serve",
    "unpack_frame",
]


def __getattr__(name: str):
    # TcpBSPEngine pulls in repro.dist (which imports repro.net.transport);
    # resolving it lazily keeps `import repro.dist` and `import repro.net`
    # both cycle-free regardless of which loads first.
    if name == "TcpBSPEngine":
        from .engine import TcpBSPEngine

        return TcpBSPEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

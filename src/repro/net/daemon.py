"""``repro worker`` — the TCP worker daemon (asyncio).

One daemon process listens on a host:port and hosts worker *sessions*: a
coordinator connects one TCP socket per worker it wants this daemon to
run, performs a ``hello`` handshake carrying the
:class:`~repro.net.transport.WorkerInit` payload, and then drives the
standard ``(cmd, epoch, payload)`` command protocol.  Each session runs
a :class:`~repro.net.session.WorkerSession` — the exact command state
machine the forked pipe backend runs — with ``compute()`` executed in a
thread-pool executor so sessions on one daemon overlap and the event
loop stays responsive for heartbeats.

Wire format: codec frames with an outer ``[u64 len]`` prefix
(:func:`repro.net.codec.encode_stream_frame`).  The daemon multiplexes
heartbeat frames ``("hb", -1, n)`` onto the reply stream every
``heartbeat_interval`` seconds; the coordinator's channel routes them to
its liveness clock instead of the reply inbox.

Connection lifecycle: a dropped socket (coordinator gone) silently ends
the session; a ``stop`` command is acknowledged with ``bye`` and ends
the session while the daemon keeps serving.  A ``("status", 0, None)``
probe on a fresh connection answers with daemon vitals and closes.

**Security caveat** — frames are pickles: anyone who can reach the port
can execute code in the daemon.  Bind to localhost or a trusted private
network only (see docs/runtime.md).
"""

from __future__ import annotations

import asyncio
import os
import sys
from pathlib import Path
from typing import Any

from .codec import (
    MAX_FRAME_BYTES,
    STREAM_HEADER,
    FrameError,
    FrameTooLarge,
    encode_stream_frame,
    unpack_frame,
)
from .transport import monotonic_now

__all__ = ["PROTOCOL_VERSION", "WorkerDaemon", "serve"]

#: Handshake protocol version; a coordinator/daemon mismatch refuses the
#: session rather than failing mid-superstep.  v2 added clock-alignment
#: stamps to the ready payload and heartbeat frames (dict payload); v3
#: dropped the worker-side metrics registry (``WorkerInit.want_metrics``
#: and the ``metrics`` field of the ``delivered`` reply).
PROTOCOL_VERSION = 3


async def read_stream_frame(
    reader: asyncio.StreamReader,
    max_frame: int = MAX_FRAME_BYTES,
    *,
    copy: bool = True,
) -> tuple:
    """Read one length-prefixed frame from an asyncio stream.

    ``copy=True`` hands back writable buffers: daemon-side state (graph
    columns, vertex state arrays from a checkpoint restore) must stay
    mutable, unlike coordinator-side message payloads which are read-only
    by contract.
    """
    header = await reader.readexactly(STREAM_HEADER.size)
    (frame_len,) = STREAM_HEADER.unpack(header)
    if frame_len > max_frame:
        raise FrameTooLarge(
            f"incoming frame declares {frame_len} bytes, limit is {max_frame}"
        )
    blob = await reader.readexactly(frame_len)
    return unpack_frame(blob, copy=copy)


class WorkerDaemon:
    """Asyncio TCP server hosting PartitionWorker sessions."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_sessions: int | None = None,
    ) -> None:
        self.host = host
        self.port = port  # rewritten with the bound port after start()
        self.max_sessions = max_sessions
        self.sessions_active = 0
        self.sessions_served = 0
        self.heartbeats_sent = 0
        self._server: asyncio.AbstractServer | None = None
        # Optional per-daemon telemetry (attach_telemetry): advertised in
        # status() so coordinators can discover the scrape surface.
        self.telemetry_port: int | None = None
        self.flight = None
        self._m_sessions_active = None
        self._m_sessions_total = None
        self._m_heartbeats = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connect, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def status(self) -> dict[str, Any]:
        return {
            "version": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "endpoint": self.endpoint,
            "sessions_active": self.sessions_active,
            "sessions_served": self.sessions_served,
            "max_sessions": self.max_sessions,
            "telemetry_port": self.telemetry_port,
        }

    def attach_telemetry(self, registry, flight=None) -> None:
        """Wire daemon vitals into a metrics registry (and flight ring).

        Call after :meth:`start` so the bound endpoint is known — it
        becomes the ``host`` label every federated scrape keys on.
        """
        labels = {"host": self.endpoint, "transport": "tcp"}
        self._m_sessions_active = registry.gauge(
            "repro_daemon_sessions_active",
            help="Worker sessions currently hosted by this daemon.",
            **labels,
        )
        self._m_sessions_total = registry.counter(
            "repro_daemon_sessions_total",
            help="Worker sessions accepted since daemon start.",
            **labels,
        )
        self._m_heartbeats = registry.counter(
            "repro_daemon_heartbeats_sent_total",
            help="Heartbeat frames multiplexed onto reply streams.",
            **labels,
        )
        self.flight = flight
        if flight is not None:
            flight.record("daemon-start", endpoint=self.endpoint)

    # ------------------------------------------------------------------
    async def _on_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                kind, _epoch, payload = await read_stream_frame(reader)
            except (asyncio.IncompleteReadError, FrameError, ConnectionError):
                return
            # NTP-style t1: daemon clock at hello receipt.  Stamped here,
            # before session construction, so handshake clock alignment
            # excludes the (potentially heavy) graph unpickling below.
            clock_recv = monotonic_now()
            if kind == "status":
                writer.write(
                    encode_stream_frame(("status-reply", 0, self.status()))
                )
                await writer.drain()
                return
            if kind != "hello":
                writer.write(encode_stream_frame(
                    ("error", 0, f"expected hello or status, got {kind!r}")
                ))
                await writer.drain()
                return
            refusal = self._refuse_hello(payload)
            if refusal is not None:
                writer.write(encode_stream_frame(("error", 0, refusal)))
                await writer.drain()
                return
            await self._serve_session(reader, writer, payload, clock_recv)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _refuse_hello(self, payload: Any) -> str | None:
        if not isinstance(payload, dict):
            return "malformed hello payload"
        version = payload.get("version")
        if version != PROTOCOL_VERSION:
            return (
                f"protocol version mismatch: coordinator speaks {version}, "
                f"daemon speaks {PROTOCOL_VERSION}"
            )
        if (
            self.max_sessions is not None
            and self.sessions_active >= self.max_sessions
        ):
            return (
                f"daemon at capacity ({self.sessions_active}/"
                f"{self.max_sessions} sessions)"
            )
        return None

    async def _serve_session(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        hello: dict,
        clock_recv: float,
    ) -> None:
        from .session import WorkerSession

        init = hello["init"]
        loop = asyncio.get_running_loop()
        # Session construction can be heavy (graph arrives in the hello);
        # keep the loop free for other sessions' heartbeats.
        session = await loop.run_in_executor(
            None,
            lambda: WorkerSession(
                init.worker_id, init.graph, init.vertex_ids, init.program,
                init.model, init.assignment, init.active_ids,
                want_flight=init.want_flight,
            ),
        )
        self.sessions_active += 1
        self.sessions_served += 1
        if self._m_sessions_active is not None:
            self._m_sessions_active.set(self.sessions_active)
            self._m_sessions_total.inc()
        if self.flight is not None:
            self.flight.record("session-open", worker=init.worker_id)
        writer.write(encode_stream_frame(("ready", 0, {
            "pid": os.getpid(),
            "endpoint": self.endpoint,
            "worker_id": init.worker_id,
            # Clock-alignment stamps: t1 (hello receipt) and t2 (ready
            # send) on this host's liveness clock.  t2 is read here —
            # after session construction — so the coordinator's NTP
            # arithmetic subtracts the build time from the RTT.
            "clock_recv": clock_recv,
            "clock_send": monotonic_now(),
            # The session recorder's epoch on the same clock: lets the
            # coordinator turn shipped flight-event offsets into
            # absolute remote time for restamping.
            "flight_epoch": (
                session.flight.epoch if session.flight is not None else None
            ),
        })))
        await writer.drain()
        stop = asyncio.Event()
        hb_task = asyncio.create_task(self._heartbeats(
            writer, float(init.heartbeat_interval), session.flight, stop
        ))
        try:
            while True:
                try:
                    cmd, epoch, payload = await read_stream_frame(reader)
                except (
                    asyncio.IncompleteReadError, FrameError, ConnectionError
                ):
                    return  # coordinator went away; drop the session
                reply = await loop.run_in_executor(
                    None, session.handle, cmd, epoch, payload
                )
                try:
                    writer.write(encode_stream_frame(reply))
                    await writer.drain()
                except (ConnectionError, OSError):
                    return
                if cmd == "stop":
                    return
        finally:
            stop.set()
            hb_task.cancel()
            self.sessions_active -= 1
            if self._m_sessions_active is not None:
                self._m_sessions_active.set(self.sessions_active)
            if self.flight is not None:
                self.flight.record("session-close", worker=init.worker_id)

    async def _heartbeats(
        self,
        writer: asyncio.StreamWriter,
        interval: float,
        flight,
        stop: asyncio.Event,
    ) -> None:
        """Multiplex ``("hb", -1, {...})`` frames onto the reply stream.

        The payload carries this host's liveness-clock reading — each
        arrival gives the coordinator a one-way clock sample for drift
        tracking on long runs.  No ``drain()``: a concurrent drain with
        the session loop's is not allowed on every Python, and heartbeat
        frames are tiny — the transport buffer absorbs them even under
        backpressure.
        """
        beats = 0
        try:
            while not stop.is_set():
                await asyncio.sleep(interval)
                writer.write(encode_stream_frame(
                    ("hb", -1, {"n": beats, "clock": monotonic_now()})
                ))
                beats += 1
                self.heartbeats_sent += 1
                if self._m_heartbeats is not None:
                    self._m_heartbeats.inc()
                if flight is not None:
                    flight.record("heartbeat-send", beats=beats)
        except (ConnectionError, OSError, asyncio.CancelledError):
            return


class _DaemonHealth:
    """Duck-typed health source for a daemon's ``/healthz`` route."""

    def __init__(self, daemon: WorkerDaemon) -> None:
        self._daemon = daemon

    def snapshot(self) -> dict[str, Any]:
        status = self._daemon.status()
        at_capacity = (
            self._daemon.max_sessions is not None
            and self._daemon.sessions_active >= self._daemon.max_sessions
        )
        status["state"] = "serving"
        status["at_capacity"] = at_capacity
        status["ok"] = not at_capacity
        return status


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    port_file: str | None = None,
    max_sessions: int | None = None,
    telemetry_port: int | None = None,
    telemetry_port_file: str | None = None,
) -> int:
    """Blocking daemon entry point (``repro worker serve``).

    Binds, announces the endpoint on stderr, optionally writes the bound
    port to ``port_file`` (so scripts can launch with ``--port 0`` and
    discover the port), then serves until interrupted.  With
    ``telemetry_port`` (0 = ephemeral) the daemon also hosts its own
    :class:`~repro.obs.live.LiveTelemetryServer` — the per-host scrape
    surface the coordinator's ``/cluster`` route federates.
    """

    async def main() -> None:
        daemon = WorkerDaemon(host=host, port=port, max_sessions=max_sessions)
        await daemon.start()
        telemetry = None
        if telemetry_port is not None:
            from ..obs.flight import FlightRecorder
            from ..obs.live import LiveTelemetryServer
            from ..obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
            flight = FlightRecorder(capacity=1024, clock=monotonic_now)
            daemon.attach_telemetry(registry, flight)
            telemetry = LiveTelemetryServer(
                metrics=registry,
                flight=flight,
                health=_DaemonHealth(daemon),
                host=host,
                port=telemetry_port,
            )
            telemetry.start()
            daemon.telemetry_port = telemetry.port
            if telemetry_port_file:
                Path(telemetry_port_file).write_text(f"{telemetry.port}\n")
        print(
            f"repro worker: listening on {daemon.endpoint} "
            + (
                f"(telemetry on :{daemon.telemetry_port}) "
                if telemetry is not None else ""
            )
            + "(pickle transport — trusted networks only)",
            file=sys.stderr, flush=True,
        )
        if port_file:
            Path(port_file).write_text(f"{daemon.port}\n")
        try:
            await daemon.serve_forever()
        finally:
            if telemetry is not None:
                telemetry.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    return 0


def _daemon_process_main(host: str, port_conn, max_sessions) -> None:
    """Entry point for in-process-spawned local daemons (test/auto fleets)."""

    async def main() -> None:
        daemon = WorkerDaemon(host=host, port=0, max_sessions=max_sessions)
        await daemon.start()
        port_conn.send(daemon.port)
        port_conn.close()
        await daemon.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass

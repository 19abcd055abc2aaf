"""Child-process side of the pipe (fork) transport.

:func:`worker_main` is the entry point each forked worker process runs.
The command protocol itself — inject/compute/deliver/snapshot/restore/
extract/stop with epoch-tagged replies — lives in the transport-shared
:class:`repro.net.session.WorkerSession`; this module only supplies the
pipe plumbing around it: frame I/O on the duplex command pipe, the
heartbeat thread on its dedicated pipe, and stdout/stderr capture.

A worker process must never write to the shared stdout/stderr —
concurrent children interleave mid-line and corrupt the parent's progress
display.  Everything (user ``print()`` in compute(), library chatter) is
captured and shipped to the coordinator at each barrier, which emits it
atomically with a ``[worker N]`` prefix.

A daemon thread sends a heartbeat byte on the dedicated pipe every
``heartbeat_interval`` seconds; the parent tracks receive times on the
monotonic clock to detect hung (not just dead) workers.
"""

from __future__ import annotations

import io
import sys
import threading

from ..net.codec import pack_frame, unpack_frame
from ..net.session import WorkerSession

__all__ = ["worker_main"]


def _heartbeat_loop(
    conn, interval: float, stop: threading.Event, flight=None
) -> None:
    beats = 0
    while not stop.wait(interval):
        try:
            conn.send_bytes(b"\x01")
        except (BrokenPipeError, OSError):
            return
        beats += 1
        if flight is not None:
            flight.record("heartbeat-send", beats=beats)


def worker_main(
    worker_id: int,
    conn,
    hb_conn,
    graph,
    vertex_ids,
    program,
    model,
    assignment,
    active_ids,
    heartbeat_interval: float,
    want_flight: bool = False,
) -> None:
    """Command loop for one worker process (the child's ``main``)."""
    captured = io.StringIO()
    sys.stdout = sys.stderr = captured

    def _drain_output() -> str:
        text = captured.getvalue()
        if text:
            captured.seek(0)
            captured.truncate()
        return text

    session = WorkerSession(
        worker_id, graph, vertex_ids, program, model, assignment, active_ids,
        want_flight=want_flight, drain_output=_drain_output,
    )

    stop = threading.Event()
    threading.Thread(
        target=_heartbeat_loop,
        args=(hb_conn, heartbeat_interval, stop, session.flight),
        daemon=True,
    ).start()

    try:
        while True:
            cmd, epoch, payload = unpack_frame(conn.recv_bytes())
            conn.send_bytes(pack_frame(session.handle(cmd, epoch, payload)))
            if cmd == "stop":
                return
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # coordinator went away; exit quietly
    finally:
        stop.set()

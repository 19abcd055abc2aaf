"""Cluster-wide telemetry plane for the multi-host TCP runtime.

Three concerns live here, all coordinator-side:

* :class:`ClockSync` — an NTP-style offset/uncertainty estimator fed by
  the hello handshake (four-timestamp exchange) and by one-way clock
  stamps piggybacked on heartbeat frames.  Remote flight events and
  worker-compute spans are restamped into the coordinator's timebase so
  a merged trace is monotonic in a single clock.
* registry *snapshots* — :func:`snapshot_registry` freezes a registry
  into picklable tuples, :func:`apply_snapshot` replays one into another
  registry, and a JSON-safe wire encoding carries them on the ``/sync``
  route so daemons can ship their metric registries losslessly
  (Prometheus text is lossy to merge; snapshots are not).  Job metrics
  never take this road: the engines derive per-worker series
  coordinator-side from the marshalled step stats.
* :class:`ClusterScraper` — fan-out scrape of every fleet daemon's
  telemetry server, merging the snapshots into one registry with a
  ``host`` label per member.  Backs the coordinator's ``/cluster`` route
  and the ``repro cluster status`` CLI.

The paper's analysis is performance-per-dollar on public clouds; this
module is the substrate that makes cross-host runs measurable in one
coherent timebase so the dollar attribution downstream is trustworthy.
"""

from __future__ import annotations

import json
import urllib.request
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from .metrics import Histogram, MetricsRegistry

#: key = (name, kind, labels, help, buckets-or-None)
SnapKey = Tuple[str, str, tuple, str, Optional[tuple]]
#: key -> counter/gauge value, or ``(bucket_counts, sum, count)``
Snapshot = Dict[SnapKey, Any]

__all__ = [
    "ClockSync",
    "ClusterScraper",
    "ClusterMember",
    "discover_members",
    "snapshot_registry",
    "apply_snapshot",
    "snapshot_to_wire",
    "wire_to_snapshot",
    "scrape_url",
]


# ---------------------------------------------------------------------------
# Clock alignment
# ---------------------------------------------------------------------------


class ClockSync:
    """Estimate a remote monotonic clock's offset from the local one.

    The estimator follows the classic NTP four-timestamp exchange: the
    coordinator stamps ``t0`` just before sending hello and ``t3`` just
    after receiving ready; the daemon stamps ``t1`` on hello receipt and
    ``t2`` on ready send.  Then

    * ``offset = ((t1 - t0) + (t2 - t3)) / 2``  (remote minus local)
    * ``rtt    = (t3 - t0) - (t2 - t1)``
    * ``uncertainty = rtt / 2`` — the asymmetry bound: the true offset
      lies within ``offset ± rtt/2`` regardless of how the path delay is
      split between the two directions.

    Heartbeat frames carry a one-way daemon stamp; each arrival yields a
    biased sample ``remote - local`` (bias = one-way latency, unknown).
    Those cannot refine the base offset, but *changes* across them track
    relative drift between the two clocks, which we expose and fold into
    :meth:`to_local` so long runs stay aligned.

    All times are ``monotonic_now()`` floats; wall clocks never enter.
    """

    def __init__(self) -> None:
        self._offset = 0.0
        self._uncertainty = 0.0
        self._rtt = 0.0
        self._handshakes = 0
        # One-way drift tracking: first sample anchors the bias, later
        # samples regress (local_t, delta - anchor) to a drift rate.
        self._oneway_anchor: Optional[Tuple[float, float]] = None
        self._oneway_count = 0
        self._drift = 0.0

    # -- feeding ------------------------------------------------------
    def observe_handshake(
        self, t0: float, t1: float, t2: float, t3: float
    ) -> None:
        """Fold a four-timestamp exchange into the estimate.

        Keeps the minimum-RTT sample: queueing inflates RTT and with it
        the asymmetry bound, so the tightest exchange is the best one.
        """
        rtt = (t3 - t0) - (t2 - t1)
        if rtt < 0.0:
            rtt = 0.0  # clamp: sub-resolution timestamps on loopback
        if self._handshakes and rtt >= self._rtt:
            self._handshakes += 1
            return
        self._offset = ((t1 - t0) + (t2 - t3)) / 2.0
        self._uncertainty = rtt / 2.0
        self._rtt = rtt
        self._handshakes += 1
        # A fresh base invalidates the one-way bias anchor.
        self._oneway_anchor = None
        self._drift = 0.0

    def observe_oneway(self, remote_t: float, local_t: float) -> None:
        """Fold a one-way clock stamp (heartbeat) into drift tracking."""
        delta = remote_t - local_t
        self._oneway_count += 1
        if self._oneway_anchor is None:
            self._oneway_anchor = (local_t, delta)
            return
        t_a, d_a = self._oneway_anchor
        span = local_t - t_a
        if span > 1e-9:
            # Drift rate in seconds of remote clock per second of local
            # clock, relative to the handshake base.  One-way latency
            # bias cancels in the difference as long as it is stable.
            self._drift = (delta - d_a) / span

    # -- reading ------------------------------------------------------
    @property
    def synchronized(self) -> bool:
        return self._handshakes > 0

    def offset(self) -> float:
        """Remote-minus-local offset in seconds (0.0 until synced)."""
        return self._offset

    def uncertainty(self) -> float:
        """Half the minimum observed RTT — the offset error bound."""
        return self._uncertainty

    def rtt(self) -> float:
        return self._rtt

    def drift(self) -> float:
        """Relative drift rate (remote seconds per local second) - 0."""
        return self._drift

    def to_local(self, remote_t: float) -> float:
        """Map a remote monotonic stamp into the local timebase."""
        local = remote_t - self._offset
        if self._drift and self._oneway_anchor is not None:
            t_a, _ = self._oneway_anchor
            elapsed = local - t_a
            if elapsed > 0.0:
                local -= self._drift * elapsed
        return local

    def stats(self) -> Dict[str, float]:
        return {
            "offset_seconds": self._offset,
            "uncertainty_seconds": self._uncertainty,
            "rtt_seconds": self._rtt,
            "drift_rate": self._drift,
            "handshakes": float(self._handshakes),
            "oneway_samples": float(self._oneway_count),
        }


# ---------------------------------------------------------------------------
# Registry snapshots and their wire encoding (/sync payloads)
# ---------------------------------------------------------------------------


def snapshot_registry(reg: MetricsRegistry) -> Snapshot:
    """Freeze a registry's current state into a picklable dict."""
    snap: Snapshot = {}
    for name, kind, help, insts in reg.collect():
        for inst in insts:
            if isinstance(inst, Histogram):
                key = (name, kind, inst.labels, help, inst.buckets)
                snap[key] = (tuple(inst.counts), inst.sum, inst.count)
            else:
                key = (name, kind, inst.labels, help, None)
                snap[key] = inst.value
    return snap


def apply_snapshot(reg: MetricsRegistry, snap: Mapping[SnapKey, Any]) -> None:
    """Fold a snapshot into ``reg``, creating instruments lazily.

    Counters add, gauges are set and histograms add their raw buckets, so
    apply each snapshot exactly once.
    """
    for (name, kind, labels, help, buckets), state in snap.items():
        label_kwargs = dict(labels)
        if kind == "counter":
            reg.counter(name, help=help, **label_kwargs).inc(state)
        elif kind == "gauge":
            reg.gauge(name, help=help, **label_kwargs).set(state)
        elif kind == "histogram":
            counts, total, count = state
            reg.histogram(
                name, help=help, buckets=buckets, **label_kwargs
            ).add_raw(counts, total, count)
        else:  # pragma: no cover - future instrument kinds
            raise ValueError(f"cannot marshal instrument kind {kind!r}")


def snapshot_to_wire(snap: Snapshot) -> List[List[Any]]:
    """Encode a registry snapshot as JSON-safe nested lists.

    A :data:`SnapKey` is a tuple-of-tuples; JSON turns
    tuples into lists and dict keys must be strings, so the wire format
    is an explicit ``[key_parts, value]`` list per instrument.
    """
    wire: List[List[Any]] = []
    for (name, kind, labels, help_, buckets), value in snap.items():
        wire.append([
            [name, kind, [list(p) for p in labels], help_,
             list(buckets) if buckets is not None else None],
            list(value) if isinstance(value, tuple) else value,
        ])
    return wire


def wire_to_snapshot(wire: Iterable[Iterable[Any]]) -> Snapshot:
    """Decode :func:`snapshot_to_wire` output back into a snapshot."""
    snap: Snapshot = {}
    for key_parts, value in wire:
        name, kind, labels, help_, buckets = key_parts
        key = (
            name,
            kind,
            tuple(tuple(p) for p in labels),
            help_,
            tuple(buckets) if buckets is not None else None,
        )
        if kind == "histogram":
            counts, total, count = value
            snap[key] = (tuple(counts), total, int(count))
        else:
            snap[key] = value
    return snap


def _relabel(snap: Snapshot, **extra: str) -> Snapshot:
    """Return ``snap`` with ``extra`` labels merged into every key.

    Existing labels win: a daemon that already stamps its own ``host``
    keeps it, so double-scraping through a relay cannot rewrite origin.
    """
    out: Snapshot = {}
    for (name, kind, labels, help_, buckets), value in snap.items():
        merged = dict(extra)
        merged.update(dict(labels))
        key = (name, kind, tuple(sorted(merged.items())), help_, buckets)
        if key in out and kind != "gauge":
            old = out[key]
            if kind == "histogram":
                oc, os_, on = old
                nc, ns, nn = value
                value = (
                    tuple(a + b for a, b in zip(oc, nc)), os_ + ns, on + nn,
                )
            else:
                value = old + value
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# Fleet scraping
# ---------------------------------------------------------------------------


class ClusterMember:
    """One scrape target: a name (host label value) plus telemetry URL."""

    __slots__ = ("name", "url")

    def __init__(self, name: str, url: str) -> None:
        self.name = name
        self.url = url.rstrip("/")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClusterMember({self.name!r}, {self.url!r})"


def scrape_url(url: str, timeout: float = 5.0) -> Any:
    """GET ``url`` and parse the JSON body (tests monkeypatch this)."""
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return json.loads(resp.read().decode("utf-8"))


class ClusterScraper:
    """Fan-out scrape of fleet daemons, merged into one registry.

    ``local`` is the coordinator's own registry; it joins the merge
    under ``local_name`` so one ``/cluster`` response covers the whole
    fleet.  Members whose scrape fails are reported in the summary
    rather than failing the merge — a flaky daemon should degrade the
    picture, not blank it.
    """

    def __init__(
        self,
        members: Optional[Iterable[ClusterMember]] = None,
        local: Optional[MetricsRegistry] = None,
        local_name: str = "coordinator",
        timeout: float = 5.0,
        fetch: Callable[[str, float], Any] = None,  # type: ignore[assignment]
    ) -> None:
        self.members: List[ClusterMember] = list(members or [])
        self.local = local
        self.local_name = local_name
        self.timeout = timeout
        self._fetch = fetch or scrape_url

    # -- scraping -----------------------------------------------------
    def scrape(self) -> Tuple[MetricsRegistry, Dict[str, Any]]:
        """Scrape every member's ``/sync`` route and merge.

        Returns ``(registry, summary)`` where the registry holds the
        merged, host-labelled instruments and the summary records which
        members answered (with their health payload when available).
        """
        merged = MetricsRegistry()
        summary: Dict[str, Any] = {"members": {}, "errors": {}}
        if self.local is not None:
            snap = _relabel(snapshot_registry(self.local),
                            host=self.local_name)
            apply_snapshot(merged, snap)
            summary["members"][self.local_name] = {"source": "local"}
        for member in self.members:
            try:
                body = self._fetch(member.url + "/sync", self.timeout)
                snap = _relabel(wire_to_snapshot(body["snapshot"]),
                                host=member.name)
                apply_snapshot(merged, snap)
                summary["members"][member.name] = {
                    "source": member.url,
                    "health": body.get("health"),
                }
            except Exception as exc:  # noqa: BLE001 - degrade, don't die
                summary["errors"][member.name] = repr(exc)
        return merged, summary

    def status(self) -> Dict[str, Any]:
        """Machine-readable cluster status for the CLI and ``/cluster``."""
        registry, summary = self.scrape()
        payload: Dict[str, Any] = {
            "members": summary["members"],
            "errors": summary["errors"],
            "instruments": sum(
                len(insts) for _, _, _, insts in registry.collect()
            ),
        }
        return payload


def discover_members(
    endpoints: Iterable[Any], timeout: float = 2.0
) -> Tuple[List[ClusterMember], Dict[str, str]]:
    """Probe daemon endpoints and collect their telemetry URLs.

    ``endpoints`` mixes ``"host:port"`` strings and ``(host, port)``
    pairs.  Daemons advertise ``telemetry_port`` in their status vitals
    when a telemetry server is attached.  Returns ``(members, errors)``
    keyed by ``host:port``.  Imported lazily from ``repro.net`` to keep
    the obs package import-free of the network plane at module level.
    """
    from ..net.tcp import parse_endpoint, probe_endpoint

    members: List[ClusterMember] = []
    errors: Dict[str, str] = {}
    for endpoint in endpoints:
        if isinstance(endpoint, str):
            host, port_n = parse_endpoint(endpoint)
        else:
            host, port_n = endpoint
        name = f"{host}:{port_n}"
        try:
            vitals = probe_endpoint((host, port_n), timeout=timeout)
            port = vitals.get("telemetry_port")
            if not port:
                errors[name] = "daemon exposes no telemetry server"
                continue
            members.append(ClusterMember(name, f"http://{host}:{port}"))
        except Exception as exc:  # noqa: BLE001 - report per endpoint
            errors[name] = repr(exc)
    return members, errors

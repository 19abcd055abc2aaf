"""Cross-process metric marshalling: snapshot a registry, apply it to another.

Every fleet daemon's telemetry server serves a snapshot of its registry on
``/sync`` and the coordinator's ``/cluster`` route folds them into one
merged view (:mod:`repro.obs.cluster`).  Job metrics never take this road:
the engines derive per-worker series coordinator-side from the marshalled
step stats, so partition workers keep no registry.

Wire format is plain tuples/dicts (picklable, no instrument objects):

``snapshot_registry(reg)`` → ``{key: state}`` where

* ``key``   = ``(name, kind, labels, help, buckets-or-None)``
* ``state`` = counter/gauge value, or ``(bucket_counts, sum, count)``

``apply_snapshot(reg, snap)`` replays a snapshot into a registry — counters
via :meth:`Counter.inc`, gauges via :meth:`Gauge.set`, histograms via
:meth:`Histogram.add_raw`.  Applying is idempotent-free by design: apply
each snapshot exactly once.
"""

from __future__ import annotations

from typing import Any, Mapping

from .metrics import Histogram, MetricsRegistry

__all__ = [
    "snapshot_registry",
    "apply_snapshot",
]

#: key = (name, kind, labels, help, buckets-or-None)
SnapKey = tuple[str, str, tuple, str, tuple | None]


def snapshot_registry(reg: MetricsRegistry) -> dict[SnapKey, Any]:
    """Freeze a registry's current state into a picklable dict."""
    snap: dict[SnapKey, Any] = {}
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
    """Fold a snapshot into ``reg``, creating instruments lazily."""
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

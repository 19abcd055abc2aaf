"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is the numeric side of the observability layer (the span
tracer in :mod:`repro.obs.spans` is the temporal side).  Engine components
— :class:`~repro.bsp.engine.BSPEngine`, the partition workers, the swath
controller, the live elastic engine — create instruments lazily through a
shared registry and update them as the job runs; exporters in
:mod:`repro.obs.export` render the whole registry as Prometheus text or
JSON.

Design points, mirrored from the Prometheus client-library data model:

* an instrument is identified by ``(name, labels)``; asking the registry
  for the same pair again returns the *same* object, so callers can
  resolve instruments once and hit them cheaply on hot paths;
* one name has one type (and, for histograms, one bucket layout) — a
  conflicting re-registration raises instead of silently forking series;
* histograms use *fixed* bucket boundaries chosen at creation, recorded
  cumulatively at export time (Prometheus ``le`` semantics);
* every mutation (``inc``/``set``/``observe``) takes the instrument's own
  lock, so engines that update instruments from worker threads
  (:class:`~repro.bsp.parallel.ThreadedBSPEngine`'s pooled compute tasks)
  need no serialize-after-join workaround — matching the Prometheus client
  libraries, which are thread-safe by contract.

Everything is plain Python with no engine imports, so the registry can be
used standalone (tests do) and the engine only ever talks to it through
duck typing — the metrics adapter of :mod:`repro.bsp.telemetry`, which a
job with no registry attached never installs.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: seconds, spanning sub-millisecond host phases to multi-hour simulated runs
DEFAULT_TIME_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)

#: bytes, 1 KB .. 16 GB in powers of four
DEFAULT_SIZE_BUCKETS = tuple(float(1024 * 4**i) for i in range(13))


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _freeze_labels(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    for k in labels:
        if not _LABEL_RE.match(k):
            raise ValueError(f"invalid label name {k!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Instrument:
    """Common identity/bookkeeping for all instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...],
                 help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lbl = ",".join(f"{k}={v!r}" for k, v in self.labels)
        return f"<{type(self).__name__} {self.name}{{{lbl}}}>"


class Counter(_Instrument):
    """Monotonically increasing total."""

    kind = "counter"

    def __init__(self, name, labels, help="") -> None:
        super().__init__(name, labels, help)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self.value += amount


class Gauge(_Instrument):
    """A value that can go up and down (fleet size, active vertices)."""

    kind = "gauge"

    def __init__(self, name, labels, help="") -> None:
        super().__init__(name, labels, help)
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


class Histogram(_Instrument):
    """Fixed-boundary histogram with Prometheus ``le`` export semantics.

    ``buckets`` are the *upper bounds* of the finite buckets, strictly
    increasing; an implicit ``+Inf`` bucket catches the tail.  Counts are
    stored per-bucket and cumulated at export.
    """

    kind = "histogram"

    def __init__(self, name, labels, help="",
                 buckets: Iterable[float] = DEFAULT_TIME_BUCKETS) -> None:
        super().__init__(name, labels, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket boundary")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket boundaries must be strictly increasing")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self.counts[bisect_left(self.buckets, value)] += 1
            self.sum += value
            self.count += 1

    def add_raw(self, counts: Iterable[int], sum: float, count: int) -> None:
        """Merge another histogram's raw tallies (same bucket layout).

        Backs cross-process marshalling (:mod:`repro.obs.sync`): a fleet
        daemon observes locally and ``/cluster`` folds its snapshot in here.
        """
        counts = list(counts)
        if len(counts) != len(self.counts):
            raise ValueError(
                f"histogram {self.name!r}: cannot merge {len(counts)} bucket "
                f"counts into {len(self.counts)} buckets"
            )
        with self._lock:
            for i, c in enumerate(counts):
                self.counts[i] += int(c)
            self.sum += sum
            self.count += int(count)

    def cumulative_counts(self) -> list[int]:
        """Counts per ``le`` bucket, cumulative, ending with the +Inf total."""
        out, acc = [], 0
        for c in self.counts:
            acc += c
            out.append(acc)
        return out

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the bucket tallies.

        Prometheus ``histogram_quantile`` semantics: find the bucket the
        target rank falls in and interpolate linearly within it, treating
        the lowest bucket as spanning ``[0, bound]``.  A rank landing in
        the +Inf bucket clamps to the highest finite bound (the estimate
        cannot exceed what the layout can resolve).  Returns ``nan`` on an
        empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            total = self.count
            cumulative = []
            acc = 0
            for c in self.counts:
                acc += c
                cumulative.append(acc)
        if total == 0:
            return float("nan")
        rank = q * total
        for i, bound in enumerate(self.buckets):
            if cumulative[i] >= rank:
                lo = 0.0 if i == 0 else self.buckets[i - 1]
                below = 0 if i == 0 else cumulative[i - 1]
                in_bucket = cumulative[i] - below
                if in_bucket == 0:
                    return bound
                return lo + (bound - lo) * (rank - below) / in_bucket
        return self.buckets[-1]


class MetricsRegistry:
    """Home of every instrument for one run (or one process).

    Instruments are created on first request and shared afterwards::

        reg = MetricsRegistry()
        msgs = reg.counter("bsp_messages_total", help="...", kind="remote")
        msgs.inc(42)
        reg.counter("bsp_messages_total", kind="remote") is msgs  # True
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple, _Instrument] = {}
        # name -> (kind, bucket layout or None); guards against forked series
        self._schema: dict[str, tuple[str, tuple | None]] = {}
        self._help: dict[str, str] = {}
        self._lock = threading.Lock()  # guards instrument creation

    # ------------------------------------------------------------------
    def _get(self, cls, name: str, help: str, labels: Mapping[str, str],
             buckets: tuple | None = None):
        _check_name(name)
        frozen = _freeze_labels(labels)
        key = (name, frozen)
        with self._lock:
            inst = self._instruments.get(key)
            if inst is not None:
                if inst.kind != cls.kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {inst.kind}"
                    )
                return inst
            schema = self._schema.get(name)
            if schema is not None and schema[0] != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as {schema[0]}"
                )
            if cls is Histogram:
                if buckets is None:
                    buckets = DEFAULT_TIME_BUCKETS
                bounds = tuple(float(b) for b in buckets)
                if schema is not None and schema[1] != bounds:
                    raise ValueError(
                        f"histogram {name!r} already registered with different "
                        "bucket boundaries"
                    )
                inst = Histogram(name, frozen, help=help, buckets=bounds)
                self._schema[name] = (cls.kind, bounds)
            else:
                inst = cls(name, frozen, help=help)
                self._schema[name] = (cls.kind, None)
            if help and not self._help.get(name):
                self._help[name] = help
            self._instruments[key] = inst
            return inst

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] | None = None,
                  **labels: str) -> Histogram:
        return self._get(
            Histogram, name, help, labels,
            buckets=tuple(buckets) if buckets is not None else None,
        )

    # ------------------------------------------------------------------
    def collect(self) -> list[tuple[str, str, str, list[_Instrument]]]:
        """``(name, kind, help, instruments)`` families, sorted for export."""
        families: dict[str, list[_Instrument]] = {}
        for (name, _), inst in self._instruments.items():
            families.setdefault(name, []).append(inst)
        out = []
        for name in sorted(families):
            insts = sorted(families[name], key=lambda i: i.labels)
            out.append(
                (name, self._schema[name][0], self._help.get(name, ""), insts)
            )
        return out

    def get(self, name: str, **labels: str) -> _Instrument | None:
        """Look up an existing instrument without creating it."""
        return self._instruments.get((name, _freeze_labels(labels)))

    def __len__(self) -> int:
        return len(self._instruments)

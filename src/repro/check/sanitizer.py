"""Dynamic sanitizer: runtime checks for the contracts RPC rules can't see.

Three cooperating probes, all opt-in (``--sanitize`` or direct API use):

* :class:`SanitizingProgram` — a transparent wrapper (same pattern as
  :class:`~repro.bsp.debug.TracingProgram`) that fingerprints every
  delivered payload before ``compute()`` and re-fingerprints after,
  catching in-place mutation of the engine's message buffers (RPC001's
  runtime twin — it also catches mutation through helper calls the static
  pass can't follow).
* :func:`certify_determinism` — runs the same job at 1 worker (sequential
  engine) and N workers (:class:`~repro.bsp.parallel.ThreadedBSPEngine`)
  and diffs the ``extract()`` outputs, certifying worker-count
  determinism: the property iPregel-style surveys report silently broken
  by message-order dependence, unseeded randomness, and shared state.
* :func:`check_aggregator_laws` — probes each declared aggregator for
  commutativity, merge-associativity, and identity on sampled values;
  barrier merges fold worker partials in arbitrary groupings, so a law
  violation makes aggregates depend on the partitioning.

:class:`SanitizerObserver` rides the public
:class:`~repro.bsp.engine.SuperstepObserver` surface, runs the aggregator
probe at job start, drains the wrapper's violations at each barrier, and
emits them through the :mod:`repro.obs` metrics registry
(``repro_sanitizer_violations_total{kind=...}``) so violations show up in
run telemetry next to the engine's own series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from ..bsp.api import VertexProgram
from ..bsp.engine import BSPEngine, SuperstepObserver, make_engine
from ..bsp.job import JobSpec
from ..bsp.parallel import ThreadedBSPEngine

__all__ = [
    "SanitizerViolation",
    "SanitizingProgram",
    "SanitizerObserver",
    "DeterminismReport",
    "certify_determinism",
    "AggregatorLawReport",
    "check_aggregator_laws",
    "SmokeCase",
    "SmokeReport",
    "run_sanitize_smoke",
    "freeze",
]


# ----------------------------------------------------------------------
# Structural fingerprinting
# ----------------------------------------------------------------------
def freeze(obj: Any, _depth: int = 0) -> Any:
    """Canonical immutable fingerprint of a payload/state value.

    Two calls on the *same object* compare equal iff the object was not
    mutated in between; unknown object types fall back to ``repr`` (no
    false positives — same object, same repr — at the cost of missing
    mutations inside objects with default reprs).
    """
    if obj is None or isinstance(obj, (bool, int, float, complex, str, bytes)):
        return obj
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.shape, str(obj.dtype), obj.tobytes())
    if _depth >= 8:
        return "<depth-capped>"
    if isinstance(obj, (list, tuple)):
        return (
            "list" if isinstance(obj, list) else "tuple",
            tuple(freeze(x, _depth + 1) for x in obj),
        )
    if isinstance(obj, dict):
        return (
            "dict",
            tuple(
                (freeze(k, _depth + 1), freeze(v, _depth + 1))
                for k, v in obj.items()
            ),
        )
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted(repr(freeze(x, _depth + 1)) for x in obj)))
    slots = getattr(type(obj), "__slots__", None)
    if slots is not None:
        if isinstance(slots, str):
            slots = (slots,)
        return (
            "obj",
            type(obj).__name__,
            tuple(
                (s, freeze(getattr(obj, s, None), _depth + 1)) for s in slots
            ),
        )
    d = getattr(obj, "__dict__", None)
    if d is not None:
        return ("obj", type(obj).__name__, freeze(d, _depth + 1))
    return repr(obj)


@dataclass(frozen=True)
class SanitizerViolation:
    """One runtime contract violation caught by the sanitizer."""

    kind: str  # payload-mutated | messages-resized | aggregator-law
    superstep: int
    vertex: int
    detail: str


class SanitizingProgram(VertexProgram):
    """Transparent wrapper detecting in-place mutation of delivered payloads.

    The wrapped program's behavior is unchanged; violations accumulate in
    :attr:`violations` (appends are atomic under the GIL, so the wrapper is
    safe under :class:`~repro.bsp.parallel.ThreadedBSPEngine`).
    """

    def __init__(self, inner: VertexProgram) -> None:
        self.inner = inner
        self.combiner = inner.combiner
        self.violations: list[SanitizerViolation] = []

    # Delegation (keeps memory/aggregator modeling undistorted) ----------
    def init_state(self, vertex_id, graph):
        return self.inner.init_state(vertex_id, graph)

    def aggregators(self):
        return self.inner.aggregators()

    def master_compute(self, master):
        return self.inner.master_compute(master)

    def payload_nbytes(self, payload):
        return self.inner.payload_nbytes(payload)

    def state_nbytes(self, state):
        return self.inner.state_nbytes(state)

    def extract(self, vertex_id, state):
        return self.inner.extract(vertex_id, state)

    @property
    def name(self) -> str:
        return f"Sanitizing({self.inner.name})"

    # ------------------------------------------------------------------
    def compute(self, ctx, state, messages):
        n_before = len(messages)
        before = [freeze(p) for p in messages]
        out = self.inner.compute(ctx, state, messages)
        if len(messages) != n_before:
            self.violations.append(
                SanitizerViolation(
                    kind="messages-resized",
                    superstep=ctx.superstep,
                    vertex=ctx.vertex_id,
                    detail=f"len {n_before} -> {len(messages)}",
                )
            )
        else:
            for i, (fp, payload) in enumerate(zip(before, messages)):
                if freeze(payload) != fp:
                    self.violations.append(
                        SanitizerViolation(
                            kind="payload-mutated",
                            superstep=ctx.superstep,
                            vertex=ctx.vertex_id,
                            detail=f"message[{i}] mutated in place",
                        )
                    )
        return out


class SanitizerObserver(SuperstepObserver):
    """Drains a :class:`SanitizingProgram`'s violations at every barrier.

    Pass ``metrics`` (a :class:`repro.obs.MetricsRegistry`) to surface
    violations as ``repro_sanitizer_violations_total{kind=...}`` counters in
    run telemetry.  The program may be bound lazily at ``on_job_start`` —
    handy when the program is constructed deep inside a runner.
    """

    def __init__(
        self,
        program: SanitizingProgram | None = None,
        metrics: Any = None,
        check_aggregators: bool = True,
    ) -> None:
        self._program = program
        self._metrics = metrics
        self._check_aggregators = check_aggregators
        self._seen = 0
        self._flight = None
        self.violations: list[SanitizerViolation] = []
        self.aggregator_reports: list[AggregatorLawReport] = []

    @property
    def ok(self) -> bool:
        return not self.violations

    def _emit(self, violation: SanitizerViolation) -> None:
        self.violations.append(violation)
        if self._metrics is not None:
            self._metrics.counter(
                "repro_sanitizer_violations_total",
                help="Vertex-program contract violations caught at runtime",
                kind=violation.kind,
            ).inc()
        if self._flight is not None:
            self._flight.record(
                "sanitizer-violation", superstep=violation.superstep,
                kind=violation.kind, vertex=violation.vertex,
                detail=violation.detail,
            )

    def on_job_start(self, engine: BSPEngine) -> None:
        # Violations land in the run's flight recorder too, so postmortem
        # bundles and the live /events tail surface contract breakage.
        self._flight = getattr(engine, "flight", None)
        if self._program is None and isinstance(
            engine.job.program, SanitizingProgram
        ):
            self._program = engine.job.program
        if self._check_aggregators and self._program is not None:
            self.aggregator_reports = check_aggregator_laws(self._program.inner)
            for report in self.aggregator_reports:
                for failure in report.failures:
                    self._emit(
                        SanitizerViolation(
                            kind="aggregator-law",
                            superstep=-1,
                            vertex=-1,
                            detail=f"{report.name}: {failure}",
                        )
                    )

    def on_superstep_end(self, engine: BSPEngine, stats) -> None:
        if self._program is None:
            return
        fresh = self._program.violations[self._seen:]
        self._seen = len(self._program.violations)
        for violation in fresh:
            self._emit(violation)


# ----------------------------------------------------------------------
# Worker-count determinism certification
# ----------------------------------------------------------------------
def _approx_equal(a: Any, b: Any, rel_tol: float, abs_tol: float) -> bool:
    if isinstance(a, (bool, np.bool_)) or isinstance(b, (bool, np.bool_)):
        return bool(a) == bool(b)
    if isinstance(a, (int, float, np.integer, np.floating)) and isinstance(
        b, (int, float, np.integer, np.floating)
    ):
        fa, fb = float(a), float(b)
        if math.isnan(fa) and math.isnan(fb):
            return True
        if math.isinf(fa) or math.isinf(fb):
            return fa == fb
        return math.isclose(fa, fb, rel_tol=rel_tol, abs_tol=abs_tol)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and bool(
            np.allclose(a, b, rtol=rel_tol, atol=abs_tol, equal_nan=True)
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            _approx_equal(x, y, rel_tol, abs_tol) for x, y in zip(a, b)
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            _approx_equal(v, b[k], rel_tol, abs_tol) for k, v in a.items()
        )
    if isinstance(a, (set, frozenset)) and isinstance(b, (set, frozenset)):
        return a == b
    try:
        return bool(a == b)
    except Exception:
        return False


@dataclass
class DeterminismReport:
    """Outcome of a 1-vs-N worker-count determinism diff."""

    ok: bool
    num_workers: int
    mismatches: list[tuple[int, Any, Any]] = field(default_factory=list)
    total_mismatches: int = 0
    supersteps: tuple[int, int] = (0, 0)
    #: backend the N-worker run used: "sim", "threaded", "process",
    #: or "dense-ref"
    engine: str = "threaded"

    def summary(self) -> str:
        if self.ok:
            return (
                f"deterministic across 1 vs {self.num_workers} workers "
                f"({self.supersteps[0]}/{self.supersteps[1]} supersteps)"
            )
        shown = ", ".join(
            f"v{v}: {a!r} != {b!r}" for v, a, b in self.mismatches[:3]
        )
        return (
            f"NONDETERMINISTIC across 1 vs {self.num_workers} workers: "
            f"{self.total_mismatches} vertices differ ({shown}, ...)"
        )


def certify_determinism(
    program_factory: Callable[[], VertexProgram],
    graph,
    num_workers: int = 4,
    *,
    engine: str = "threaded",
    initially_active: Any = True,
    initial_messages: Sequence[tuple[int, Any]] = (),
    max_supersteps: int = 10_000,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
    max_mismatches: int = 10,
    job_kwargs: dict | None = None,
) -> DeterminismReport:
    """Run at 1 worker and at ``num_workers`` on ``engine``, diff outputs.

    ``engine`` picks the N-worker backend: ``"sim"`` (sequential engine,
    pure partitioning effects), ``"threaded"``
    (:class:`~repro.bsp.parallel.ThreadedBSPEngine`, adds real
    concurrency), ``"process"`` (:class:`~repro.dist.ProcessBSPEngine`,
    adds serialization and real process boundaries), ``"tcp"``
    (:class:`~repro.net.TcpBSPEngine`, adds sockets to auto-spawned
    localhost worker daemons), or ``"dense-ref"``
    (:class:`~repro.bsp.dense_ref.DenseRefEngine`, interprets the
    program's static KernelPlan with NumPy — this is how RPC015 claims
    are certified).  Any name in :data:`repro.bsp.engine.ENGINES` works.

    What the report certifies is agreement *within tolerance* between the
    1-worker sim and ``engine`` at ``num_workers``.  Bitwise equality is a
    narrower contract (docs/runtime.md): sim ≡ threaded ≡ process ≡ tcp at
    the same worker count and partition, and dense-ref ≡ the 1-worker sim.

    ``program_factory`` must build a *fresh* program per call — programs may
    carry instance state (converged_at, caches) that must not leak between
    the reference and the test run.  Float outputs compare with tolerance:
    barrier-order float-sum reassociation is legal BSP behavior; structural
    divergence is not.
    """
    if num_workers < 2:
        raise ValueError("num_workers must be >= 2 to exercise partitioning")
    kwargs = dict(
        initially_active=initially_active,
        initial_messages=list(initial_messages),
        max_supersteps=max_supersteps,
        **(job_kwargs or {}),
    )
    ref = BSPEngine(
        JobSpec(program=program_factory(), graph=graph, num_workers=1, **kwargs)
    ).run()
    alt = make_engine(
        engine,
        JobSpec(
            program=program_factory(), graph=graph, num_workers=num_workers,
            **kwargs,
        ),
    ).run()

    mismatches: list[tuple[int, Any, Any]] = []
    total = 0
    for v in sorted(set(ref.values) | set(alt.values)):
        a, b = ref.values.get(v), alt.values.get(v)
        if not _approx_equal(a, b, rel_tol, abs_tol):
            total += 1
            if len(mismatches) < max_mismatches:
                mismatches.append((v, a, b))
    return DeterminismReport(
        ok=total == 0,
        num_workers=num_workers,
        mismatches=mismatches,
        total_mismatches=total,
        supersteps=(ref.supersteps, alt.supersteps),
        engine=engine,
    )


# ----------------------------------------------------------------------
# Aggregator algebra probes
# ----------------------------------------------------------------------
_SAMPLE_POOLS: tuple[tuple[Any, ...], ...] = (
    (3, 1, 4, 1, 5),
    (0.5, 2.25, -1.5, 3.0, 0.75),
    (True, False, True, True),
    ((1, 2), (0, 5), (3, 1)),
)


@dataclass
class AggregatorLawReport:
    """Law-probe outcome for one declared aggregator."""

    name: str
    ok: bool
    failures: list[str] = field(default_factory=list)
    skipped: str = ""


def _fold(agg, values) -> Any:
    acc = agg.identity()
    for v in values:
        acc = agg.reduce(acc, v)
    return acc


def check_aggregator_laws(
    program: VertexProgram,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
) -> list[AggregatorLawReport]:
    """Probe every declared aggregator for the barrier-merge algebra.

    The engine folds contributions per worker, then merges worker partials
    in arbitrary grouping and order — so ``reduce`` must be commutative,
    ``merge`` must compose partials associatively, and ``identity`` must be
    neutral.  Sampled values are deterministic (no RNG: the probe itself
    must satisfy RPC002).
    """
    reports = []
    for name, agg in program.aggregators().items():
        pool = None
        for candidate in _SAMPLE_POOLS:
            try:
                _fold(agg, candidate)
                agg.merge(agg.identity(), _fold(agg, candidate))
            except Exception:
                continue
            pool = candidate
            break
        if pool is None:
            reports.append(
                AggregatorLawReport(
                    name=name, ok=True,
                    skipped="no sample pool accepted by reduce()",
                )
            )
            continue
        failures: list[str] = []
        eq = lambda x, y: _approx_equal(x, y, rel_tol, abs_tol)  # noqa: E731
        # Commutativity of reduce over pairs.
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                ab = _fold(agg, (pool[i], pool[j]))
                ba = _fold(agg, (pool[j], pool[i]))
                if not eq(ab, ba):
                    failures.append(
                        f"reduce not commutative: "
                        f"fold({pool[i]!r},{pool[j]!r})={ab!r} but "
                        f"fold({pool[j]!r},{pool[i]!r})={ba!r}"
                    )
        # Merge-associativity: any split into worker partials must agree
        # with the single-worker fold.
        whole = _fold(agg, pool)
        for cut in range(1, len(pool)):
            left, right = pool[:cut], pool[cut:]
            merged = agg.merge(_fold(agg, left), _fold(agg, right))
            if not eq(merged, whole):
                failures.append(
                    f"merge not partition-invariant at split {cut}: "
                    f"{merged!r} != {whole!r}"
                )
        # Identity neutrality under merge.
        one = _fold(agg, pool[:1])
        if not eq(agg.merge(agg.identity(), one), one):
            failures.append("merge(identity, x) != x")
        # Deduplicate repeated law messages (pairs often fail identically).
        deduped = list(dict.fromkeys(failures))
        reports.append(
            AggregatorLawReport(name=name, ok=not deduped, failures=deduped[:5])
        )
    return reports


# ----------------------------------------------------------------------
# The CI smoke harness (two real algorithms through every probe)
# ----------------------------------------------------------------------
@dataclass
class SmokeCase:
    """One algorithm's pass through the sanitizer battery."""

    name: str
    sanitizer_violations: list[SanitizerViolation]
    determinism: DeterminismReport
    aggregator_reports: list[AggregatorLawReport]

    @property
    def ok(self) -> bool:
        return (
            not self.sanitizer_violations
            and self.determinism.ok
            and all(r.ok for r in self.aggregator_reports)
        )

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "violations": [
                {
                    "kind": v.kind,
                    "superstep": v.superstep,
                    "vertex": v.vertex,
                    "detail": v.detail,
                }
                for v in self.sanitizer_violations
            ],
            "determinism": self.determinism.summary(),
            "aggregators": {
                r.name: ("ok" if r.ok else r.failures)
                for r in self.aggregator_reports
            },
        }


@dataclass
class SmokeReport:
    """All smoke cases; ``ok`` gates CI."""

    cases: list[SmokeCase]
    num_workers: int

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "num_workers": self.num_workers,
            "cases": [c.as_dict() for c in self.cases],
        }

    def summary(self) -> str:
        lines = []
        for c in self.cases:
            status = "ok" if c.ok else "FAIL"
            lines.append(
                f"sanitize {c.name}: {status} — "
                f"{len(c.sanitizer_violations)} violation(s); "
                f"{c.determinism.summary()}"
            )
        return "\n".join(lines)


def _smoke_case(
    name: str,
    program_factory: Callable[[], VertexProgram],
    graph,
    num_workers: int,
    metrics: Any = None,
    **job_kwargs,
) -> SmokeCase:
    program = SanitizingProgram(program_factory())
    observer = SanitizerObserver(program, metrics=metrics)
    ThreadedBSPEngine(
        JobSpec(
            program=program, graph=graph, num_workers=num_workers,
            observers=[observer], **job_kwargs,
        )
    ).run()
    determinism = certify_determinism(
        program_factory, graph, num_workers,
        initially_active=job_kwargs.get("initially_active", True),
        initial_messages=job_kwargs.get("initial_messages", ()),
    )
    return SmokeCase(
        name=name,
        sanitizer_violations=list(observer.violations),
        determinism=determinism,
        aggregator_reports=observer.aggregator_reports,
    )


def run_sanitize_smoke(
    scale: float = 0.05,
    num_workers: int = 4,
    metrics: Any = None,
) -> SmokeReport:
    """The CI sanitizer smoke: PageRank and BC through every probe.

    PageRank covers the uniform-message profile with an aggregator and a
    combiner; BC covers the message-driven triangle-waveform workload with
    heavy per-root state — together they exercise every engine surface the
    sanitizer instruments.
    """
    from ..algorithms.bc import BCProgram, start_messages
    from ..algorithms.pagerank import PageRankProgram
    from ..graph import datasets

    graph = datasets.load("SD", scale=scale)
    roots = list(range(min(4, graph.num_vertices)))
    cases = [
        _smoke_case(
            "pagerank",
            lambda: PageRankProgram(iterations=10),
            graph,
            num_workers,
            metrics=metrics,
        ),
        _smoke_case(
            "bc",
            BCProgram,
            graph,
            num_workers,
            metrics=metrics,
            initially_active=False,
            initial_messages=start_messages(roots),
        ),
    ]
    return SmokeReport(cases=cases, num_workers=num_workers)

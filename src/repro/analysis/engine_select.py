"""Static engine auto-selection for ``repro run --engine auto``.

The paper's thesis is that BSP performance on clouds is won by choosing
the execution strategy *before* the job runs.  This module is that
choice as a pure function: given the static analyses the runner already
computes — the vectorize verdict (can the program execute densely?), the
costmodel :class:`~repro.check.costmodel.ProgramProfile` (fan-out class,
pickle safety), and the host/worker topology — rank the four backends
{dense-ref, tcp, process, sim} and return the winner together
with every reason: why it won, why each excluded engine was excluded,
and any hazards in the outcome (the RPC022 condition).

The decision is recorded on :attr:`JobResult.engine_decision
<repro.bsp.job.JobResult.engine_decision>` and in the flight recorder
(``engine.autoselect``), so a post-mortem can always answer "why did
this job run on that engine".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..bsp.dense_ref import dense_refused_features
from ..bsp.engine import ENGINES
from ..check.costmodel import FanoutClass

__all__ = ["EngineDecision", "select_engine", "dense_refused_features"]

#: Ranking scores per (engine, multi-worker?): a fixed preference order,
#: not a measurement.  dense-ref first whenever it is eligible.  With
#: num_workers > 1, tcp, then process, then the sim, so that each worker
#: runs in its own process as in Pregel.NET; with one worker, the sim
#: before process and tcp, whose worker setup buys nothing.
_SCORES_MULTI = {"dense-ref": 100, "tcp": 70, "process": 60, "sim": 30}
_SCORES_SINGLE = {"dense-ref": 100, "sim": 30, "process": 15, "tcp": 10}
assert set(_SCORES_MULTI) == set(_SCORES_SINGLE) == set(ENGINES)


@dataclass(frozen=True)
class EngineDecision:
    """The ranked outcome of one static engine selection."""

    engine: str
    #: why the winner won, in ranking order
    reasons: tuple[str, ...]
    #: every eligible engine with its score, best first
    ranking: tuple[tuple[str, int], ...]
    #: engines ruled out, with the static fact that ruled each out
    excluded: tuple[tuple[str, str], ...]
    #: RPC022-style hazards in the outcome (non-fatal, recorded)
    hazards: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "engine": self.engine,
            "reasons": list(self.reasons),
            "ranking": [[e, s] for e, s in self.ranking],
            "excluded": [[e, r] for e, r in self.excluded],
            "hazards": list(self.hazards),
        }

    def render(self) -> str:
        lines = [f"engine auto-selection: {self.engine}"]
        for r in self.reasons:
            lines.append(f"  + {r}")
        for e, r in self.excluded:
            lines.append(f"  - {e}: {r}")
        for h in self.hazards:
            lines.append(f"  ! {h}")
        return "\n".join(lines)


def select_engine(
    *,
    verdict: Any,
    profile: Any,
    num_workers: int = 1,
    tcp_hosts: Any = None,
    features: Any = (),
) -> EngineDecision:
    """Rank the backends for one job and pick the best eligible one.

    ``verdict`` is the program's :class:`LiftResult` (or None when the
    program has no locatable source); ``features`` are job-level
    dense-ref blockers from :func:`dense_refused_features`.  Never
    raises: sim is always eligible, so there is always a winner.
    """
    scores = _SCORES_MULTI if num_workers > 1 else _SCORES_SINGLE
    excluded: list[tuple[str, str]] = []

    # -- dense-ref: needs a lifted plan and a plain job ----------------
    dense_ok = True
    if verdict is None:
        dense_ok = False
        excluded.append((
            "dense-ref",
            "no kernel plan: cannot locate the program's source",
        ))
    elif getattr(verdict, "plan", None) is None:
        dense_ok = False
        excluded.append((
            "dense-ref",
            f"plan refused: {verdict.rule_id} at line "
            f"{verdict.refusal_line}: {verdict.reason}",
        ))
    for feature in features:
        dense_ok = False
        excluded.append(("dense-ref", str(feature)))

    # -- process/tcp: need picklable programs (the RPC011 gate) -------
    risks = tuple(getattr(profile, "pickle_risks", ()) or ())
    fork_ok = not risks
    if risks:
        detail = (
            f"pickle-unsafe state (RPC011, line {risks[0].line}: "
            f"{risks[0].detail})"
        )
        excluded.append(("process", detail))
        excluded.append(("tcp", detail))
    tcp_ok = fork_ok
    if fork_ok and tcp_hosts is None:
        tcp_ok = False
        excluded.append(("tcp", "no worker endpoints configured (--hosts)"))

    eligible = {"sim"}
    if dense_ok:
        eligible.add("dense-ref")
    if fork_ok:
        eligible.add("process")
    if tcp_ok:
        eligible.add("tcp")

    ranking = tuple(sorted(
        ((e, scores[e]) for e in eligible),
        key=lambda es: (-es[1], es[0]),
    ))
    winner = ranking[0][0]

    reasons: list[str] = []
    if winner == "dense-ref":
        reasons.append(
            f"program lifts to KernelPlan {verdict.plan.digest[:16]} "
            "(RPC015): dense NumPy execution replaces the per-vertex "
            "Python loop"
        )
    elif winner == "tcp":
        reasons.append(
            f"picklable program + {num_workers} workers on configured "
            "endpoints: real multi-host parallelism"
        )
    elif winner == "process":
        reasons.append(
            f"picklable program + {num_workers} workers: one local "
            "process per worker"
        )
    elif num_workers > 1:
        reasons.append(
            f"{num_workers} workers but the program cannot fork: "
            "the sequential simulator runs it"
        )
    else:
        reasons.append(
            "sequential simulator: ranked first for "
            f"num_workers={num_workers}"
        )

    hazards: list[str] = []
    if (
        winner == "sim"
        and profile is not None
        and getattr(profile, "fanout", None) is FanoutClass.BROADCAST
    ):
        hazards.append(
            "broadcast fan-out routed to the single-process sim: "
            "message volume will not parallelize (RPC022)"
        )

    return EngineDecision(
        engine=winner,
        reasons=tuple(reasons),
        ranking=ranking,
        excluded=tuple(excluded),
        hazards=tuple(hazards),
    )

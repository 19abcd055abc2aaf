"""Fig. 16-style reporting: runtime and cost normalized to the small fleet."""

from __future__ import annotations

from dataclasses import dataclass

from .model import ElasticOutcome

__all__ = ["NormalizedRow", "normalize_outcomes"]


@dataclass(frozen=True)
class NormalizedRow:
    """One bar pair of Fig. 16: a policy's time and cost vs the baseline."""

    label: str
    norm_time: float
    norm_cost: float
    scale_events: int


def normalize_outcomes(
    outcomes: list[ElasticOutcome], baseline_label: str
) -> list[NormalizedRow]:
    """Normalize every outcome's time and cost to the named baseline's."""
    base = next((o for o in outcomes if o.policy_label == baseline_label), None)
    if base is None:
        raise ValueError(f"baseline {baseline_label!r} not among outcomes")
    if base.total_time <= 0 or base.cost <= 0:
        raise ValueError("baseline outcome has zero time or cost")
    return [
        NormalizedRow(
            label=o.policy_label,
            norm_time=o.total_time / base.total_time,
            norm_cost=o.cost / base.cost,
            scale_events=o.num_scale_events,
        )
        for o in outcomes
    ]


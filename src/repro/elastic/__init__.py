"""Elastic cloud scaling analysis (§VIII, Figs. 15-16)."""

from .policies import (
    ActiveFractionPolicy,
    FixedWorkers,
    OraclePolicy,
    ScalingContext,
    ScalingPolicy,
)
from .model import AlignedTraces, ElasticityModel, ElasticOutcome
from .report import NormalizedRow, normalize_outcomes, render_fig16
from .live import (
    ElasticResizer,
    LiveActiveFraction,
    LiveFixed,
    LivePolicy,
)

__all__ = [
    "ActiveFractionPolicy",
    "FixedWorkers",
    "OraclePolicy",
    "ScalingContext",
    "ScalingPolicy",
    "AlignedTraces",
    "ElasticityModel",
    "ElasticOutcome",
    "NormalizedRow",
    "normalize_outcomes",
    "render_fig16",
    "ElasticResizer",
    "LiveActiveFraction",
    "LiveFixed",
    "LivePolicy",
]

"""Elastic cloud scaling (§VIII, Figs. 15-16): one set of scaling policies
drives both the projection from static runs and live resizing."""

from .policies import (
    ActiveFractionPolicy,
    FixedWorkers,
    OraclePolicy,
    ScalingContext,
    ScalingPolicy,
)
from .model import AlignedTraces, ElasticityModel, ElasticOutcome
from .report import NormalizedRow, normalize_outcomes
from .live import ElasticResizer

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
    "ElasticResizer",
]

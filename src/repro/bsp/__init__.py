"""Core Pregel-style BSP engine on the simulated cloud (Pregel.NET analogue)."""

from .api import MasterContext, VertexContext, VertexProgram
from .aggregators import (
    Aggregator,
    AndAggregator,
    CountAggregator,
    MaxAggregator,
    MinAggregator,
    OrAggregator,
    SumAggregator,
)
from .combiners import Combiner, MaxCombiner, MinCombiner, SumCombiner
from .dense_ref import DenseRefEngine, PlanRefusedError
from .engine import BSPEngine, SuperstepObserver, run_job
from .debug import InvariantChecker, MessageRecord, TracingProgram
from .job import JobResult, JobSpec, RecoveryEvent, VertexValues
from .superstep import JobTrace, SuperstepStats, WorkerStepStats
from .worker import PartitionWorker

__all__ = [
    "MasterContext",
    "VertexContext",
    "VertexProgram",
    "Aggregator",
    "AndAggregator",
    "CountAggregator",
    "MaxAggregator",
    "MinAggregator",
    "OrAggregator",
    "SumAggregator",
    "Combiner",
    "MaxCombiner",
    "MinCombiner",
    "SumCombiner",
    "BSPEngine",
    "DenseRefEngine",
    "PlanRefusedError",
    "SuperstepObserver",
    "run_job",
    "InvariantChecker",
    "MessageRecord",
    "TracingProgram",
    "JobResult",
    "JobSpec",
    "RecoveryEvent",
    "VertexValues",
    "JobTrace",
    "SuperstepStats",
    "WorkerStepStats",
    "PartitionWorker",
]

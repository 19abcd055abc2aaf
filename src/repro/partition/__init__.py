"""Partitioning substrate: hash (default), METIS stand-in, streaming."""

from .base import Partition, Partitioner
from .hashing import HashPartitioner, ModuloPartitioner
from .metis import MultilevelPartitioner
from .streaming import StreamingBalanced, StreamingChunking, StreamingGreedy
from .advisor import Advice, PartitioningAdvisor
from .fennel import FennelPartitioner
from .spectral import SpectralPartitioner

# NOTE: repro.partition.dynamic (the GPS-style runtime re-partitioning
# policy) is intentionally NOT re-exported here: it builds on the BSP
# engine, and importing it at package level would cycle bsp -> job ->
# partition -> bsp.  Use `from repro.partition.dynamic import ...`.
from .metrics import (
    PartitionReport,
    balance,
    edge_cut,
    evaluate,
    part_degrees,
    remote_edge_fraction,
)

__all__ = [
    "Partition",
    "Partitioner",
    "HashPartitioner",
    "ModuloPartitioner",
    "MultilevelPartitioner",
    "StreamingBalanced",
    "StreamingChunking",
    "StreamingGreedy",
    "Advice",
    "FennelPartitioner",
    "SpectralPartitioner",
    "PartitioningAdvisor",
    "PartitionReport",
    "balance",
    "edge_cut",
    "evaluate",
    "part_degrees",
    "remote_edge_fraction",
]

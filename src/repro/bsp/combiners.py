"""Message combiners (Pregel extension).

A combiner folds all messages bound for the same destination vertex into one
message *at the sending worker*, reducing network traffic and buffering.
The paper omits combiners from its evaluation ("the impact of these advanced
features is algorithm dependent"), but we implement them because (a) Pregel
defines them, (b) PageRank benefits directly, and (c) an ablation bench
quantifies exactly the message-count reduction the paper alludes to.

Combiners must be commutative and associative; the engine applies them
pairwise in arrival order.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from typing import Any

__all__ = ["Combiner", "SumCombiner", "MinCombiner", "MaxCombiner"]


class Combiner(ABC):
    """Pairwise message folding for a single destination vertex."""

    @abstractmethod
    def combine(self, a: Any, b: Any) -> Any:
        """Fold two payloads bound for the same vertex into one."""


class SumCombiner(Combiner):
    """Numeric sum (PageRank's rank mass)."""

    #: ``a + b``, called without a Python frame (a fold per message)
    combine = staticmethod(operator.add)


class MinCombiner(Combiner):
    """Minimum (SSSP distances, component labels)."""

    def combine(self, a, b):
        return a if a <= b else b


class MaxCombiner(Combiner):
    """Maximum."""

    def combine(self, a, b):
        return a if a >= b else b

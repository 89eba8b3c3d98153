"""Reduction operators for allreduce.

Operators are associative binary functions working on scalars and NumPy
arrays alike.  The set is what collective I/O needs: MAX for the
two-phase round count and ParColl's replan flag, and SUM, the default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


@dataclass(frozen=True)
class ReduceOp:
    name: str
    fn: Callable[[Any, Any], Any]

    def __call__(self, a: Any, b: Any) -> Any:
        return self.fn(a, b)

    def reduce_all(self, values: list[Any]) -> Any:
        """Left-fold over ``values`` (must be non-empty)."""
        acc = values[0]
        for v in values[1:]:
            acc = self.fn(acc, v)
        return acc


def _sum(a, b):
    return a + b


def _max(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


SUM = ReduceOp("sum", _sum)
MAX = ReduceOp("max", _max)

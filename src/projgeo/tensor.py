"""Dense coordinate tensors with variance bookkeeping.

A TensorValue is a rank-r array over an n-dimensional chart (n <= 8), row-major,
with each slot marked "up" (vector) or "down" (covector). All the curvature
machinery stores its results in this form, e.g. curvature R^l_{kij} has variance
("up", "down", "down", "down"). The variance describes the trailing r axes of
the data; any leading axes index sample points, so one value can hold a stack
of tensors, and sym2 and alt2 act on the last two axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TensorValue", "sym2", "alt2", "norm", "OddDimension"]

MAX_DIM = 8
UP = "up"
DOWN = "down"


class OddDimension(ValueError):
    """Complex-structure constructions need an even-dimensional chart."""


@dataclass(frozen=True)
class TensorValue:
    n: int
    variance: tuple[str, ...]
    data: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DIM:
            raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {self.n}")
        if any(v not in (UP, DOWN) for v in self.variance):
            raise ValueError(f"variance entries must be 'up' or 'down': {self.variance}")
        expected = (self.n,) * len(self.variance)
        arr = np.asarray(self.data, dtype=float)
        if arr.shape[arr.ndim - len(expected):] != expected:
            raise ValueError(f"data shape {arr.shape} does not end in {expected}")
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "variance", tuple(self.variance))

    @property
    def rank(self) -> int:
        return len(self.variance)


def _pair(t: TensorValue) -> np.ndarray:
    """The data of t with its two slots swapped; the slots must carry the same variance."""
    if t.rank != 2 or t.variance[0] != t.variance[1]:
        raise ValueError(f"expected two slots of equal variance, got {t.variance}")
    return np.swapaxes(t.data, -1, -2)


def sym2(t: TensorValue) -> TensorValue:
    """Symmetric part of a two-slot tensor."""
    return TensorValue(t.n, t.variance, 0.5 * (t.data + _pair(t)))


def alt2(t: TensorValue) -> TensorValue:
    """Antisymmetric part of a two-slot tensor."""
    return TensorValue(t.n, t.variance, 0.5 * (t.data - _pair(t)))


def norm(t: TensorValue) -> float:
    """Max-abs entry norm; for a stack, that of its worst point."""
    return float(np.max(np.abs(t.data))) if t.data.size else 0.0


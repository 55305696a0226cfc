"""Dense coordinate tensors with variance bookkeeping.

A TensorValue is a rank-r array over an n-dimensional chart (n <= 8), row-major,
with each slot marked "up" (vector) or "down" (covector). All the curvature
machinery stores its results in this form, e.g. curvature R^l_{kij} has variance
("up", "down", "down", "down"). The variance describes the trailing r axes of
the data; any leading axes index sample points, so one value can hold a stack
of tensors, and slot operations address slots counted from the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TensorValue", "swap", "sym2", "alt2", "norm",
    "VarianceMismatch", "SlotOutOfRange", "OddDimension",
]

MAX_DIM = 8
UP = "up"
DOWN = "down"


class VarianceMismatch(ValueError):
    """Slot variances do not fit the requested operation."""


class SlotOutOfRange(IndexError):
    """Slot index outside the tensor's rank, or slots not distinct."""


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


def _check_slots(t: TensorValue, a: int, b: int) -> None:
    if not (0 <= a < t.rank and 0 <= b < t.rank):
        raise SlotOutOfRange(f"slots ({a}, {b}) out of range for rank {t.rank}")
    if a == b:
        raise SlotOutOfRange("slots must be distinct")


def swap(t: TensorValue, a: int, b: int) -> TensorValue:
    """Exchange slots a and b; they must carry the same variance."""
    _check_slots(t, a, b)
    if t.variance[a] != t.variance[b]:
        raise VarianceMismatch("swap needs slots of equal variance")
    return TensorValue(t.n, t.variance, np.swapaxes(t.data, a - t.rank, b - t.rank))


def sym2(t: TensorValue, a: int = 0, b: int = 1) -> TensorValue:
    """Symmetric part in slots a, b (equal variance required)."""
    s = swap(t, a, b)
    return TensorValue(t.n, t.variance, 0.5 * (t.data + s.data))


def alt2(t: TensorValue, a: int = 0, b: int = 1) -> TensorValue:
    """Antisymmetric part in slots a, b (equal variance required)."""
    s = swap(t, a, b)
    return TensorValue(t.n, t.variance, 0.5 * (t.data - s.data))


def norm(t: TensorValue) -> float:
    """Max-abs entry norm; for a stack, that of its worst point."""
    return float(np.max(np.abs(t.data))) if t.data.size else 0.0


"""Dense grid representations for labels, probabilities and gradients.

A ``LabelMap`` holds ground truth as a per-pixel class-index map, read-only,
in the smallest unsigned dtype that fits; its range is checked once, at
construction.  Its ``values``, the read-only one-hot float64 planes that the
losses and ``overlap_stats`` read, are built on first access and kept.

Probability and gradient maps store one flat row-major float64 plane per
class: an array of shape ``(classes.total, shape.pixel_count)`` where pixel
index ``i`` enumerates the flattened grid, copied and frozen at construction.
Their constructors take only this flat layout; ``planes()`` and ``plane(k)``
read it back on the grid.  Class index 0 is always the background.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ShapeMismatchError, ValidationError

__all__ = [
    "ClassSet",
    "GridShape",
    "LabelMap",
    "ProbabilityMap",
    "GradientMap",
    "ClassOverlapStats",
    "overlap_stats",
    "PROB_SLACK",
]

# Probability values may stray this far outside [0, 1].  The
# finite-difference oracle probes losses at s +/- h without clamping, on raw
# arrays, and requires every probe to stay within this band, so each probe is
# a value a ProbabilityMap could hold and the losses see the same domain
# through a map or a probe stack.
PROB_SLACK = 1e-3


@dataclass(frozen=True)
class ClassSet:
    """Object classes of a segmentation task, background implicit at index 0."""

    count_objects: int

    def __post_init__(self) -> None:
        if int(self.count_objects) < 1:
            raise ValidationError(f"need at least one object class, got {self.count_objects}")
        object.__setattr__(self, "count_objects", int(self.count_objects))

    @property
    def total(self) -> int:
        """Number of class planes including the background."""
        return self.count_objects + 1


@dataclass(frozen=True)
class GridShape:
    """Shape of the pixel grid; supports any dimensionality."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(map(int, self.dims))
        if not dims or min(dims) < 1:
            raise ValidationError(f"grid dims must be positive, got {self.dims!r}")
        object.__setattr__(self, "dims", dims)

    @property
    def pixel_count(self) -> int:
        return math.prod(self.dims)

    @property
    def ndim(self) -> int:
        return len(self.dims)


@dataclass(frozen=True, eq=False)
class LabelMap:
    """Ground truth as a per-pixel class-index map."""

    indices: np.ndarray
    classes: ClassSet

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices)
        top = self.classes.total - 1
        if idx.dtype.kind not in "iu":
            raise ValidationError(f"class indices must be integers, got dtype {idx.dtype}")
        if idx.size == 0:
            raise ValidationError("index map must contain at least one pixel")
        if (idx.dtype.kind == "i" and idx.min() < 0) or idx.max() > top:
            raise ValidationError(f"class indices must lie in [0, {top}], got range [{idx.min()}, {idx.max()}]")
        idx = idx.astype(np.min_scalar_type(top))
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    @cached_property
    def shape(self) -> GridShape:
        """The grid, the shape of the index map."""
        return GridShape(self.indices.shape)

    @cached_property
    def values(self) -> np.ndarray:
        """Read-only one-hot planes, shaped (classes.total, pixel_count)."""
        planes = _one_hot(self.indices, self.classes.total)
        planes.setflags(write=False)
        return planes

    def foreground_sizes(self) -> np.ndarray:
        """Per-class pixel counts |{i : y(i,k) = 1}|."""
        return np.bincount(self.indices.reshape(-1), minlength=self.classes.total)


@dataclass(frozen=True, eq=False)
class _PlaneMap:
    """Shared storage and validation for per-class plane maps."""

    shape: GridShape
    classes: ClassSet
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64)
        if arr.shape != (self.classes.total, self.shape.pixel_count):
            raise ShapeMismatchError(
                f"values shape {arr.shape} does not match {self.classes.total} classes "
                f"of {self.shape.pixel_count} pixels on grid {self.shape.dims}"
            )
        self.check(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @staticmethod
    def check(arr: np.ndarray) -> None:
        """Raise ValidationError unless the flat array may be this map's values."""
        raise NotImplementedError

    def planes(self) -> np.ndarray:
        """Values reshaped to (classes.total, *dims)."""
        return self.values.reshape(self.classes.total, *self.shape.dims)

    def plane(self, k: int) -> np.ndarray:
        """A single class plane reshaped to the grid dims."""
        return self.values[k].reshape(self.shape.dims)


class ProbabilityMap(_PlaneMap):
    """Predicted per-pixel class probabilities in [0, 1].

    A small slack (``PROB_SLACK``) around the unit interval is tolerated; the
    finite-difference oracle keeps its probes of the losses inside it.
    """

    @staticmethod
    def check(arr: np.ndarray) -> None:
        """Raise ValidationError unless every value is finite and within the
        slack band, from one min and one max pass: a NaN propagates into both,
        and an infinity is an extreme."""
        if not arr.size:
            return
        lo, hi = arr.min(), arr.max()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError("probabilities must be finite")
        if lo < -PROB_SLACK or hi > 1.0 + PROB_SLACK:
            raise ValidationError(
                f"probabilities must lie in [0, 1] (+/- {PROB_SLACK:g} probe slack); "
                f"got range [{lo:g}, {hi:g}]"
            )


class GradientMap(_PlaneMap):
    """Per-pixel, per-class partial derivatives of a scalar loss."""

    @staticmethod
    def check(arr: np.ndarray) -> None:
        if not np.isfinite(arr).all():
            raise ValidationError("gradient values must be finite")


@dataclass(frozen=True, eq=False)
class ClassOverlapStats:
    """Per-class intersection I and union-sum U of a (label, probability) pair."""

    intersection: np.ndarray
    union_sum: np.ndarray

    def __post_init__(self) -> None:
        inter = np.array(self.intersection, dtype=np.float64)
        union = np.array(self.union_sum, dtype=np.float64)
        if inter.shape != union.shape or inter.ndim != 1:
            raise ShapeMismatchError("intersection and union_sum must be 1-D, same length")
        inter.setflags(write=False)
        union.setflags(write=False)
        object.__setattr__(self, "intersection", inter)
        object.__setattr__(self, "union_sum", union)


def require_same_grid(a: LabelMap | _PlaneMap, b: LabelMap | _PlaneMap) -> None:
    """Raise ShapeMismatchError unless both maps share grid and class set."""
    if a.shape != b.shape or a.classes != b.classes:
        raise ShapeMismatchError(
            f"grid/class mismatch: {a.shape.dims} x {a.classes.total} classes vs "
            f"{b.shape.dims} x {b.classes.total} classes"
        )


def overlap_sums(y: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-class I = sum_i y*s and U = sum_i (y + s) over the last axis; ``s``
    may carry leading axes, such as the probe axis of a probe stack."""
    return (y * s).sum(axis=-1), (y + s).sum(axis=-1)


def overlap_stats(y: LabelMap, s: ProbabilityMap) -> ClassOverlapStats:
    """Per-class I = sum_i y*s and U = sum_i (y + s)."""
    require_same_grid(y, s)
    return ClassOverlapStats(*overlap_sums(y.values, s.values))


def _one_hot(idx: np.ndarray, total: int) -> np.ndarray:
    """Raw one-hot planes, shaped (total, idx.size), of an index map whose
    values lie in [0, total)."""
    return (np.arange(total)[:, None] == idx.reshape(-1)).astype(np.float64)

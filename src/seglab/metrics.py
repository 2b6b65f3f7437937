"""Evaluation metrics: hard Dice coefficient and classwise expected
calibration error (ClECE).

DSC uses a small epsilon guard in the denominator; a class that is empty in
both maps scores 1.0 by convention.  Every function reads the label's class
indices, ``LabelMap.indices``, and no one-hot label planes.  ``dsc`` takes
overlaps and sizes of two index maps from one integer ``bincount`` of their
pairs ``label * total + prediction``; ``argmax_dsc`` scores the argmax
prediction of a probability map the same way, with no prediction map, and
equals ``dsc(y, argmax_predict(s))``.  Both take the argmax from one strict
``>`` chain over the class planes, so ties go to the lowest class.  Every
count is an exact integer, so the values equal those of a count over one-hot
planes bit for bit.

The public functions check once that their maps share a grid, then run
private kernels on the class indices and the raw ``(classes.total,
pixel_count)`` probabilities; the training engine calls those kernels
directly with each sample's index map.

ClECE bins every pixel of a class plane into equal-width confidence bins
[j/bins, (j+1)/bins), the first and last bins also taking the values that
stray below 0 and above 1, and normalizes by the full pixel count.  The
class planes from a first index on (0 for the public functions, 1 for the
training engine's test scores, which drop the background) are binned in one
pass over keys ``k * bins + b``.  A stable sort of the keys lays each bin's
pixels out contiguously and in pixel order.
Pixel counts per bin come from the bin edges in the sorted keys, and label
counts from a ``bincount`` of each pixel's key in its labeled class, read at
flat indices ``label * pixel_count + pixel``; both are exact.  Confidence
sums take one ``np.add.reduce`` per non-empty bin: the same pairwise sum over
the same values that the mean of a boolean-masked plane takes.  Each class
total adds its bins left to right.  So every value and every ``BinStat`` is
bit-identical to a per-bin loop (``tests/oracles.py::clece_report_loop``).
``np.add.reduceat`` and a ``bincount`` weighted by confidence sum in other
orders and differ from it in the last bits.  ``clece``, ``clece_report`` and
``evaluate_sample`` share this one pass; only ``clece_report`` turns its
cells into ``BinStat`` diagnostics.  Reported means exclude the background
class.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grid import LabelMap, ProbabilityMap, require_same_grid

__all__ = [
    "DSC_EPS",
    "DEFAULT_BINS",
    "BinStat",
    "ClassMetricReport",
    "dsc",
    "argmax_dsc",
    "argmax_predict",
    "clece",
    "clece_report",
    "evaluate_sample",
]

DSC_EPS = 1e-8
DEFAULT_BINS = 10


def _dice(inter: np.ndarray, sizes: np.ndarray, eps: float) -> np.ndarray:
    return np.where(sizes > 0, 2.0 * inter / (sizes + eps), 1.0)


def _index_dsc(labels: np.ndarray, pred: np.ndarray, total: int, eps: float) -> np.ndarray:
    """Per-class hard Dice of two flat class-index maps, by exact pixel counts."""
    confusion = np.bincount(labels.astype(np.intp) * total + pred, minlength=total * total).reshape(total, total)
    return _dice(confusion.diagonal(), confusion.sum(axis=0) + confusion.sum(axis=1), eps)


def dsc(y: LabelMap, pred: LabelMap, eps: float = DSC_EPS) -> np.ndarray:
    """Per-class hard Dice: 2|A n B| / (|A| + |B| + eps); both-empty -> 1.0."""
    require_same_grid(y, pred)
    return _index_dsc(y.indices.reshape(-1), pred.indices.reshape(-1), y.classes.total, eps)


def _argmax(sv: np.ndarray) -> np.ndarray:
    """Class index of the largest value per pixel of raw (classes.total, P)
    planes; ties go to the lowest class, as with np.argmax, which takes about
    twice as long on four 64x64 planes."""
    idx = np.zeros(sv.shape[1], dtype=np.intp)
    best = sv[0]
    for k in range(1, sv.shape[0]):
        idx[sv[k] > best] = k  # strictly greater: an equal later class does not win
        best = np.maximum(best, sv[k])
    return idx


def _argmax_dsc(labels: np.ndarray, sv: np.ndarray) -> np.ndarray:
    """argmax_dsc from a class-index map of pixel_count entries and raw
    (classes.total, pixel_count) probabilities."""
    return _index_dsc(labels.reshape(-1), _argmax(sv), sv.shape[0], DSC_EPS)


def argmax_dsc(y: LabelMap, s: ProbabilityMap) -> np.ndarray:
    """Per-class hard Dice of the argmax prediction of `s`; equals
    ``dsc(y, argmax_predict(s))`` without building the prediction map."""
    require_same_grid(y, s)
    return _argmax_dsc(y.indices, s.values)


def argmax_predict(s: ProbabilityMap) -> LabelMap:
    """Class-index map of the per-pixel argmax; ties go to the lowest class."""
    return LabelMap(_argmax(s.values).reshape(s.shape.dims), s.classes)


@dataclass(frozen=True)
class BinStat:
    """Diagnostics for one confidence bin of one class plane."""

    count: int
    confidence: float  # mean predicted probability in the bin (0.0 if empty)
    accuracy: float  # mean label in the bin (0.0 if empty)


def _bin_count(bins: object) -> int:
    if isinstance(bins, bool) or not isinstance(bins, (int, np.integer)) or bins < 1:
        raise ValidationError(f"bins must be an integer >= 1, got {bins!r}")
    return int(bins)


def _clece_cells(labels: np.ndarray, sv: np.ndarray, bins: int, first: int = 0) -> tuple[np.ndarray, ...]:
    """Per-class ClECE, then each cell's pixel count, mean confidence and mean
    label, shaped (classes.total - first, bins), for the classes from index
    ``first`` on, from a class-index map of pixel_count entries and raw
    (classes.total, pixel_count) probabilities."""
    bins = _bin_count(bins)
    planes = sv[first:]
    total, n = planes.shape
    cells = total * bins
    key_type = np.min_scalar_type(cells - 1)
    bin_idx = planes * bins
    np.clip(bin_idx, 0, bins - 1, out=bin_idx)  # so the cast below truncates as floor would
    key = (bin_idx.astype(key_type) + np.arange(0, cells, bins, dtype=key_type)[:, None]).reshape(-1)
    # A stable sort on the smallest unsigned key type (a radix sort for up to
    # 16 bits) lays each cell's pixels out contiguously in pixel order.
    order = np.argsort(key, kind="stable")
    grouped = planes.reshape(-1)[order]
    # Bin edges in the sorted keys take a third of the time of a bincount of
    # the keys, which first converts them to intp.
    edges = np.searchsorted(key[order], np.arange(cells + 1))
    starts, stops = edges[:-1], edges[1:]
    counts = stops - starts
    rows = labels.reshape(-1).astype(np.intp) - first
    pixels = np.flatnonzero(rows >= 0)
    label_sums = np.bincount(key[rows[pixels] * n + pixels], minlength=cells)
    conf_sums = np.zeros(cells)
    filled = np.flatnonzero(counts)
    conf_sums[filled] = [np.add.reduce(grouped[a:b]) for a, b in zip(starts[filled].tolist(), stops[filled].tolist())]
    confidence = np.divide(conf_sums, counts, out=np.zeros(cells), where=counts > 0)
    accuracy = np.divide(label_sums, counts, out=np.zeros(cells), where=counts > 0)
    gaps = (counts / n * np.abs(accuracy - confidence)).reshape(total, bins)
    values = np.cumsum(gaps, axis=1)[:, -1]  # bins added left to right
    return values, *(c.reshape(total, bins) for c in (counts, confidence, accuracy))


def clece_report(
    y: LabelMap, s: ProbabilityMap, bins: int = DEFAULT_BINS
) -> tuple[np.ndarray, list[list[BinStat]]]:
    """Per-class ClECE values plus the underlying bin diagnostics."""
    require_same_grid(y, s)
    values, counts, confidence, accuracy = _clece_cells(y.indices, s.values, bins)
    per_class = zip(counts.tolist(), confidence.tolist(), accuracy.tolist())
    return values, [list(map(BinStat, *cells)) for cells in per_class]


def clece(y: LabelMap, s: ProbabilityMap, bins: int = DEFAULT_BINS) -> np.ndarray:
    """Per-class classwise expected calibration error."""
    require_same_grid(y, s)
    return _clece_cells(y.indices, s.values, bins)[0]


@dataclass(frozen=True)
class ClassMetricReport:
    """Per-class DSC and ClECE for one sample, means over object classes."""

    dsc: np.ndarray  # (total,)
    clece: np.ndarray  # (total,)
    mean_dsc: float
    mean_clece: float


def evaluate_sample(
    y: LabelMap, s: ProbabilityMap, bins: int = DEFAULT_BINS
) -> ClassMetricReport:
    """Hard-prediction DSC plus calibration for one (label, probability) pair."""
    require_same_grid(y, s)
    labels = y.indices
    dice_values = _argmax_dsc(labels, s.values)
    cal_values = _clece_cells(labels, s.values, bins)[0]
    return ClassMetricReport(
        dsc=dice_values,
        clece=cal_values,
        mean_dsc=float(dice_values[1:].mean()),
        mean_clece=float(cal_values[1:].mean()),
    )

"""Independent gradient verification and analysis.

The finite-difference oracle never calls any analytic gradient code; it only
re-evaluates the forward loss at perturbed probabilities.  It hands the loss
raw float64 stacks of probes shaped ``(n, classes.total, pixel_count)``, at
most ``PROBE_BLOCK`` (2^17) elements each, and expects ``n`` values back, so
one call evaluates many probes in one array pass.  The audits quantify
the structure the dice gradient is supposed to have: at most two distinct
values per class plane, magnitudes below 2/(|K| * (U + eps)) per class, with
|K| and U read from the audited (label, probability) pair, and a narrow
dynamic range.  Gradient maps export one PFM plane per class; the PFM encoder
of ``imgio`` decides which planes it can hold, and every plane is encoded
before any file is written.

Three of the public functions are thin wrappers over private kernels on raw
float64 arrays shaped ``(classes.total, pixel_count)``, which hold all of their
arithmetic and value checks: ``_central_differences`` under ``finite_diff_grad``,
``_relative_error`` under ``max_relative_error`` and ``_bound_violations``
under ``audit_bound``.  The wrappers check the grids of their maps and wrap
the result.

Dynamic range convention: 10 * log10(max |g| / min nonzero |g|), taken
globally over all classes and pixels.

Audit reports are written as JSON artifacts (``imgio.write_json``) with the
keys {"max_rel_error", "distinct_values", "bound_violations", "dynamic_range_db"}.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import OracleError, UndefinedRangeError, ValidationError
from .grid import PROB_SLACK, GradientMap, LabelMap, ProbabilityMap, overlap_sums, require_same_grid
from .imgio import _pfm_bytes, write_atomic, write_json
from .losses import LossConfig

__all__ = [
    "FD_STEP",
    "PROBE_BLOCK",
    "finite_diff_grad",
    "max_relative_error",
    "audit_two_valued",
    "audit_bound",
    "dynamic_range_db",
    "export_gradient_map",
    "GradAuditReport",
]

FD_STEP = 1e-5

# Elements in one stack of probes handed to the loss: 1 MB of float64, which
# bounds the oracle's working memory whatever the size of the map.  It is the
# size of the largest random audit instance, 4 planes of 64 pixels, whose 512
# probes of 256 values then take one stack and one loss call.
PROBE_BLOCK = 1 << 17

# Absolute slack added to the per-class bound before counting a violation.
BOUND_SLACK = 1e-12


def finite_diff_grad(
    loss_fn: Callable[[np.ndarray], np.ndarray],
    s: ProbabilityMap,
    h: float = FD_STEP,
) -> GradientMap:
    """Central-difference gradient of a scalar loss with respect to s.

    ``loss_fn`` takes a float64 stack of probes shaped (n, classes.total,
    pixel_count) and returns their n loss values.  Each probe is s with one
    coordinate moved to s_i + h or s_i - h, without clamping.  A stack holds
    the +h probes, then the -h probes, of consecutive coordinates, and has at
    most PROBE_BLOCK elements unless one coordinate's pair alone is larger.
    Probes may leave [0, 1] by h; s +/- h must stay within the PROB_SLACK band
    that ProbabilityMap accepts.  That is checked as min(s) - h and max(s) + h,
    which equal the extremes of s - h and s + h because rounding is monotone.
    A non-finite or wrongly shaped result raises OracleError naming the
    coordinate.
    """
    return GradientMap(s.shape, s.classes, _central_differences(loss_fn, s.values, h))


def _central_differences(loss_fn: Callable[[np.ndarray], np.ndarray], values: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """finite_diff_grad on the raw (classes.total, pixel_count) array of s."""
    if not h > 0:
        raise ValidationError(f"step size must be positive, got {h}")
    shape = values.shape
    flat = values.reshape(-1)
    if flat.min() - h < -PROB_SLACK or flat.max() + h > 1.0 + PROB_SLACK:
        raise ValidationError(f"probes s +/- {h:g} leave [0, 1] by more than {PROB_SLACK:g}")
    size = flat.size
    coords = max(1, PROBE_BLOCK // (2 * size))
    grad = np.empty(size)
    for start in range(0, size, coords):
        stop = min(start + coords, size)
        n = stop - start
        # One broadcast assignment fills every probe with s, the one pass
        # over the stack before the 2n moved coordinates are written.
        probes = np.empty((2 * n, size))
        probes[...] = flat
        # Viewed as (2, n * size), row 0 holds the +h probes and row 1 the -h
        # probes; probe i moves coordinate start + i, which sits at
        # start + i * (size + 1), so one strided slice per row reaches all n
        # (the next step, start + n * (size + 1), is past n * size).
        halves = probes.reshape(2, n * size)
        halves[0, start :: size + 1] = flat[start:stop] + h
        halves[1, start :: size + 1] = flat[start:stop] - h
        losses = np.asarray(loss_fn(probes.reshape(2 * n, *shape)), dtype=np.float64)
        if losses.shape != (2 * n,):
            raise OracleError(
                f"loss returned shape {losses.shape} for {2 * n} probes starting at "
                f"coordinate {_coord(start, shape)}; expected ({2 * n},)"
            )
        hi, lo = losses[:n], losses[n:]
        if not np.isfinite(losses).all():
            j = np.flatnonzero(~(np.isfinite(hi) & np.isfinite(lo)))[0]
            raise OracleError(f"loss not finite at probe {_coord(start + j, shape)}: {hi[j]}, {lo[j]}")
        grad[start:stop] = (hi - lo) / (2.0 * h)
    return grad.reshape(shape)


def _coord(flat_index: int, shape: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(int(i) for i in np.unravel_index(flat_index, shape))


def max_relative_error(analytic: GradientMap, numeric: GradientMap) -> float:
    """max |a - n| / max(1, |a|, |n|) over all coordinates; maps on different
    grids or class sets raise ShapeMismatchError."""
    require_same_grid(analytic, numeric)
    return _relative_error(analytic.values, numeric.values)


def _relative_error(a: np.ndarray, n: np.ndarray) -> float:
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float((np.abs(a - n) / denom).max())


def audit_two_valued(g: GradientMap, tol: float = 1e-12) -> list[int]:
    """Distinct gradient values per class plane.

    Counts the equivalence classes of the transitive closure of |x - y| <= tol:
    sorted values are clustered wherever consecutive gaps exceed tol.
    """
    if not tol >= 0:
        raise ValidationError(f"tolerance must be non-negative, got {tol}")
    counts = []
    for row in g.values:
        ordered = np.sort(row)
        counts.append(1 + int((np.diff(ordered) > tol).sum()))
    return counts


def audit_bound(g: GradientMap, y: LabelMap, s: ProbabilityMap, *, epsilon: float = LossConfig.epsilon) -> int:
    """Count pixels whose |g| exceeds 2 / (|K| * (U + eps)), with |K| and U
    those of the pair (y, s) that g is the gradient at.

    Zero for the dice gradient at (y, s) and the same epsilon; a scaled copy
    serves as the negative control.  g on another grid or class set than y
    raises ShapeMismatchError.
    """
    require_same_grid(y, g)
    require_same_grid(y, s)
    return _bound_violations(g.values, y.values, s.values, epsilon)


def _bound_violations(g: np.ndarray, yv: np.ndarray, sv: np.ndarray, epsilon: float) -> int:
    """audit_bound on raw arrays of one shape, (classes.total, pixel_count)."""
    _, union = overlap_sums(yv, sv)
    limit = 2.0 / g.shape[0] / (union + epsilon) + BOUND_SLACK
    return int((np.abs(g) > limit[:, None]).sum())


def dynamic_range_db(g: GradientMap) -> float:
    """10 * log10(max |g| / min nonzero |g|) over all classes and pixels."""
    mags = np.abs(g.values)
    nonzero = mags[mags > 0.0]
    if nonzero.size == 0:
        raise UndefinedRangeError("dynamic range undefined for an all-zero gradient map")
    return float(10.0 * np.log10(nonzero.max() / nonzero.min()))


def export_gradient_map(g: GradientMap, path: str | Path) -> list[Path]:
    """Write one PFM file per class plane, named <path>_k<k>.pfm; a grid that
    is not 2-D, or a plane no PFM file can hold, writes no file."""
    return [write_atomic(target, data) for target, data in _pfm_planes(g, path).items()]


def _pfm_planes(g: GradientMap, path: str | Path) -> dict[Path, bytes]:
    """The PFM file of each class plane of g under its name, <path>_k<k>.pfm,
    every plane encoded and checked by ``imgio._pfm_bytes``."""
    targets = (Path(f"{path}_k{k}.pfm") for k in range(g.classes.total))
    return {target: _pfm_bytes(target, plane) for target, plane in zip(targets, g.planes())}


@dataclass(frozen=True)
class GradAuditReport:
    """Summary of one audit run over the losses under test."""

    max_rel_error: float
    distinct_values: tuple[int, ...]
    bound_violations: int
    dynamic_range_db: float

    def write(self, path: str | Path) -> Path:
        return write_json(path, asdict(self))

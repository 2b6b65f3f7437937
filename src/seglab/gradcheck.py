"""Independent gradient verification and analysis.

The finite-difference oracle never calls any analytic gradient code; it only
re-evaluates the forward loss at perturbed probabilities.  It hands the loss
raw float64 stacks of probes shaped ``(n, classes.total, pixel_count)``, at
most ``PROBE_BLOCK`` elements each, and expects ``n`` values back, so one call
evaluates many probes in one array pass.  The audits quantify
the structure the dice gradient is supposed to have: at most two distinct
values per class plane, magnitudes below 2/(U + eps) per class times the
loss's 1/|classes| average, whose |classes| the audited map's class set gives,
and a narrow dynamic range.

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
from .grid import PROB_SLACK, ClassOverlapStats, GradientMap, ProbabilityMap
from .imgio import write_json, write_pfm
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

# Elements in one stack of probes handed to the loss: 256 KB of float64, which
# bounds the oracle's working memory whatever the size of the map.
PROBE_BLOCK = 1 << 15

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
    if not h > 0:
        raise ValidationError(f"step size must be positive, got {h}")
    shape = s.values.shape
    flat = s.values.reshape(-1)
    if flat.min() - h < -PROB_SLACK or flat.max() + h > 1.0 + PROB_SLACK:
        raise ValidationError(f"probes s +/- {h:g} leave [0, 1] by more than {PROB_SLACK:g}")
    coords = max(1, PROBE_BLOCK // (2 * flat.size))
    grad = np.empty(flat.size)
    for start in range(0, flat.size, coords):
        idx = np.arange(start, min(start + coords, flat.size))
        n = idx.size
        probes = np.repeat(flat[None], 2 * n, axis=0)
        probes[np.arange(n), idx] = flat[idx] + h
        probes[np.arange(n, 2 * n), idx] = flat[idx] - h
        values = np.asarray(loss_fn(probes.reshape(2 * n, *shape)), dtype=np.float64)
        if values.shape != (2 * n,):
            raise OracleError(
                f"loss returned shape {values.shape} for {2 * n} probes starting at "
                f"coordinate {_coord(start, shape)}; expected ({2 * n},)"
            )
        hi, lo = values[:n], values[n:]
        if not np.isfinite(values).all():
            j = np.flatnonzero(~(np.isfinite(hi) & np.isfinite(lo)))[0]
            raise OracleError(f"loss not finite at probe {_coord(idx[j], shape)}: {hi[j]}, {lo[j]}")
        grad[idx] = (hi - lo) / (2.0 * h)
    return GradientMap(s.shape, s.classes, grad.reshape(shape))


def _coord(flat_index: int, shape: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(int(i) for i in np.unravel_index(flat_index, shape))


def max_relative_error(analytic: GradientMap, numeric: GradientMap) -> float:
    """max |a - n| / max(1, |a|, |n|) over all coordinates."""
    a = analytic.values
    n = numeric.values
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float((np.abs(a - n) / denom).max())


def audit_two_valued(g: GradientMap, tol: float = 1e-12) -> list[int]:
    """Distinct gradient values per class plane.

    Counts the equivalence classes of the transitive closure of |x - y| <= tol:
    sorted values are clustered wherever consecutive gaps exceed tol.
    """
    if tol < 0:
        raise ValidationError(f"tolerance must be non-negative, got {tol}")
    counts = []
    for row in g.values:
        ordered = np.sort(row)
        counts.append(1 + int((np.diff(ordered) > tol).sum()))
    return counts


def audit_bound(g: GradientMap, stats: ClassOverlapStats, *, epsilon: float = LossConfig.epsilon) -> int:
    """Count pixels whose |g| exceeds 2 / (|K| * (U + eps)), |K| = g.classes.total.

    Zero for any gradient produced by dice_grad with matching stats and
    epsilon; a scaled copy serves as the negative control.
    """
    if stats.union_sum.shape[0] != g.classes.total:
        raise ValidationError(
            f"stats cover {stats.union_sum.shape[0]} classes, gradient has {g.classes.total}"
        )
    limit = 2.0 / g.classes.total / (stats.union_sum + epsilon) + BOUND_SLACK
    return int((np.abs(g.values) > limit[:, None]).sum())


def dynamic_range_db(g: GradientMap) -> float:
    """10 * log10(max |g| / min nonzero |g|) over all classes and pixels."""
    mags = np.abs(g.values)
    nonzero = mags[mags > 0.0]
    if nonzero.size == 0:
        raise UndefinedRangeError("dynamic range undefined for an all-zero gradient map")
    return float(10.0 * np.log10(nonzero.max() / nonzero.min()))


def export_gradient_map(g: GradientMap, path: str | Path) -> list[Path]:
    """Write one PFM file per class plane, named <path>_k<k>.pfm."""
    if g.shape.ndim > 2:
        raise ValidationError(f"PFM export supports 1-D and 2-D grids, got {g.shape.dims}")
    written = []
    for k, plane in enumerate(g.planes()):
        if plane.ndim == 1:
            plane = plane.reshape(1, -1)
        target = Path(f"{path}_k{k}.pfm")
        write_pfm(target, plane)
        written.append(target)
    return written


@dataclass(frozen=True)
class GradAuditReport:
    """Summary of one audit run over the losses under test."""

    max_rel_error: float
    distinct_values: tuple[int, ...]
    bound_violations: int
    dynamic_range_db: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "distinct_values", tuple(int(c) for c in self.distinct_values))
        if self.max_rel_error < 0 or self.bound_violations < 0:
            raise ValidationError("audit counters must be non-negative")

    def write(self, path: str | Path) -> Path:
        return write_json(path, asdict(self))

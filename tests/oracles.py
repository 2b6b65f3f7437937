"""Brute-force oracles and instance builders shared by the test modules.

Everything here recomputes quantities with plain per-pixel loops so the
package's vectorized implementations are checked against an independent
path.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from seglab.grid import ClassSet, GradientMap, GridShape, LabelMap, ProbabilityMap


def random_instance(
    rng: np.random.Generator,
    max_pixels: int = 64,
    s_low: float = 0.05,
    s_high: float = 0.95,
) -> tuple[LabelMap, ProbabilityMap]:
    """Random one-hot labels and unconstrained probabilities, |K| in {2,3,4}."""
    count_objects = int(rng.integers(1, 4))
    pixels = int(rng.integers(4, max_pixels + 1))
    classes = ClassSet(count_objects)
    idx = rng.integers(0, classes.total, size=pixels)
    labels = one_hot(idx, classes)
    probs = ProbabilityMap(
        GridShape((pixels,)),
        classes,
        rng.uniform(s_low, s_high, size=(classes.total, pixels)),
    )
    return labels, probs


def one_hot(idx: np.ndarray, classes: ClassSet) -> LabelMap:
    """Loop-built one-hot map (independent of grid.one_hot_from_indices)."""
    idx = np.asarray(idx)
    flat = idx.reshape(-1)
    planes = np.zeros((classes.total, flat.size))
    for i, k in enumerate(flat):
        planes[int(k), i] = 1.0
    return LabelMap(GridShape(idx.shape), classes, planes)


def binary_pair(
    y_fore: list[float], s_fore: list[float]
) -> tuple[LabelMap, ProbabilityMap]:
    """Binary task from foreground vectors; background is the complement."""
    yf = np.array(y_fore, dtype=float)
    sf = np.array(s_fore, dtype=float)
    classes = ClassSet(1)
    shape = GridShape((yf.size,))
    labels = LabelMap(shape, classes, np.stack([1.0 - yf, yf]))
    probs = ProbabilityMap(shape, classes, np.stack([1.0 - sf, sf]))
    return labels, probs


def noisy_prediction_instance(
    rng: np.random.Generator, side: int = 12
) -> tuple[LabelMap, ProbabilityMap]:
    """Correct predictions perturbed per pixel, as in the dynamic-range study.

    Labels come from a nearest-anchor partition resampled until every class
    holds at least 15 % of the pixels.  Each pixel keeps most of its mass on
    the true class (90 % of pixels draw it from U(0.7, 0.99)); the rest are
    'hard' pixels with true-class mass in U(0.05, 0.3).  Leftover mass is
    split evenly over the other classes, so s stays on the simplex.
    """
    count_objects = int(rng.integers(1, 4))
    total = count_objects + 1
    n = side * side
    classes = ClassSet(count_objects)
    yy, xx = np.mgrid[0:side, 0:side]
    while True:
        anchors = rng.uniform(0, side, size=(total, 2))
        dist = (yy[None] - anchors[:, 0, None, None]) ** 2 + (
            xx[None] - anchors[:, 1, None, None]
        ) ** 2
        idx = dist.argmin(axis=0)
        if np.bincount(idx.ravel(), minlength=total).min() >= 0.15 * n:
            break
    labels = one_hot(idx, classes)
    hard = rng.random(n) < 0.1
    true_mass = np.where(
        hard, rng.uniform(0.05, 0.3, size=n), rng.uniform(0.7, 0.99, size=n)
    )
    true_class = idx.reshape(-1)
    values = np.empty((total, n))
    for k in range(total):
        values[k] = np.where(true_class == k, true_mass, (1.0 - true_mass) / (total - 1))
    probs = ProbabilityMap(GridShape((side, side)), classes, values)
    return labels, probs


def dsc_oracle(y: LabelMap, pred: LabelMap, eps: float = 1e-8) -> np.ndarray:
    """Per-class hard Dice by explicit pixel counting."""
    total = y.classes.total
    out = np.zeros(total)
    y_idx = y.values.argmax(axis=0)
    p_idx = pred.values.argmax(axis=0)
    for k in range(total):
        a = {i for i in range(y.shape.pixel_count) if y_idx[i] == k}
        b = {i for i in range(pred.shape.pixel_count) if p_idx[i] == k}
        if not a and not b:
            out[k] = 1.0
        else:
            out[k] = 2.0 * len(a & b) / (len(a) + len(b) + eps)
    return out


def clece_oracle(y: LabelMap, s: ProbabilityMap, bins: int = 10) -> np.ndarray:
    """Per-class calibration error by explicit per-pixel binning."""
    n = y.shape.pixel_count
    out = np.zeros(y.classes.total)
    for k in range(y.classes.total):
        groups: dict[int, list[int]] = {}
        for i in range(n):
            b = min(int(math.floor(s.values[k, i] * bins)), bins - 1)
            groups.setdefault(b, []).append(i)
        total = 0.0
        for members in groups.values():
            conf = sum(s.values[k, i] for i in members) / len(members)
            acc = sum(y.values[k, i] for i in members) / len(members)
            total += len(members) / n * abs(acc - conf)
        out[k] = total
    return out


def finite_diff_loop(
    loss_fn: Callable[[ProbabilityMap], float], s: ProbabilityMap, h: float
) -> GradientMap:
    """Central differences one coordinate at a time, each probe built as a map."""
    base = np.array(s.values)
    grad = np.empty_like(base)
    for idx in np.ndindex(base.shape):
        orig = base[idx]
        base[idx] = orig + h
        hi = loss_fn(ProbabilityMap(s.shape, s.classes, base))
        base[idx] = orig - h
        lo = loss_fn(ProbabilityMap(s.shape, s.classes, base))
        base[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * h)
    return GradientMap(s.shape, s.classes, grad)

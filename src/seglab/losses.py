"""Forward values and analytic gradients for the segmentation losses.

All losses average over the full class set, background included, and every
``*_grad`` function returns the derivative of the matching ``*_loss`` value so
the pair survives finite-difference checking.  The dice denominators carry the
same epsilon guard in the loss and in the gradient; the soft-overlap loss
("mime") and its fully simplified multi-class variant ("nm") are linear in the
probabilities, so their gradients are constant maps.

Every value function reduces only over the last two axes of the
probabilities.  Given a ``ProbabilityMap`` it returns a float; given a raw
float64 stack of probes shaped ``(n, classes.total, pixel_count)``, such as the
finite-difference oracle evaluates, it returns the ``n`` values, each equal to
the float the same probe gives as a map.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, ShapeMismatchError, ValidationError
from .grid import GradientMap, LabelMap, ProbabilityMap, overlap_sums, require_same_grid

__all__ = [
    "LossConfig",
    "LOSSES",
    "LOSS_IDS",
    "dice_loss",
    "dice_grad",
    "ce_loss",
    "ce_grad",
    "mime_weights",
    "mime_loss",
    "mime_grad",
    "nm_loss",
    "nm_grad",
    "combined_value",
    "combined_loss",
]

# Floor applied to probabilities inside log and its derivative; softmax
# outputs can underflow to 0 at extreme logits.
CE_CLAMP = 1e-12


@dataclass(frozen=True)
class LossConfig:
    """Shared loss settings.

    epsilon guards every dice denominator (loss and gradient alike);
    mime_a / mime_b parameterize the mime weight map.
    """

    epsilon: float = 1e-8
    mime_a: float = 1.9
    mime_b: float = 0.1

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ValidationError(f"epsilon must be positive, got {self.epsilon}")


Probs = ProbabilityMap | np.ndarray


def _planes(y: LabelMap, s: Probs) -> np.ndarray:
    """The probabilities of s: a map's values, or a raw (n, K, P) stack checked against y."""
    if isinstance(s, ProbabilityMap):
        require_same_grid(y, s)
        return s.values
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 3 or s.shape[1:] != y.values.shape:
        raise ShapeMismatchError(
            f"probe stack shape {s.shape} does not match (n, {y.classes.total}, {y.shape.pixel_count})"
        )
    return s


def _value(v: np.ndarray) -> float | np.ndarray:
    """A map's loss as a float, a stack's as its array of values."""
    return float(v) if v.ndim == 0 else v


def dice_loss(y: LabelMap, s: Probs, cfg: LossConfig = LossConfig()) -> float | np.ndarray:
    """Class-averaged soft dice loss: mean_k (1 - 2 I_k / (U_k + eps))."""
    intersection, union_sum = overlap_sums(y.values, _planes(y, s))
    terms = 1.0 - 2.0 * intersection / (union_sum + cfg.epsilon)
    return _value(terms.mean(axis=-1))


def dice_grad(y: LabelMap, s: ProbabilityMap, cfg: LossConfig = LossConfig()) -> GradientMap:
    """Analytic dice gradient; two values per class plane.

    Foreground pixels of class k get -2 (U_k - I_k) / (U_k + eps)^2, background
    pixels get 2 I_k / (U_k + eps)^2, both scaled by the 1/|classes| averaging
    factor of the loss.
    """
    require_same_grid(y, s)
    intersection, union_sum = overlap_sums(y.values, s.values)
    class_avg = 1.0 / y.classes.total
    denom = (union_sum + cfg.epsilon) ** 2
    fg = -2.0 * (union_sum - intersection) / denom * class_avg
    bg = 2.0 * intersection / denom * class_avg
    values = np.where(y.values == 1.0, fg[:, None], bg[:, None])
    return GradientMap(y.shape, y.classes, values)


def ce_loss(y: LabelMap, s: Probs, cfg: LossConfig = LossConfig()) -> float | np.ndarray:
    """Cross-entropy averaged over classes and pixels."""
    norm = y.classes.total * y.shape.pixel_count
    safe = np.maximum(_planes(y, s), CE_CLAMP)
    return _value(-(y.values * np.log(safe)).sum(axis=(-2, -1)) / norm)


def ce_grad(y: LabelMap, s: ProbabilityMap, cfg: LossConfig = LossConfig()) -> GradientMap:
    """Cross-entropy gradient: -y / (|classes| |pixels| s), zero off the labels."""
    require_same_grid(y, s)
    norm = y.classes.total * y.shape.pixel_count
    values = -y.values / (norm * np.maximum(s.values, CE_CLAMP))
    return GradientMap(y.shape, y.classes, values)


def mime_weights(y: LabelMap, a: float, b: float) -> np.ndarray:
    """Weight map omega = -a*y + b*(1 - y) with a, b > 0, shaped like y.values."""
    if not (a > 0 and b > 0):
        raise ValidationError(f"mime weights must be positive, got a={a}, b={b}")
    return -a * y.values + b * (1.0 - y.values)


def mime_loss(y: LabelMap, s: Probs, cfg: LossConfig = LossConfig()) -> float | np.ndarray:
    """Inner product of the flattened weight map with the probabilities."""
    w = mime_weights(y, cfg.mime_a, cfg.mime_b)
    return _value((w * _planes(y, s)).sum(axis=(-2, -1)))


def mime_grad(y: LabelMap, s: ProbabilityMap, cfg: LossConfig = LossConfig()) -> GradientMap:
    """The mime gradient is the weight map itself, independent of s."""
    return GradientMap(y.shape, y.classes, mime_weights(y, cfg.mime_a, cfg.mime_b))


def nm_loss(y: LabelMap, s: Probs, cfg: LossConfig = LossConfig()) -> float | np.ndarray:
    """Fully simplified linear loss -y.s; safe for training only when K >= 2."""
    return _value((-y.values * _planes(y, s)).sum(axis=(-2, -1)))


def nm_grad(y: LabelMap, s: ProbabilityMap, cfg: LossConfig = LossConfig()) -> GradientMap:
    """Gradient of nm_loss: exactly -y."""
    return GradientMap(y.shape, y.classes, -y.values)


LOSSES = {
    "ce": (ce_loss, ce_grad),
    "dice": (dice_loss, dice_grad),
    "mime": (mime_loss, mime_grad),
    "nm": (nm_loss, nm_grad),
}
LOSS_IDS = tuple(LOSSES)


def combined_value(
    terms: Sequence[tuple[str, float]] | Iterable[tuple[str, float]],
    y: LabelMap,
    s: Probs,
    cfg: LossConfig = LossConfig(),
) -> float | np.ndarray:
    """Weighted sum of loss values, sum_j lambda_j L_j, for a map or a probe stack."""
    terms = list(terms)
    if not terms:
        raise ConfigError("combined loss needs at least one (loss id, weight) term")
    total = 0.0
    for loss_id, lam in terms:
        if loss_id not in LOSSES:
            raise ConfigError(f"unknown loss id {loss_id!r}; expected one of {LOSS_IDS}")
        total = total + lam * LOSSES[loss_id][0](y, s, cfg)
    return total


def combined_loss(
    terms: Sequence[tuple[str, float]] | Iterable[tuple[str, float]],
    y: LabelMap,
    s: ProbabilityMap,
    cfg: LossConfig = LossConfig(),
) -> tuple[float, GradientMap]:
    """Weighted sum of losses and gradients: sum_j lambda_j (L_j, grad L_j)."""
    terms = list(terms)
    total = combined_value(terms, y, s, cfg)
    grad = np.zeros((y.classes.total, y.shape.pixel_count))
    for loss_id, lam in terms:
        grad = grad + lam * LOSSES[loss_id][1](y, s, cfg).values
    return total, GradientMap(y.shape, y.classes, grad)

"""Forward values and analytic gradients for the segmentation losses.

The loss ids are ``LOSS_IDS``: ``("ce", "dice", "mime", "nm")``.  A loss is a
term set, (loss id, weight) pairs, and a single loss is ``((id, 1.0),)``.
``combined_value`` gives a term set's value and ``combined_loss`` its value
and gradient.  All losses average over the full class set, background
included, and each gradient is the derivative of the matching value, so the
pair survives finite-difference checking.  The dice denominators carry the
same epsilon guard in the loss and in the gradient; the soft-overlap loss
("mime") and its fully simplified multi-class variant ("nm") are linear in the
probabilities, so their gradients are constant maps.

Every value reduces only over the last two axes of the probabilities.
Given a ``ProbabilityMap``, ``combined_value`` returns a float; given a raw
float64 stack of probes shaped ``(n, classes.total, pixel_count)``, such as the
finite-difference oracle evaluates, it returns the ``n`` values, each equal to
the float the same probe gives as a map.

Each loss's value and gradient are computed once, by a private kernel on raw
arrays: one-hot labels ``yv`` shaped ``(classes.total, pixel_count)`` and
probabilities ``sv`` shaped like ``yv`` (or a probe stack, for the value
alone).  A kernel returns ``(value, gradient)``; ``grad=False`` lets it skip
the gradient and return None for it.  ``_KERNELS`` maps each loss id to its
kernel, and is the only loss table.  Every per-class sum over pixels is one
contraction on the raw arrays, with no temporary shaped like the
probabilities, and reduces each class row of a stack as it reduces that row
of a map, so each stack value is the float the same probe gives as a map.
The dice kernel takes ``I`` and ``U`` from one ``overlap_sums`` call for both
and its gradient weights from ``_dice_weights``; the mime value sums
``w * sv`` per class, then over classes.  The ce and nm values read only the
labelled entry of each pixel, ``_labelled``: one log per pixel for ce, not one
per class entry.  The labelled entries of a map and of each probe of a stack
come out C-contiguous and in pixel order, so these values keep the same
equality.  The ce value clamps and takes the log in place on that fresh
gather, so it costs no array beyond it; the dice value takes its class mean
as ``.sum(axis=-1) / classes.total``, the arithmetic of ``.mean``.
``_combined`` sums the kernels of a term set, each sum started at 0.0.  A
unit weight skips its product, since ``x * 1.0 == x`` exactly; the 0.0 start
stays, because ``0.0 + -0.0`` is ``+0.0``: the ce and nm kernels' gradients
are -0.0 off the labels, and their gradient maps store +0.0 there.
``combined_value`` and ``combined_loss`` check the terms and the grid and
wrap ``_combined``'s result, and the training step calls ``_combined``
directly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, ShapeMismatchError, ValidationError
from .grid import GradientMap, LabelMap, ProbabilityMap, overlap_sums, require_same_grid

__all__ = [
    "LossConfig",
    "LOSS_IDS",
    "combined_value",
    "combined_loss",
]

# Floor applied to probabilities inside log and its derivative; softmax
# outputs can underflow to 0 at extreme logits.
CE_CLAMP = 1e-12


Probs = ProbabilityMap | np.ndarray


def _dice_weights(intersection: np.ndarray, union_sum: np.ndarray, eps: float, total: int):
    """Per-class weights (a, b) of the dice gradient, which is -a on the
    class's foreground pixels and b off them: a = 2 (U - I) / (U + eps)^2 and
    b = 2 I / (U + eps)^2, each times the loss's 1/|K| class average."""
    class_avg = 1.0 / total
    denom = (union_sum + eps) ** 2
    return 2.0 * (union_sum - intersection) / denom * class_avg, 2.0 * intersection / denom * class_avg


def _dice(yv: np.ndarray, sv: np.ndarray, cfg: LossConfig, grad: bool = True):
    """Class-averaged soft dice, mean_k (1 - 2 I_k / (U_k + eps)); its gradient
    takes two values per class plane (``_dice_weights``)."""
    intersection, union_sum = overlap_sums(yv, sv)
    # the arithmetic of .mean(axis=-1), without its Python wrapper
    value = (1.0 - 2.0 * intersection / (union_sum + cfg.epsilon)).sum(axis=-1) / yv.shape[0]
    if not grad:
        return value, None
    a, b = _dice_weights(intersection, union_sum, cfg.epsilon, yv.shape[0])
    return value, np.where(yv == 1.0, -a[:, None], b[:, None])


def _labelled(yv: np.ndarray, sv: np.ndarray) -> np.ndarray:
    """The probability at each pixel's labelled class, shaped (..., pixel_count)
    and C-contiguous: the sum over classes of yv * sv, exact because every
    other term of a pixel is a zero."""
    return np.einsum("kp,...kp->...p", yv, sv)


def _ce(yv: np.ndarray, sv: np.ndarray, cfg: LossConfig, grad: bool = True):
    """Cross-entropy averaged over classes and pixels; its gradient is
    -y / (|K| |pixels| s), zero off the labels."""
    norm = yv.size
    p = _labelled(yv, sv)  # a fresh array, so the clamp and the log can overwrite it
    value = -np.log(np.maximum(p, CE_CLAMP, out=p), out=p).sum(axis=-1) / norm
    return value, (-yv / (norm * np.maximum(sv, CE_CLAMP)) if grad else None)


def _mime_weights(yv: np.ndarray, a: float, b: float) -> np.ndarray:
    """The mime weight map omega = -a*y + b*(1 - y), shaped like yv."""
    return -a * yv + b * (1.0 - yv)


def _mime(yv: np.ndarray, sv: np.ndarray, cfg: LossConfig, grad: bool = True):
    """The inner product omega . s; its gradient is omega, whatever s."""
    w = _mime_weights(yv, cfg.a, cfg.b)
    # per class first, then over classes: one contraction over both axes
    # gives a stack a value that can differ from the map's in the last bit
    return np.einsum("kp,...kp->...k", w, sv).sum(axis=-1), w


def _nm(yv: np.ndarray, sv: np.ndarray, cfg: LossConfig, grad: bool = True):
    """The fully simplified linear loss -y . s, safe for training only when
    K >= 2; its gradient is exactly -y."""
    return -_labelled(yv, sv).sum(axis=-1), (-yv if grad else None)


_KERNELS = {"ce": _ce, "dice": _dice, "mime": _mime, "nm": _nm}
LOSS_IDS = tuple(_KERNELS)


def _checked_terms(terms: Sequence[tuple[str, float]] | Iterable[tuple[str, float]]) -> list[tuple[str, float]]:
    terms = list(terms)
    if not terms:
        raise ConfigError("loss key 'terms' needs at least one (loss id, weight) term")
    for loss_id, _ in terms:
        if loss_id not in LOSS_IDS:
            raise ConfigError(f"loss key 'terms' names unknown loss id {loss_id!r}; expected one of {LOSS_IDS}")
    return terms


@dataclass(frozen=True)
class LossConfig:
    """The "loss" block of an experiment config, and the dice epsilon.

    kind is a loss id or "combined"; terms, (loss id, weight) pairs with
    positive weights, are stored only for "combined", and any other kind is
    its own single term (``loss_terms``).  a and b, both positive, are the
    mime weight map's -a on the labels and b off them, whatever the kind.
    epsilon, not a config key, guards every dice denominator (loss and
    gradient alike).  Every rule is checked here, so a directly built or
    replaced config obeys it too.
    """

    kind: str = "dice"
    terms: tuple[tuple[str, float], ...] | None = None
    a: float = 1.9
    b: float = 0.1
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ValidationError(f"epsilon must be positive, got {self.epsilon}")
        if self.kind not in (*LOSS_IDS, "combined"):
            raise ConfigError(f"loss key 'kind' must be one of {(*LOSS_IDS, 'combined')}, got {self.kind!r}")
        if self.kind == "combined":
            if not all(lam > 0 for _, lam in _checked_terms(self.terms or ())):
                raise ConfigError(f"loss key 'terms' needs positive weights, got {list(self.terms)}")
        elif self.terms is not None:
            raise ConfigError(f"loss key 'terms' applies only to kind 'combined', not {self.kind!r}")
        if not (self.a > 0 and self.b > 0):
            raise ConfigError(f"loss keys 'a' and 'b' must be positive, got a={self.a}, b={self.b}")

    @property
    def loss_terms(self) -> tuple[tuple[str, float], ...]:
        """The stored terms of a combined loss; any other kind is its own single term."""
        return ((self.kind, 1.0),) if self.terms is None else self.terms


def _combined(terms, yv: np.ndarray, sv: np.ndarray, cfg: LossConfig, grad: bool = True):
    """sum_j lambda_j (L_j, grad L_j) over raw arrays, each sum started at 0.0
    and taken term by term (the gradient sum stays 0.0 when grad is False);
    the terms must already be validated.  A unit weight skips its product,
    which is exact; the 0.0 start turns a -0.0 gradient entry into +0.0."""
    value, total = 0.0, 0.0
    for loss_id, lam in terms:
        v, g = _KERNELS[loss_id](yv, sv, cfg, grad)
        if lam != 1.0:
            v, g = lam * v, (lam * g if grad else None)
        value = value + v
        if grad:
            total = total + g
    return value, total


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


def combined_value(
    terms: Sequence[tuple[str, float]] | Iterable[tuple[str, float]],
    y: LabelMap,
    s: Probs,
    cfg: LossConfig = LossConfig(),
) -> float | np.ndarray:
    """Weighted sum of loss values, sum_j lambda_j L_j: a float for a map, the
    array of the n values for a probe stack."""
    terms = _checked_terms(terms)
    value = _combined(terms, y.values, _planes(y, s), cfg, grad=False)[0]
    return float(value) if value.ndim == 0 else value


def combined_loss(
    terms: Sequence[tuple[str, float]] | Iterable[tuple[str, float]],
    y: LabelMap,
    s: ProbabilityMap,
    cfg: LossConfig = LossConfig(),
) -> tuple[float, GradientMap]:
    """Weighted sum of losses and gradients: sum_j lambda_j (L_j, grad L_j)."""
    terms = _checked_terms(terms)
    require_same_grid(y, s)
    value, grad = _combined(terms, y.values, s.values, cfg)
    return float(value), GradientMap(y.shape, y.classes, grad)

"""Parameter updates (SGD with momentum and weight decay; Adam) and the
plateau learning-rate scheduler.

SGD: v <- momentum * v + (g + weight_decay * theta); theta <- theta - eta * lam * v.
With momentum = 0, weight_decay = 0 and lam = 1 this is exactly
theta - eta * g.  Adam uses the classical bias-corrected form at step t, which
its state counts: ``AdamState.t`` is the number of updates taken.  Weight decay
is an SGD-only setting and is ignored by adam_step.

The scheduler halves the learning rate once the validation metric has failed
to improve (strict increase) for ``PATIENCE`` (20) consecutive epochs, then
resets its counter; the best metric seen so far is kept.  Its state is the
three values that change from epoch to epoch.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ShapeMismatchError, TrainingAbortError, ValidationError

__all__ = [
    "OptimizerConfig",
    "MomentumState",
    "AdamState",
    "SchedulerState",
    "default_optimizer_config",
    "sgd_step",
    "adam_step",
    "scheduler_step",
]

OPTIMIZER_KINDS = ("sgd", "adam")

PATIENCE = 20  # epochs without improvement before the scheduler halves the rate


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "adam"
    eta: float = 5e-4
    lam: float = 1.0
    momentum: float = 0.9
    weight_decay: float = 5e-4
    beta1: float = 0.99
    beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self) -> None:
        if self.kind not in OPTIMIZER_KINDS:
            raise ValidationError(f"optimizer key 'kind' must be one of {OPTIMIZER_KINDS}, got {self.kind!r}")
        if not self.eta > 0:
            raise ValidationError(f"optimizer key 'eta' must be positive, got {self.eta}")
        if not self.lam > 0:
            raise ValidationError(f"optimizer key 'lam' must be positive, got {self.lam}")
        if not self.weight_decay >= 0:
            raise ValidationError(f"optimizer key 'weight_decay' must be >= 0, got {self.weight_decay}")
        if not self.adam_eps > 0:
            raise ValidationError(f"optimizer key 'adam_eps' must be positive, got {self.adam_eps}")
        for key in ("momentum", "beta1", "beta2"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ValidationError(f"optimizer key {key!r} must lie in [0, 1), got {getattr(self, key)}")


def default_optimizer_config(kind: str) -> OptimizerConfig:
    """Reference hyper-parameters: the OptimizerConfig defaults (Adam), or SGD
    at eta 1e-2 with the default momentum and weight decay."""
    return OptimizerConfig(kind="sgd", eta=1e-2) if kind == "sgd" else OptimizerConfig(kind=kind)


@dataclass(eq=False)
class MomentumState:
    velocity: np.ndarray

    @classmethod
    def fresh(cls, n: int) -> "MomentumState":
        return cls(velocity=np.zeros(n))


@dataclass(eq=False)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0  # updates taken

    @classmethod
    def fresh(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n))


def _check_update_inputs(theta: np.ndarray, grad: np.ndarray) -> None:
    if theta.shape != grad.shape:
        raise ShapeMismatchError(f"theta shape {theta.shape} != gradient shape {grad.shape}")
    if not np.isfinite(grad).all():
        raise TrainingAbortError("non-finite gradient; aborting training")


def sgd_step(
    theta: np.ndarray,
    grad: np.ndarray,
    cfg: OptimizerConfig,
    state: MomentumState,
) -> np.ndarray:
    """One SGD update; mutates the velocity in `state`, returns new theta."""
    _check_update_inputs(theta, grad)
    g = grad + cfg.weight_decay * theta
    state.velocity = cfg.momentum * state.velocity + g
    return theta - (cfg.eta * cfg.lam) * state.velocity


def adam_step(
    theta: np.ndarray,
    grad: np.ndarray,
    cfg: OptimizerConfig,
    state: AdamState,
) -> np.ndarray:
    """One bias-corrected Adam update; counts the step in `state.t` and mutates `state`.

    Rejected inputs leave `state` unchanged.
    """
    _check_update_inputs(theta, grad)
    state.t += 1
    state.m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * grad
    state.v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * grad**2
    m_hat = state.m / (1.0 - cfg.beta1**state.t)
    v_hat = state.v / (1.0 - cfg.beta2**state.t)
    return theta - (cfg.eta * cfg.lam) * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


@dataclass(frozen=True)
class SchedulerState:
    best_metric: float = float("-inf")
    epochs_since_improvement: int = 0
    current_eta: float = 0.0


def scheduler_step(state: SchedulerState, val_metric: float) -> SchedulerState:
    """Advance the plateau scheduler by one epoch of validation feedback."""
    if not np.isfinite(val_metric):
        raise ValidationError(f"validation metric must be finite, got {val_metric}")
    if val_metric > state.best_metric:
        return replace(state, best_metric=float(val_metric), epochs_since_improvement=0)
    count = state.epochs_since_improvement + 1
    if count >= PATIENCE:
        return replace(state, epochs_since_improvement=0, current_eta=state.current_eta / 2.0)
    return replace(state, epochs_since_improvement=count)

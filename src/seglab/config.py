"""Experiment configuration: the JSON schema, its reader and its writer.

Configuration is a UTF-8 JSON file::

    {
      "dataset": {"kind": "acdc_like", "image_size": [64, 64],
                  "train": 500, "val": 50, "test": 100,
                  "noise_sigma": 0.03, "seed": null},
      "loss": {"kind": "dice"},
      "optimizer": {"kind": "adam"},
      "epochs": 60, "batch_size": 1, "seed": 0,
      "augment": false, "output_dir": "runs/dice-adam"
    }

Loss kinds: "ce", "dice", "nm", "mime" (optional "a"/"b", default 1.9/0.1) and
"combined" with "terms": [["ce", 1.0], ["dice", 1.0], ...], whose weights
must be positive; only "combined" takes "terms".  A "loss" or "optimizer"
given as a string names its kind.

Each block is one frozen dataclass with a field per key, and each top-level
key is one field of ``ExperimentConfig``: "dataset" is a
``DatasetSpec``, "loss" a ``losses.LossConfig`` and "optimizer" an
``OptimizerConfig``.  Each dataclass checks its own rules, so a directly built
config obeys them too; ``ExperimentConfig`` checks its own keys and the one
rule that spans blocks: no "nm" term on a dataset with one object class.

Each default is stated once, on a dataclass: top-level keys take the field
defaults of ``ExperimentConfig``, dataset keys those of ``DatasetSpec`` (apart
from the seed, whose null is derived from the run seed), loss keys those of
``LossConfig`` and optimizer keys the reference values of
``default_optimizer_config`` for the kind.  The reader converts only the keys
a file holds, through one table of converters per block; an unknown key, or a
value its converter rejects, raises a ``ConfigError`` that names the key.
So does a count beyond its upper bound: ``MAX_EPOCHS`` here, and the split
and image-side bounds of ``synthdata``.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, SegLabError
from .losses import LossConfig
from .optim import OptimizerConfig, default_optimizer_config
from .synthdata import DatasetSpec

__all__ = ["ExperimentConfig", "config_from_dict", "config_to_dict", "load_config"]

# At most this many epochs, so a run's length is bounded.
MAX_EPOCHS = 10000


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec = DatasetSpec(seed=None)
    loss: LossConfig = LossConfig()
    optimizer: OptimizerConfig = default_optimizer_config("adam")
    epochs: int = 60
    batch_size: int = 1
    seed: int = 0
    augment: bool = False
    output_dir: Path | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.epochs <= MAX_EPOCHS:
            raise ConfigError(f"config key 'epochs' must lie in [0, {MAX_EPOCHS}], got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"config key 'batch_size' must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"config key 'seed' must be >= 0, got {self.seed}")
        if any(lid == "nm" for lid, _ in self.loss.loss_terms) and self.dataset.classes.count_objects < 2:
            key = "kind" if self.loss.kind == "nm" else "terms"
            raise ConfigError(
                f"loss key {key!r}: nm loss requires a multi-class dataset (K >= 2); on binary tasks it "
                "admits trivial all-foreground solutions"
            )


def _read(data, name: str, converters: dict) -> dict:
    """Each key of data through its converter.

    An unknown key, or a value its converter rejects with TypeError,
    ValueError or OverflowError, raises a ConfigError naming the key; a
    SegLabError from a nested block passes through unchanged.
    """
    if not isinstance(data, dict):
        where = "config" if name == "config" else f"config key {name!r}"
        raise ConfigError(f"{where} must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - set(converters))
    if unknown:
        raise ConfigError(f"unknown {name} keys {', '.join(map(repr, unknown))}; expected {', '.join(converters)}")
    values = {}
    for key, value in data.items():
        try:
            values[key] = converters[key](value)
        except SegLabError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{name} key {key!r} has invalid value {value!r}: {exc}") from exc
    return values


def _as_int(value) -> int:
    """A JSON integer, or a float without a fractional part and of magnitude at
    most 2**53, above which a float is not an exact integer; booleans are not
    integers."""
    if isinstance(value, float) and value.is_integer() and abs(value) <= 2**53:
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("expected an integer")
    return value


def _as_float(value) -> float:
    """A finite JSON number; booleans and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError("expected a number")
    number = float(value)  # OverflowError for an integer beyond the float range
    if not np.isfinite(number):
        raise ValueError("expected a finite number")
    return number


def _as_str(value) -> str:
    if not isinstance(value, str):
        raise ValueError("expected a string")
    return value


def _as_bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError("expected true or false")
    return value


_DATASET = {
    "kind": str,
    "image_size": lambda v: tuple(_as_int(d) for d in v),
    "train": _as_int,
    "val": _as_int,
    "test": _as_int,
    "noise_sigma": _as_float,
    "seed": lambda v: None if v is None else _as_int(v),
}
_LOSS = {
    "kind": str,
    "a": _as_float,
    "b": _as_float,
    "terms": lambda v: tuple((str(lid), _as_float(lam)) for lid, lam in v),
}
_OPTIMIZER = {"kind": str, **{f.name: _as_float for f in fields(OptimizerConfig) if f.name != "kind"}}


def _dataset(value) -> DatasetSpec:
    return replace(ExperimentConfig.dataset, **_read(value, "dataset", _DATASET))


def _loss(value) -> LossConfig:
    return replace(ExperimentConfig.loss, **_read({"kind": value} if isinstance(value, str) else value, "loss", _LOSS))


def _optimizer(value) -> OptimizerConfig:
    opt = _read({"kind": value} if isinstance(value, str) else value, "optimizer", _OPTIMIZER)
    return replace(default_optimizer_config(opt.pop("kind", ExperimentConfig.optimizer.kind)), **opt)


_CONFIG = {
    "dataset": _dataset,
    "loss": _loss,
    "optimizer": _optimizer,
    "epochs": _as_int,
    "batch_size": _as_int,
    "seed": _as_int,
    "augment": _as_bool,
    "output_dir": lambda v: None if v in (None, "") else Path(_as_str(v)),
}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a validated ExperimentConfig from the JSON schema above; bad keys raise ConfigError."""
    return ExperimentConfig(**_read(data, "config", _CONFIG))


def config_to_dict(cfg: ExperimentConfig, include_output: bool = True) -> dict:
    """Round-trip an ExperimentConfig to the JSON schema."""
    loss: dict = {"kind": cfg.loss.kind, "a": cfg.loss.a, "b": cfg.loss.b}
    if cfg.loss.terms is not None:
        loss["terms"] = [[lid, lam] for lid, lam in cfg.loss.terms]
    data = {
        "dataset": asdict(cfg.dataset) | {"image_size": list(cfg.dataset.image_size)},
        "loss": loss,
        "optimizer": asdict(cfg.optimizer),
        "epochs": cfg.epochs,
        "batch_size": cfg.batch_size,
        "seed": cfg.seed,
        "augment": cfg.augment,
    }
    if include_output and cfg.output_dir is not None:
        data["output_dir"] = str(cfg.output_dir)
    return data


def load_config(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: UnicodeDecodeError and JSONDecodeError
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

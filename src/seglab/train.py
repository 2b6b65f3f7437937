"""The training engine: one run of one configuration, and comparisons of runs.

One run seed drives four independent streams (dataset, weight init, batch
shuffling, augmentation), so a fixed config reproduces every artifact byte for
byte.  A null dataset seed is derived from the run seed.  Artifacts never
embed absolute paths.

A run carries one ``_TrainState`` from epoch to epoch: the configured
optimizer's state (Adam's counts its own steps), the plateau scheduler (whose
best metric is the best validation DSC so far), the best parameters and
epoch, the epoch log, and the shuffle and augment generators.  ``_train_epoch`` advances it by one
epoch.  Each training step, validation epoch, test pass and gradient-map
export runs the same checked forward and softmax on raw arrays; only the
export wraps its gradients in maps.  Validation and testing share one scoring
loop.

The train and validation splits are drawn as lists before training.  The test
split is streamed: scored as it is drawn after training, so a run holds one
test sample at a time.  The dataset's size and seed checks still run before
training, at the first draw; a test sample whose geometry cannot be drawn now
raises after training.

Artifacts per training run: ``val_dsc.csv`` (header
``epoch,dsc_k1,...,dsc_kK,dsc_mean,lr``), ``test_metrics.json``, ``best.ckpt``
(best-validation parameters), and ``gradmap_<loss>_k<k>.pfm`` gradient maps of
the first validation sample at the best parameters.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from .config import ExperimentConfig, config_to_dict
from .errors import ConfigError, TrainingAbortError
from .gradcheck import export_gradient_map
from .grid import GradientMap, ProbabilityMap, _one_hot
from .imgio import write_atomic, write_json
from .losses import LossConfig, _combined
from .metrics import DEFAULT_BINS, _argmax_dsc, _clece_cells
from .net import ForwardCache, SegNet, _softmax, _softmax_backward, backward, forward, save_checkpoint
from .optim import AdamState, MomentumState, SchedulerState, adam_step, scheduler_step, sgd_step
from .synthdata import DatasetSpec, Sample, augment, generate_split

__all__ = ["EpochRecord", "RunResult", "run_experiment", "run_comparison"]

@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_dsc: tuple[float, ...]  # object classes 1..K
    val_dsc_mean: float
    lr: float


RunLog = list[EpochRecord]


@dataclass
class RunResult:
    config: ExperimentConfig
    log: RunLog
    best_epoch: int | None
    best_val_dsc: float | None
    test_metrics: dict
    output_dir: Path


def _streams(cfg: ExperimentConfig) -> tuple[DatasetSpec, int, np.random.Generator, np.random.Generator]:
    """The dataset spec with its seed resolved, the init seed, and the shuffle and augment generators."""
    children = np.random.SeedSequence(cfg.seed).spawn(4)
    spec = cfg.dataset
    if spec.seed is None:
        spec = replace(spec, seed=int(children[0].generate_state(1)[0]))
    init_seed = int(children[1].generate_state(1)[0])
    return spec, init_seed, np.random.default_rng(children[2]), np.random.default_rng(children[3])


def _probabilities(net: SegNet, sample: Sample, when: str) -> tuple[np.ndarray, ForwardCache]:
    """Checked forward, then the softmax as a raw (classes.total, pixel_count) array."""
    # A diverging net overflows here; the finiteness check reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        logits, cache = forward(net, sample.image)
    if not np.isfinite(logits).all():
        raise TrainingAbortError(f"non-finite logits {when} on sample {sample.id}")
    s = _softmax(logits.reshape(logits.shape[0], -1))
    ProbabilityMap.check(s)
    return s, cache


def _sample_loss_grad(
    net: SegNet,
    sample: Sample,
    terms: tuple[tuple[str, float], ...],
    lcfg: LossConfig,
    epoch: int,
) -> tuple[float, np.ndarray]:
    s, cache = _probabilities(net, sample, f"at epoch {epoch}")
    value, grad_s = _combined(terms, _one_hot(sample.label.indices, s.shape[0]), s, lcfg)
    GradientMap.check(grad_s)
    grad_z = _softmax_backward(s, grad_s).reshape(s.shape[0], *sample.image.shape)
    return float(value), backward(net, cache, grad_z)


def _score(net: SegNet, samples: Iterable[Sample], when: str, calibration: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample object-class DSC rows and, with calibration, ClECE rows."""
    dsc_rows, clece_rows = [], []
    for sample in samples:
        s, _ = _probabilities(net, sample, when)
        dsc_rows.append(_argmax_dsc(sample.label.indices, s)[1:])
        if calibration:
            clece_rows.append(_clece_cells(sample.label.indices, s, DEFAULT_BINS, first=1)[0])
    return np.array(dsc_rows), np.array(clece_rows)


def _test_metrics(net: SegNet, samples: Iterable[Sample], cfg: ExperimentConfig) -> dict:
    dice, calibration = _score(net, samples, "in testing", calibration=True)
    return {
        "loss": cfg.loss_kind,
        "optimizer": cfg.optimizer.kind,
        "n_test": len(dice),
        "per_class_dsc_mean": [float(v) for v in dice.mean(axis=0)],
        "per_class_dsc_std": [float(v) for v in dice.std(axis=0)],
        "per_class_clece_mean": [float(v) for v in calibration.mean(axis=0)],
        "mean_dsc": float(dice.mean()),
        "mean_dsc_std": float(dice.mean(axis=1).std()),
        "mean_clece": float(calibration.mean()),
    }


def _export_gradient_maps(net: SegNet, sample: Sample, losses: dict, lcfg: LossConfig, out: Path) -> list[Path]:
    """One PFM per class plane of dL/ds for each named term set in losses, at the net's parameters."""
    s, _ = _probabilities(net, sample, "for the gradient maps")
    label = sample.label
    written: list[Path] = []
    for name, terms in losses.items():
        grad_s = GradientMap(label.shape, label.classes, _combined(terms, label.values, s, lcfg)[1])
        written.extend(export_gradient_map(grad_s, out / f"gradmap_{name}"))
    return written


def _write_csv(path: Path, rows: list[list[str]]) -> Path:
    return write_atomic(path, "".join(",".join(row) + "\n" for row in rows).encode("utf-8"))


def _write_curve_csv(path: Path, log: RunLog, count_objects: int) -> None:
    header = ["epoch", *(f"dsc_k{k}" for k in range(1, count_objects + 1)), "dsc_mean", "lr"]
    rows = [[str(rec.epoch), *map(repr, rec.val_dsc), repr(rec.val_dsc_mean), repr(rec.lr)] for rec in log]
    _write_csv(path, [header, *rows])


@dataclass(eq=False)
class _TrainState:
    """Everything a run carries from one epoch to the next, besides the net."""

    optimizer: MomentumState | AdamState
    scheduler: SchedulerState  # best_metric is the best validation DSC so far
    best_params: np.ndarray
    shuffle_rng: np.random.Generator
    augment_rng: np.random.Generator
    best_epoch: int | None = None
    log: RunLog = field(default_factory=list)


def _train_epoch(
    net: SegNet, state: _TrainState, train_set: list[Sample], val_set: list[Sample], cfg: ExperimentConfig
) -> None:
    """One epoch: shuffled batches and optimizer steps, then validation, best tracking and the scheduler."""
    epoch = len(state.log)
    step_cfg = replace(cfg.optimizer, eta=state.scheduler.current_eta)
    lcfg = cfg.loss_config()
    order = state.shuffle_rng.permutation(len(train_set))
    batch_losses = []
    for start in range(0, len(order), cfg.batch_size):
        batch = [train_set[i] for i in order[start : start + cfg.batch_size]]
        if cfg.augment:
            batch = [augment(s, int(state.augment_rng.integers(0, 2**63))) for s in batch]
        # Huge loss weights overflow in the losses, backward and the batch
        # means: the gradient and batch-loss checks report it.  An overflowing
        # step leaves non-finite parameters: the next forward reports them.
        with np.errstate(over="ignore", invalid="ignore"):
            results = [_sample_loss_grad(net, s, cfg.loss_terms, lcfg, epoch) for s in batch]
            batch_loss = float(np.mean([value for value, _ in results]))
            if not np.isfinite(batch_loss):
                raise TrainingAbortError(f"non-finite training loss {batch_loss} at epoch {epoch}")
            grad = np.mean([g for _, g in results], axis=0)
            theta = (sgd_step if cfg.optimizer.kind == "sgd" else adam_step)(net.theta, grad, step_cfg, state.optimizer)
        net.set_params(theta)
        batch_losses.append(batch_loss)

    per_class = _score(net, val_set, f"at epoch {epoch}")[0].mean(axis=0)
    mean_dsc = float(per_class.mean())
    state.log.append(EpochRecord(epoch, float(np.mean(batch_losses)), tuple(float(v) for v in per_class), mean_dsc, step_cfg.eta))
    if mean_dsc > state.scheduler.best_metric:
        state.best_params = net.get_params()
        state.best_epoch = epoch
    state.scheduler = scheduler_step(state.scheduler, mean_dsc)


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Train, validate, test, and write the run artifacts."""
    if cfg.output_dir is None:
        raise ConfigError("run_experiment needs an output_dir")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    spec, init_seed, shuffle_rng, augment_rng = _streams(cfg)
    train_set, val_set = (list(generate_split(spec, split)) for split in ("train", "val"))
    net = SegNet(spec.classes, seed=init_seed)
    state = _TrainState(
        optimizer=(MomentumState if cfg.optimizer.kind == "sgd" else AdamState).fresh(net.param_count),
        scheduler=SchedulerState(current_eta=cfg.optimizer.eta),
        best_params=net.get_params(),
        shuffle_rng=shuffle_rng,
        augment_rng=augment_rng,
    )
    for _ in range(cfg.epochs):
        _train_epoch(net, state, train_set, val_set, cfg)

    net.set_params(state.best_params)
    test_report = _test_metrics(net, generate_split(spec, "test"), cfg)

    _write_curve_csv(out / "val_dsc.csv", state.log, spec.classes.count_objects)
    write_json(out / "test_metrics.json", test_report)
    best_val = None if state.best_epoch is None else state.scheduler.best_metric
    save_checkpoint(
        out / "best.ckpt",
        net,
        epoch=-1 if state.best_epoch is None else state.best_epoch,
        best_val_dsc=best_val,
        config=config_to_dict(cfg, include_output=False),
    )
    _export_gradient_maps(net, val_set[0], {cfg.loss_kind: cfg.loss_terms}, cfg.loss_config(), out)

    return RunResult(
        config=cfg,
        log=state.log,
        best_epoch=state.best_epoch,
        best_val_dsc=best_val,
        test_metrics=test_report,
        output_dir=out,
    )


def _require_comparable(cfgs: list[ExperimentConfig]) -> None:
    first = cfgs[0]
    for other in cfgs[1:]:
        same = (
            other.dataset == first.dataset
            and other.epochs == first.epochs
            and other.batch_size == first.batch_size
            and other.seed == first.seed
            and other.augment == first.augment
        )
        if not same:
            raise ConfigError("compared configs may differ only in loss/optimizer")


def _format_percent(mean: float, std: float) -> str:
    return f"{100 * mean:.1f} ({100 * std:04.1f})"


def run_comparison(cfgs: list[ExperimentConfig], out_dir: str | Path) -> tuple[Path, list[RunResult]]:
    """Run each config and tabulate per-class and mean test DSC."""
    if not cfgs:
        raise ConfigError("compare needs at least one config")
    _require_comparable(cfgs)
    out = Path(out_dir)
    cfgs = [
        cfg if cfg.output_dir is not None else replace(cfg, output_dir=out / f"run{i}_{cfg.loss_kind}_{cfg.optimizer.kind}")
        for i, cfg in enumerate(cfgs)
    ]
    resolved = [Path(cfg.output_dir).resolve() for cfg in cfgs]
    for i, path in enumerate(resolved):
        if path in resolved[:i]:
            raise ConfigError(f"compared configs share the output directory {cfgs[i].output_dir}")
    out.mkdir(parents=True, exist_ok=True)
    results = [run_experiment(cfg) for cfg in cfgs]

    count_objects = cfgs[0].dataset.classes.count_objects
    header = ["loss", "optimizer", *(f"dsc_k{k}" for k in range(1, count_objects + 1)), "dsc_mean"]
    rows = [
        [tm["loss"], tm["optimizer"], *map(repr, tm["per_class_dsc_mean"]), repr(tm["mean_dsc"])]
        for tm in (res.test_metrics for res in results)
    ]
    table = _write_csv(out / "comparison.csv", [header, *rows])

    print(f"{'loss':<10}{'optimizer':<11}" + "".join(f"{'k' + str(k):>14}" for k in range(1, count_objects + 1)) + f"{'mean':>14}")
    for res in results:
        tm = res.test_metrics
        row = f"{tm['loss']:<10}{tm['optimizer']:<11}"
        for m, s in zip(tm["per_class_dsc_mean"], tm["per_class_dsc_std"]):
            row += f"{_format_percent(m, s):>14}"
        row += f"{_format_percent(tm['mean_dsc'], tm['mean_dsc_std']):>14}"
        print(row)
    return table, results

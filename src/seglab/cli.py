"""Experiment runner and command line interface.

Subcommands
-----------
generate   write a synthetic dataset (16-bit PGMs plus a JSON manifest)
train      train the segmenter with one loss configuration, write artifacts
compare    run several configs differing only in loss/optimizer, tabulate DSC
audit      run the gradient audits, write a JSON report (exit 1 on failure)
gradmap    export per-loss gradient maps for one sample of a saved checkpoint

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
"combined" with "terms": [["ce", 1.0], ["dice", 1.0], ...].  Optimizer fields
not given fall back to the reference values of ``default_optimizer_config``.
A null dataset seed is derived from the run seed.  The flags --loss, --opt,
--seed and --out override the corresponding config keys.

One run seed drives four independent streams (dataset, weight init, batch
shuffling, augmentation), so a fixed config reproduces every artifact byte for
byte.  Artifacts never embed absolute paths.  On glibc, ``run_experiment``
keeps freed blocks of up to 32 MB in the process heap (see
``_keep_freed_memory``).

Artifacts per training run: ``val_dsc.csv`` (header
``epoch,dsc_k1,...,dsc_kK,dsc_mean,lr``), ``test_metrics.json``, ``best.ckpt``
(best-validation parameters), and ``gradmap_<loss>_k<k>.pfm`` gradient maps of
the first validation sample at the best parameters.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, SegLabError, TrainingAbortError
from .gradcheck import (
    GradAuditReport,
    audit_bound,
    audit_two_valued,
    dynamic_range_db,
    export_gradient_map,
    finite_diff_grad,
    max_relative_error,
)
from .grid import (
    ClassSet,
    GradientMap,
    GridShape,
    LabelMap,
    ProbabilityMap,
    _one_hot,
    one_hot_from_indices,
    overlap_stats,
)
from .imgio import write_atomic
from .losses import LOSS_IDS, LossConfig, _combined, combined_loss, combined_value, dice_grad
from .metrics import DEFAULT_BINS, _argmax_dsc, _clece_cells
from .net import (
    ForwardCache,
    SegNet,
    _softmax,
    _softmax_backward,
    backward,
    forward,
    load_checkpoint,
    save_checkpoint,
    softmax,
)
from .optim import (
    AdamState,
    MomentumState,
    OptimizerConfig,
    SchedulerState,
    adam_step,
    default_optimizer_config,
    scheduler_step,
    sgd_step,
)
from .synthdata import DatasetSpec, Sample, augment, export_dataset, generate

__all__ = [
    "ExperimentConfig",
    "EpochRecord",
    "RunResult",
    "config_from_dict",
    "config_to_dict",
    "load_config",
    "run_experiment",
    "run_comparison",
    "run_audit",
    "run_gradmap",
    "main",
]

SCHEDULER_PATIENCE = 20
AUDIT_TERM_SETS = (
    (("dice", 1.0),),
    (("ce", 1.0),),
    (("mime", 1.0),),
    (("nm", 1.0),),
    (("ce", 1.0), ("dice", 1.0)),
)
AUDIT_TRIALS = 25
AUDIT_TOLERANCE = 1e-5

_OPT_FIELDS = tuple(f.name for f in fields(OptimizerConfig) if f.name != "kind")
_CONFIG_KEYS = ("dataset", "loss", "optimizer", "epochs", "batch_size", "seed", "augment", "output_dir")
_DATASET_KEYS = tuple(f.name for f in fields(DatasetSpec))


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec
    loss_kind: str
    loss_terms: tuple[tuple[str, float], ...]
    mime_a: float
    mime_b: float
    optimizer: OptimizerConfig
    epochs: int
    batch_size: int
    seed: int
    augment: bool
    output_dir: Path | None

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.loss_terms:
            raise ConfigError("loss configuration resolved to zero terms")
        for lid, _ in self.loss_terms:
            if lid not in LOSS_IDS:
                raise ConfigError(f"unknown loss id {lid!r}; expected one of {LOSS_IDS}")
        if any(lid == "nm" for lid, _ in self.loss_terms) and self.dataset.classes.count_objects < 2:
            raise ConfigError(
                "nm loss requires a multi-class dataset (K >= 2); on binary tasks it "
                "admits trivial all-foreground solutions"
            )
        if not (self.mime_a > 0 and self.mime_b > 0):
            raise ConfigError(f"mime weights must be positive, got a={self.mime_a}, b={self.mime_b}")

    def loss_config(self) -> LossConfig:
        return LossConfig(mime_a=self.mime_a, mime_b=self.mime_b)


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


def _reader(data, name: str, known: tuple[str, ...]):
    """Reject unknown keys; return get(key, convert, default), which names a key convert() rejects."""
    if not isinstance(data, dict):
        raise ConfigError(f"{name} must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(f"unknown {name} keys {', '.join(map(repr, unknown))}; expected {', '.join(known)}")

    def get(key: str, convert, default):
        value = data.get(key, default)
        try:
            return convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{name} key {key!r} has invalid value {value!r}: {exc}") from exc

    return get


def _as_int(value) -> int:
    """A JSON integer, or a float without a fractional part; booleans are not integers."""
    if isinstance(value, float) and value.is_integer():
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


def _as_bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError("expected true or false")
    return value


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a validated ExperimentConfig from the JSON schema above; bad keys raise ConfigError."""
    get = _reader(data, "config", _CONFIG_KEYS)
    ds = _reader(data.get("dataset", {}), "dataset", _DATASET_KEYS)
    dataset = DatasetSpec(
        kind=ds("kind", str, "acdc_like"),
        image_size=ds("image_size", lambda v: tuple(_as_int(d) for d in v), (64, 64)),
        train=ds("train", _as_int, 500),
        val=ds("val", _as_int, 50),
        test=ds("test", _as_int, 100),
        noise_sigma=ds("noise_sigma", _as_float, 0.03),
        seed=ds("seed", lambda v: None if v is None else _as_int(v), None),
    )
    loss = data.get("loss", {"kind": "dice"})
    loss = _reader({"kind": loss} if isinstance(loss, str) else loss, "loss", ("kind", "a", "b", "terms"))
    kind = loss("kind", str, "dice")
    if kind == "combined":
        terms = loss("terms", lambda v: tuple((str(lid), _as_float(lam)) for lid, lam in v), ())
    elif kind in LOSS_IDS:
        terms = ((kind, 1.0),)
    else:
        raise ConfigError(f"unknown loss kind {kind!r}")
    opt = data.get("optimizer", {"kind": "adam"})
    opt = {"kind": opt} if isinstance(opt, str) else opt
    opt_get = _reader(opt, "optimizer", ("kind", *_OPT_FIELDS))
    optimizer = replace(
        default_optimizer_config(opt_get("kind", str, "adam")),
        **{k: opt_get(k, _as_float, None) for k in _OPT_FIELDS if k in opt},
    )
    return ExperimentConfig(
        dataset=dataset,
        loss_kind=kind,
        loss_terms=terms,
        mime_a=loss("a", _as_float, 1.9),
        mime_b=loss("b", _as_float, 0.1),
        optimizer=optimizer,
        epochs=get("epochs", _as_int, 60),
        batch_size=get("batch_size", _as_int, 1),
        seed=get("seed", _as_int, 0),
        augment=get("augment", _as_bool, False),
        output_dir=get("output_dir", lambda v: Path(v) if v else None, None),
    )


def config_to_dict(cfg: ExperimentConfig, include_output: bool = True) -> dict:
    """Round-trip an ExperimentConfig to the JSON schema."""
    loss: dict = {"kind": cfg.loss_kind, "a": cfg.mime_a, "b": cfg.mime_b}
    if cfg.loss_kind == "combined":
        loss["terms"] = [[lid, lam] for lid, lam in cfg.loss_terms]
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
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


# --------------------------------------------------------------------------
# training
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Streams:
    dataset_seed: int
    init_seed: int
    shuffle: np.random.Generator
    augment: np.random.Generator


def _derive_streams(seed: int) -> _Streams:
    children = np.random.SeedSequence(seed).spawn(4)
    return _Streams(
        dataset_seed=int(children[0].generate_state(1)[0]),
        init_seed=int(children[1].generate_state(1)[0]),
        shuffle=np.random.default_rng(children[2]),
        augment=np.random.default_rng(children[3]),
    )


def _resolved_dataset(cfg: ExperimentConfig, streams: _Streams) -> DatasetSpec:
    if cfg.dataset.seed is not None:
        return cfg.dataset
    return replace(cfg.dataset, seed=streams.dataset_seed)


def _checked_forward(net: SegNet, sample: Sample, when: str) -> tuple[np.ndarray, ForwardCache]:
    # A diverging net overflows here; the finiteness check reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        logits, cache = forward(net, sample.image)
    if not np.isfinite(logits).all():
        raise TrainingAbortError(f"non-finite logits {when} on sample {sample.id}")
    return logits, cache


def _probabilities(net: SegNet, sample: Sample, when: str) -> tuple[np.ndarray, ForwardCache]:
    """Checked forward, then the softmax as a raw (classes.total, pixel_count) array."""
    logits, cache = _checked_forward(net, sample, when)
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
    value, grad_s = _combined(terms, _one_hot(sample.indices, s.shape[0]), s, lcfg)
    GradientMap.check(grad_s)
    grad_z = _softmax_backward(s, grad_s).reshape(s.shape[0], *sample.image.shape)
    return float(value), backward(net, cache, grad_z)


def _validation_dsc(net: SegNet, samples: list[Sample], epoch: int) -> np.ndarray:
    rows = []
    for sample in samples:
        s, _ = _probabilities(net, sample, f"at epoch {epoch}")
        rows.append(_argmax_dsc(sample.indices, s)[1:])
    return np.array(rows)


def _test_metrics(net: SegNet, samples: list[Sample], cfg: ExperimentConfig) -> dict:
    dsc_rows, clece_rows = [], []
    for sample in samples:
        s, _ = _probabilities(net, sample, "in testing")
        dsc_rows.append(_argmax_dsc(sample.indices, s)[1:])
        clece_rows.append(_clece_cells(sample.indices, s, DEFAULT_BINS)[0][1:])
    dice = np.array(dsc_rows)
    calibration = np.array(clece_rows)
    return {
        "loss": cfg.loss_kind,
        "optimizer": cfg.optimizer.kind,
        "n_test": len(samples),
        "per_class_dsc_mean": [float(v) for v in dice.mean(axis=0)],
        "per_class_dsc_std": [float(v) for v in dice.std(axis=0)],
        "per_class_clece_mean": [float(v) for v in calibration.mean(axis=0)],
        "mean_dsc": float(dice.mean()),
        "mean_dsc_std": float(dice.mean(axis=1).std()),
        "mean_clece": float(calibration.mean()),
    }


def _write_csv(path: Path, rows: list[list[str]]) -> Path:
    return write_atomic(path, "".join(",".join(row) + "\n" for row in rows).encode("utf-8"))


def _write_curve_csv(path: Path, log: RunLog, count_objects: int) -> None:
    header = ["epoch", *(f"dsc_k{k}" for k in range(1, count_objects + 1)), "dsc_mean", "lr"]
    rows = [[str(rec.epoch), *map(repr, rec.val_dsc), repr(rec.val_dsc_mean), repr(rec.lr)] for rec in log]
    _write_csv(path, [header, *rows])


def _write_json(path: Path, payload: dict) -> None:
    write_atomic(path, (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8"))


# mallopt parameter numbers from glibc's malloc.h.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Stop glibc from handing each step's freed conv buffers back to the kernel.

    At 64x64 a training step allocates and frees forward's 2.4 MB im2col matrix
    and a few dozen arrays of 130-300 KB.  With glibc's adaptive defaults,
    whether a free trims the heap top depends on the heap layout, so a run may
    fault that memory back in on every step (1.2M minor page faults and a
    third of the wall time in the kernel over 2 acdc_like epochs, against 33k
    with this call).  Serving blocks up to 32 MB from the heap and trimming
    only past 128 MB of free top space keeps it mapped.  A no-op without
    mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 128 << 20)


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Train, validate, test, and write the run artifacts."""
    if cfg.output_dir is None:
        raise ConfigError("run_experiment needs an output_dir")
    _keep_freed_memory()
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    streams = _derive_streams(cfg.seed)
    spec = _resolved_dataset(cfg, streams)
    train_set, val_set, test_set = generate(spec)

    net = SegNet(spec.classes, seed=streams.init_seed)
    lcfg = cfg.loss_config()
    momentum_state = MomentumState.fresh(net.param_count)
    adam_state = AdamState.fresh(net.param_count)
    scheduler = SchedulerState(patience=SCHEDULER_PATIENCE, current_eta=cfg.optimizer.eta)
    adam_t = 0

    best_mean = float("-inf")
    best_params = net.get_params()
    best_epoch: int | None = None
    log: RunLog = []

    for epoch in range(cfg.epochs):
        lr = scheduler.current_eta
        order = streams.shuffle.permutation(len(train_set))
        batch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_set[i] for i in order[start : start + cfg.batch_size]]
            if cfg.augment:
                batch = [augment(s, int(streams.augment.integers(0, 2**63))) for s in batch]
            results = [_sample_loss_grad(net, s, cfg.loss_terms, lcfg, epoch) for s in batch]
            batch_loss = float(np.mean([value for value, _ in results]))
            if not np.isfinite(batch_loss):
                raise TrainingAbortError(
                    f"non-finite training loss {batch_loss} at epoch {epoch}"
                )
            grad = np.mean([g for _, g in results], axis=0)
            step_cfg = replace(cfg.optimizer, eta=lr)
            theta = net.get_params()
            # An overflowing step leaves non-finite parameters; the next
            # training or validation forward reports them.
            with np.errstate(over="ignore", invalid="ignore"):
                if cfg.optimizer.kind == "sgd":
                    theta = sgd_step(theta, grad, step_cfg, momentum_state)
                else:
                    adam_t += 1
                    theta = adam_step(theta, grad, step_cfg, adam_state, adam_t)
            net.set_params(theta)
            batch_losses.append(batch_loss)

        val_matrix = _validation_dsc(net, val_set, epoch)
        per_class = val_matrix.mean(axis=0)
        mean_dsc = float(per_class.mean())
        log.append(
            EpochRecord(
                epoch=epoch,
                train_loss=float(np.mean(batch_losses)),
                val_dsc=tuple(float(v) for v in per_class),
                val_dsc_mean=mean_dsc,
                lr=lr,
            )
        )
        if mean_dsc > best_mean:
            best_mean = mean_dsc
            best_params = net.get_params()
            best_epoch = epoch
        scheduler = scheduler_step(scheduler, mean_dsc)

    net.set_params(best_params)
    test_report = _test_metrics(net, test_set, cfg)

    _write_curve_csv(out / "val_dsc.csv", log, spec.classes.count_objects)
    _write_json(out / "test_metrics.json", test_report)
    best_val = None if best_epoch is None else best_mean
    save_checkpoint(
        out / "best.ckpt",
        net,
        epoch=-1 if best_epoch is None else best_epoch,
        best_val_dsc=best_val,
        config=config_to_dict(cfg, include_output=False),
    )
    probe = val_set[0]
    logits, _ = forward(net, probe.image)
    probs = softmax(logits)
    _, grad_s = combined_loss(cfg.loss_terms, probe.label, probs, lcfg)
    export_gradient_map(grad_s, out / f"gradmap_{cfg.loss_kind}")

    return RunResult(
        config=cfg,
        log=log,
        best_epoch=best_epoch,
        best_val_dsc=best_val,
        test_metrics=test_report,
        output_dir=out,
    )


# --------------------------------------------------------------------------
# comparison
# --------------------------------------------------------------------------


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
    out.mkdir(parents=True, exist_ok=True)
    results = []
    for i, cfg in enumerate(cfgs):
        if cfg.output_dir is None:
            cfg = replace(cfg, output_dir=out / f"run{i}_{cfg.loss_kind}_{cfg.optimizer.kind}")
        results.append(run_experiment(cfg))

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


# --------------------------------------------------------------------------
# audits
# --------------------------------------------------------------------------


def _random_audit_instance(rng: np.random.Generator) -> tuple[LabelMap, ProbabilityMap]:
    count_objects = int(rng.integers(1, 4))  # 2..4 planes including background
    pixels = int(rng.integers(4, 65))
    classes = ClassSet(count_objects)
    labels = one_hot_from_indices(rng.integers(0, classes.total, size=pixels), classes)
    probs = ProbabilityMap(
        GridShape((pixels,)),
        classes,
        rng.uniform(0.05, 0.95, size=(classes.total, pixels)),
    )
    return labels, probs


def run_audit(cfg: ExperimentConfig, report_path: str | Path) -> tuple[GradAuditReport, bool]:
    """Finite-difference, two-valuedness, bound and range audits.

    Relative error is taken over every loss in AUDIT_TERM_SETS on random
    instances; the dice-specific audits run on those instances and on the
    probabilities a freshly initialized net assigns to one dataset sample.
    """
    rng = np.random.default_rng(cfg.seed)
    lcfg = cfg.loss_config()
    max_err = 0.0
    violations = 0
    for terms in AUDIT_TERM_SETS:
        for _ in range(AUDIT_TRIALS):
            labels, probs = _random_audit_instance(rng)
            _, analytic = combined_loss(terms, labels, probs, lcfg)
            numeric = finite_diff_grad(lambda p: combined_value(terms, labels, p, lcfg), probs)
            max_err = max(max_err, max_relative_error(analytic, numeric))
            if terms == (("dice", 1.0),):  # analytic is then dice_grad(labels, probs, lcfg)
                violations += audit_bound(
                    analytic,
                    overlap_stats(labels, probs),
                    1.0 / labels.classes.total,
                    epsilon=lcfg.epsilon,
                )

    streams = _derive_streams(cfg.seed)
    spec = replace(_resolved_dataset(cfg, streams), train=1, val=1, test=1)
    _, val_set, _ = generate(spec)
    sample = val_set[0]
    net = SegNet(spec.classes, seed=streams.init_seed)
    logits, _ = forward(net, sample.image)
    probs = softmax(logits)
    label = sample.label
    sample_grad = dice_grad(label, probs, lcfg)
    distinct = audit_two_valued(sample_grad)
    violations += audit_bound(
        sample_grad, overlap_stats(label, probs), 1.0 / spec.classes.total, epsilon=lcfg.epsilon
    )
    report = GradAuditReport(
        max_rel_error=max_err,
        distinct_values=tuple(distinct),
        bound_violations=violations,
        dynamic_range_db=dynamic_range_db(sample_grad),
    )
    report.write(report_path)
    passed = (
        max_err < AUDIT_TOLERANCE
        and violations == 0
        and all(c == 2 for c in distinct)
    )
    return report, passed


# --------------------------------------------------------------------------
# gradient maps from a checkpoint
# --------------------------------------------------------------------------


def run_gradmap(checkpoint: str | Path, sample_id: str, out_dir: str | Path) -> list[Path]:
    """Export one PFM per class for every loss at the checkpoint parameters."""
    net, header = load_checkpoint(checkpoint)
    if not header.get("config"):
        raise ConfigError(f"checkpoint {checkpoint} does not embed its experiment config")
    cfg = config_from_dict(header["config"])
    streams = _derive_streams(cfg.seed)
    spec = _resolved_dataset(cfg, streams)
    sample = None
    for split in generate(spec):
        for candidate in split:
            if candidate.id == sample_id:
                sample = candidate
                break
    if sample is None:
        raise ConfigError(f"sample id {sample_id!r} not found in the configured dataset")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    logits, _ = forward(net, sample.image)
    probs = softmax(logits)
    lcfg = cfg.loss_config()
    label = sample.label
    written: list[Path] = []
    for loss_id in LOSS_IDS:
        _, grad_s = combined_loss(((loss_id, 1.0),), label, probs, lcfg)
        written.extend(export_gradient_map(grad_s, out / f"gradmap_{loss_id}"))
    return written


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--loss", choices=LOSS_IDS, help="override the configured loss")
    parser.add_argument("--opt", choices=("adam", "sgd"), help="override the optimizer")
    parser.add_argument("--seed", type=int, help="override the run seed")
    parser.add_argument("--out", help="override the output directory")


def _config_with_overrides(args: argparse.Namespace) -> ExperimentConfig:
    data = load_config(args.config) if args.config else {}
    if getattr(args, "loss", None):
        data["loss"] = {"kind": args.loss}
    if getattr(args, "opt", None):
        data["optimizer"] = {"kind": args.opt}
    if getattr(args, "seed", None) is not None:
        data["seed"] = args.seed
    if getattr(args, "out", None):
        data["output_dir"] = args.out
    return config_from_dict(data)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="segLab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic dataset to disk")
    p_gen.add_argument("--config", help="experiment config JSON")
    p_gen.add_argument("--seed", type=int, help="override the run seed")
    p_gen.add_argument("--out", required=True, help="dataset output directory")

    p_train = sub.add_parser("train", help="train one configuration")
    p_train.add_argument("--config", required=True, help="experiment config JSON")
    _add_override_flags(p_train)

    p_cmp = sub.add_parser("compare", help="run several configs and tabulate test DSC")
    p_cmp.add_argument("--configs", nargs="+", required=True, help="config JSON files")
    p_cmp.add_argument("--out", required=True, help="directory for comparison.csv and runs")

    p_audit = sub.add_parser("audit", help="run the gradient audits")
    p_audit.add_argument("--config", help="experiment config JSON")
    p_audit.add_argument("--seed", type=int, help="override the run seed")
    p_audit.add_argument("--out", default=".", help="directory for gradaudit.json")

    p_map = sub.add_parser("gradmap", help="export per-loss gradient maps for one sample")
    p_map.add_argument("--checkpoint", required=True, help="checkpoint file from a training run")
    p_map.add_argument("--sample", required=True, help="sample id, e.g. acdc_like-val-0000")
    p_map.add_argument("--out", required=True, help="output directory for the PFM files")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            cfg = _config_with_overrides(args)
            spec = _resolved_dataset(cfg, _derive_streams(cfg.seed))
            train_set, val_set, test_set = generate(spec)
            manifest = export_dataset(train_set, val_set, test_set, spec, args.out)
            print(f"wrote dataset manifest {manifest}")
            return 0
        if args.command == "train":
            cfg = _config_with_overrides(args)
            result = run_experiment(cfg)
            tm = result.test_metrics
            print(
                f"loss={tm['loss']} optimizer={tm['optimizer']} "
                f"mean test DSC={tm['mean_dsc']:.4f} mean ClECE={tm['mean_clece']:.4f} "
                f"(artifacts in {result.output_dir})"
            )
            return 0
        if args.command == "compare":
            cfgs = [config_from_dict(load_config(p)) for p in args.configs]
            table, _ = run_comparison(cfgs, args.out)
            print(f"wrote {table}")
            return 0
        if args.command == "audit":
            cfg = _config_with_overrides(args)
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            report, passed = run_audit(cfg, out / "gradaudit.json")
            print(
                f"max_rel_error={report.max_rel_error:.3g} "
                f"distinct={list(report.distinct_values)} "
                f"bound_violations={report.bound_violations} "
                f"dynamic_range_db={report.dynamic_range_db:.3f} "
                f"=> {'PASS' if passed else 'FAIL'}"
            )
            return 0 if passed else 1
        if args.command == "gradmap":
            written = run_gradmap(args.checkpoint, args.sample, args.out)
            print(f"wrote {len(written)} gradient maps to {args.out}")
            return 0
    except SegLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())

"""The segLab command line, the gradient audit and gradient maps from a checkpoint.

Subcommands
-----------
generate   write a synthetic dataset (16-bit PGMs plus a JSON manifest)
train      train the segmenter with one loss configuration, write artifacts
compare    run several configs differing only in loss/optimizer, tabulate DSC
audit      run the gradient audits, write a JSON report (exit 1 on failure)
gradmap    export per-loss gradient maps for one sample of a saved checkpoint

Each command but ``gradmap`` reads experiment configs (:mod:`seglab.config`);
the flags --loss, --opt, --seed and --out, where a command has them, override
the corresponding config keys: --loss and --opt set only the kind of their
block and keep its other keys, but --loss drops "terms", which only
"combined" takes.  ``train`` and ``compare`` run the engine in :mod:`seglab.train`.  Bad
input, a config or a path, ends as one ``error:`` line on stderr and exit
code 2, and so does a ``MemoryError``.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, config_from_dict, config_to_dict, load_config
from .errors import ConfigError, SegLabError
from .gradcheck import (
    GradAuditReport,
    _bound_violations,
    _central_differences,
    _relative_error,
    audit_two_valued,
    dynamic_range_db,
)
from .grid import GradientMap, _one_hot
from .losses import LOSS_IDS, _combined, _dice
from .net import SegNet, load_checkpoint
from .optim import OPTIMIZER_KINDS
from .synthdata import export_dataset, generate_split, split_of
from .train import EpochRecord, RunResult, _export_gradient_maps, _probabilities, _streams, run_comparison, run_experiment

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

AUDIT_TERM_SETS = (
    (("dice", 1.0),),
    (("ce", 1.0),),
    (("mime", 1.0),),
    (("nm", 1.0),),
    (("ce", 1.0), ("dice", 1.0)),
)
AUDIT_TRIALS = 25
AUDIT_TOLERANCE = 1e-5


# --------------------------------------------------------------------------
# audits
# --------------------------------------------------------------------------


def _random_audit_instance(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Raw one-hot labels and uniform probabilities, both (total, pixels)."""
    total = int(rng.integers(1, 4)) + 1  # 2..4 planes including background
    pixels = int(rng.integers(4, 65))
    labels = rng.integers(0, total, size=pixels)
    sv = rng.uniform(0.05, 0.95, size=(total, pixels))
    return _one_hot(labels, total), sv


def run_audit(cfg: ExperimentConfig, report_path: str | Path) -> tuple[GradAuditReport, bool]:
    """Finite-difference, two-valuedness, bound and range audits.

    Relative error is taken over every loss in AUDIT_TERM_SETS on random
    instances; the dice-specific audits run on those instances and on the
    probabilities a freshly initialized net assigns to one dataset sample.
    The random instances stay raw arrays, as in the training step: the
    analytic gradient comes from ``losses._combined`` and the numeric one from
    ``gradcheck._central_differences`` over its values, one probe stack and
    so one value-only loss call per instance, and ``_bound_violations``
    audits each dice instance.  Each term set's analytic and numeric
    gradients over all its instances are then flattened into one array each,
    which pass one ``GradientMap.check`` apiece, and one ``_relative_error``
    compares them; its max equals the max of the per-instance errors.  The
    dataset sample takes the engine's checked path, ``train._probabilities``;
    its dice gradient comes from the dice kernel ``losses._dice`` itself and
    is the one map the audit builds, read by ``audit_two_valued`` and
    ``dynamic_range_db``, and its bound violations are counted by
    ``_bound_violations``.  With the sample's label that is two maps per
    call.
    """
    rng = np.random.default_rng(cfg.seed)
    loss = cfg.loss
    max_err = 0.0
    violations = 0
    for terms in AUDIT_TERM_SETS:
        analytic, numeric = [], []
        for _ in range(AUDIT_TRIALS):
            yv, sv = _random_audit_instance(rng)
            g = _combined(terms, yv, sv, loss)[1]
            analytic.append(g.reshape(-1))
            numeric.append(_central_differences(lambda p: _combined(terms, yv, p, loss, grad=False)[0], sv).reshape(-1))
            if terms == (("dice", 1.0),):  # g is then the dice gradient at (yv, sv)
                violations += _bound_violations(g, yv, sv, loss.epsilon)
        # the max over all instances is the max of the per-instance maxima
        a, n = np.concatenate(analytic), np.concatenate(numeric)
        GradientMap.check(a)
        GradientMap.check(n)
        max_err = max(max_err, _relative_error(a, n))

    spec, init_seed, _, _ = _streams(cfg)
    sample = next(generate_split(spec, "val"))
    s, _ = _probabilities(SegNet(spec.classes, seed=init_seed), sample, "in the audit")
    label = sample.label
    sample_grad = GradientMap(label.shape, label.classes, _dice(label.values, s, loss)[1])
    distinct = audit_two_valued(sample_grad)
    violations += _bound_violations(sample_grad.values, label.values, s, loss.epsilon)
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
    """Export one PFM per class for every loss at the checkpoint parameters.

    Only the split the sample id names (``synthdata.split_of``) is drawn,
    and only up to the sample.
    """
    net, header = load_checkpoint(checkpoint)
    if not header.get("config"):
        raise ConfigError(f"checkpoint {checkpoint} does not embed its experiment config")
    cfg = config_from_dict(header["config"])
    if net.classes != cfg.dataset.classes:
        raise ConfigError(
            f"checkpoint {checkpoint} has {net.classes.total} classes, "
            f"but its config's dataset has {cfg.dataset.classes.total}"
        )
    spec = _streams(cfg)[0]
    split = split_of(spec, sample_id)
    sample = None if split is None else next((s for s in generate_split(spec, split) if s.id == sample_id), None)
    if sample is None:
        raise ConfigError(f"sample id {sample_id!r} not found in the configured dataset")
    losses = [replace(cfg.loss, kind=lid, terms=None) for lid in LOSS_IDS]
    return _export_gradient_maps(net, sample, losses, Path(out_dir))


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--loss", choices=LOSS_IDS, help="set the loss kind, keeping a and b")
    parser.add_argument("--opt", choices=OPTIMIZER_KINDS, help="set the optimizer kind, keeping its other keys")
    parser.add_argument("--seed", type=int, help="override the run seed")
    parser.add_argument("--out", help="override the output directory")


def _with_kind(block, kind: str, drop: str | None = None):
    """A config block with its kind set to kind, keeping every other key but
    drop.  A block given as a string counts as its kind; any other block that
    is not an object is returned as it is, for the reader to reject."""
    if isinstance(block, str):
        block = {}
    if not isinstance(block, dict):
        return block
    return {key: value for key, value in block.items() if key != drop} | {"kind": kind}


def _config_with_overrides(args: argparse.Namespace) -> ExperimentConfig:
    data = load_config(args.config) if args.config else {}
    if not isinstance(data, dict):
        return config_from_dict(data)  # rejects it, naming the config
    if getattr(args, "loss", None):
        # a and b hold for every kind; terms only for "combined", which --loss cannot name
        data["loss"] = _with_kind(data.get("loss", {}), args.loss, drop="terms")
    if getattr(args, "opt", None):
        data["optimizer"] = _with_kind(data.get("optimizer", {}), args.opt)
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
            spec = _streams(cfg)[0]
            manifest = export_dataset(spec, args.out)
            print(f"wrote dataset manifest {manifest}")
            return 0
        if args.command == "train":
            cfg = _config_with_overrides(args)
            result = run_experiment(cfg)
            tm = result.test_metrics
            print(
                f"loss={tm['loss']} optimizer={tm['optimizer']} "
                f"mean test DSC={tm['mean_dsc']:.4f} mean ClECE={tm['mean_clece']:.4f} "
                f"(artifacts in {cfg.output_dir})"
            )
            return 0
        if args.command == "compare":
            cfgs = [config_from_dict(load_config(p)) for p in args.configs]
            table, _ = run_comparison(cfgs, args.out)
            print(f"wrote {table}")
            return 0
        if args.command == "audit":
            cfg = _config_with_overrides(args)
            report, passed = run_audit(cfg, Path(args.out) / "gradaudit.json")
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
    except (SegLabError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())

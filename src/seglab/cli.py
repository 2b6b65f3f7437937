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
the corresponding config keys.  ``train`` and ``compare`` run the engine in :mod:`seglab.train`.  Bad
input, a config or a path, ends as one ``error:`` line on stderr and exit
code 2.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, config_from_dict, config_to_dict, load_config
from .errors import ConfigError, SegLabError
from .gradcheck import (
    GradAuditReport,
    audit_bound,
    audit_two_valued,
    dynamic_range_db,
    finite_diff_grad,
    max_relative_error,
)
from .grid import ClassSet, GridShape, LabelMap, ProbabilityMap, overlap_stats
from .losses import LOSS_IDS, combined_loss, combined_value, dice_grad
from .net import SegNet, forward, load_checkpoint, softmax
from .optim import OPTIMIZER_KINDS
from .synthdata import export_dataset, generate_split, split_of
from .train import EpochRecord, RunResult, _export_gradient_maps, _streams, run_comparison, run_experiment

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


def _random_audit_instance(rng: np.random.Generator) -> tuple[LabelMap, ProbabilityMap]:
    count_objects = int(rng.integers(1, 4))  # 2..4 planes including background
    pixels = int(rng.integers(4, 65))
    classes = ClassSet(count_objects)
    labels = LabelMap(rng.integers(0, classes.total, size=pixels), classes)
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
                violations += audit_bound(analytic, overlap_stats(labels, probs), epsilon=lcfg.epsilon)

    spec, init_seed, _, _ = _streams(cfg)
    sample = next(generate_split(spec, "val"))
    net = SegNet(spec.classes, seed=init_seed)
    logits, _ = forward(net, sample.image)
    probs = softmax(logits)
    label = sample.label
    sample_grad = dice_grad(label, probs, lcfg)
    distinct = audit_two_valued(sample_grad)
    violations += audit_bound(sample_grad, overlap_stats(label, probs), epsilon=lcfg.epsilon)
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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _export_gradient_maps(net, sample, {lid: ((lid, 1.0),) for lid in LOSS_IDS}, cfg.loss_config(), out)


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--loss", choices=LOSS_IDS, help="override the configured loss")
    parser.add_argument("--opt", choices=OPTIMIZER_KINDS, help="override the optimizer")
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
    except (SegLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())

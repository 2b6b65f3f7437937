"""Write a fixed set of seglab artifacts, for byte-for-byte comparison of two trees.

Usage: ``python3 tools/parity_artifacts.py ROOT OUT``

Imports seglab from ``ROOT/src`` and runs ``segLab`` commands through
``seglab.cli.main`` with ``OUT`` as the working directory, so every path the
commands print or write is relative.  ``OUT`` must not exist yet.  Each
command leaves its artifacts in a directory of its own, its printed lines in
``<name>.stdout`` and its exit code in ``exit_codes.txt``.  Two trees that
behave alike give outputs equal under ``diff -r``:

    python3 tools/parity_artifacts.py PARENT parent_out
    python3 tools/parity_artifacts.py .      change_out
    diff -r parent_out change_out

The set: 2-epoch acdc_like 48x48 runs at batch 1 with Adam for each of
``dice``/``ce``/``mime``/``nm``; a promise_like ``ce``+``dice`` SGD run at
batch 4 with augment; a 24-epoch promise_like Adam run whose validation DSC
never beats epoch 0, so the learning rate halves after epoch 20; a zero-epoch
``mime`` run with its own ``a`` and ``b`` and a 20-sample test split;
``compare`` over two configs differing in loss kind and optimizer, and over
two ``mime`` configs differing in ``a`` and ``b``; ``generate``; ``audit``
under the default config for seeds 3, 17 and 123456 and for 40000-40031, the
run seeds of the benchmark's audit pool (whose template is the default
config), and under the promise_like SGD config for seed 4; and ``gradmap``
from the ``dice`` run's checkpoint.  So one ``diff -r`` also shows that
``gradaudit.json`` and the printed audit line kept their bytes for every
audit the benchmark runs.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

ACDC_48 = {"kind": "acdc_like", "image_size": [48, 48], "train": 12, "val": 3, "test": 4, "noise_sigma": 0.03, "seed": None}
PROMISE = {"kind": "promise_like", "image_size": [40, 32], "train": 12, "val": 3, "test": 4, "noise_sigma": 0.03, "seed": 7}

CONFIGS = {
    **{
        loss: {"dataset": ACDC_48, "loss": {"kind": loss}, "optimizer": {"kind": "adam"}, "epochs": 2, "batch_size": 1, "seed": 11}
        for loss in ("dice", "ce", "mime", "nm")
    },
    "promise_sgd": {
        "dataset": PROMISE,
        "loss": {"kind": "combined", "terms": [["ce", 1.0], ["dice", 1.0]]},
        "optimizer": {"kind": "sgd"},
        "epochs": 2,
        "batch_size": 4,
        "augment": True,
        "seed": 12,
    },
    "plateau": {
        "dataset": PROMISE | {"image_size": [32, 32], "train": 2, "val": 1, "test": 1},
        "optimizer": {"kind": "adam", "eta": 1e-6},
        "epochs": 24,
        "batch_size": 1,
        "seed": 3,
    },
    "zero_epoch": {"dataset": ACDC_48 | {"test": 20}, "loss": {"kind": "mime", "a": 1.5, "b": 0.2}, "epochs": 0, "seed": 13},
    "compare_a": {"dataset": ACDC_48 | {"train": 6}, "loss": "ce", "epochs": 1, "seed": 14},
    "compare_b": {"dataset": ACDC_48 | {"train": 6}, "loss": "dice", "optimizer": "sgd", "epochs": 1, "seed": 14},
    "compare_mime_a": {"dataset": ACDC_48 | {"train": 6}, "loss": {"kind": "mime", "a": 2.5, "b": 0.3}, "epochs": 1, "seed": 15},
    "compare_mime_b": {"dataset": ACDC_48 | {"train": 6}, "loss": {"kind": "mime", "a": 1.5, "b": 0.05}, "epochs": 1, "seed": 15},
}

# Default-config audit seeds: three spread out, then the benchmark's audit pool.
AUDIT_SEEDS = (3, 17, 123456, *range(40_000, 40_032))

COMMANDS = [
    *((f"train_{name}", ["train", "--config", f"configs/{name}.json", "--out", f"train_{name}"])
      for name in ("dice", "ce", "mime", "nm", "promise_sgd", "plateau", "zero_epoch")),
    ("compare", ["compare", "--configs", "configs/compare_a.json", "configs/compare_b.json", "--out", "compare"]),
    ("compare_mime", ["compare", "--configs", "configs/compare_mime_a.json", "configs/compare_mime_b.json", "--out", "compare_mime"]),
    ("generate", ["generate", "--config", "configs/dice.json", "--out", "generate"]),
    *((f"audit_s{seed}", ["audit", "--seed", str(seed), "--out", f"audit_s{seed}"]) for seed in AUDIT_SEEDS),
    ("audit_s4", ["audit", "--config", "configs/promise_sgd.json", "--seed", "4", "--out", "audit_s4"]),
    ("gradmap", ["gradmap", "--checkpoint", "train_dice/best.ckpt", "--sample", "acdc_like-val-0001", "--out", "gradmap"]),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path, help="tree whose src/seglab is run")
    parser.add_argument("out", type=Path, help="new directory for the artifacts")
    args = parser.parse_args()
    package = (args.root / "src" / "seglab").resolve()
    sys.path.insert(0, str(package.parent))
    import seglab.cli

    if Path(seglab.cli.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported seglab from {seglab.cli.__file__}, not {package}")
    args.out.mkdir(parents=True)
    os.chdir(args.out)
    Path("configs").mkdir()
    for name, data in CONFIGS.items():
        Path(f"configs/{name}.json").write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    codes = []
    for name, argv in COMMANDS:
        with open(f"{name}.stdout", "w", encoding="utf-8") as stdout, contextlib.redirect_stdout(stdout):
            codes.append(f"{name} {seglab.cli.main(argv)}\n")
    Path("exit_codes.txt").write_text("".join(codes), encoding="utf-8")
    print(f"wrote {len(COMMANDS)} command outputs to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Whole training runs against ``tests.oracles.train_via_maps``, bit for bit.

The oracle restates the run over typed maps and public functions only, so the
engine's shuffle and augment draws, batch means, optimizer steps, best
tracking, scheduler and test scoring are each checked against a second
implementation, not only against the bytes an earlier version wrote.
"""
import json

import numpy as np
import pytest

from seglab.config import config_from_dict
from seglab.net import load_checkpoint
from seglab.train import run_experiment

from .oracles import train_via_maps

ACDC_48 = {"kind": "acdc_like", "image_size": [48, 48], "train": 6, "val": 2, "test": 3, "noise_sigma": 0.03, "seed": None}
PROMISE = {"kind": "promise_like", "image_size": [32, 32], "train": 6, "val": 2, "test": 3, "noise_sigma": 0.03, "seed": None}

CONFIGS = {
    "dice_adam": {"dataset": ACDC_48, "loss": "dice", "epochs": 2, "seed": 1},
    "ce_sgd_batch3_augment": {
        "dataset": ACDC_48,
        "loss": "ce",
        "optimizer": "sgd",
        "batch_size": 3,
        "augment": True,
        "epochs": 2,
        "seed": 2,
    },
    "ce_plus_half_dice": {"dataset": ACDC_48, "loss": {"kind": "combined", "terms": [["ce", 1.0], ["dice", 0.5]]}, "epochs": 2, "seed": 3},
    "nm": {"dataset": ACDC_48, "loss": "nm", "epochs": 2, "seed": 4},
    "mime_promise": {"dataset": PROMISE, "loss": {"kind": "mime", "a": 2.5, "b": 0.3}, "epochs": 2, "seed": 5},
    # At eta 1e-9 the validation DSC never beats epoch 0's, so the scheduler
    # halves the rate after epoch 20 and best tracking keeps epoch 0.
    "promise_sgd_plateau": {
        "dataset": PROMISE | {"train": 2, "val": 1, "test": 1},
        "optimizer": {"kind": "sgd", "eta": 1e-9},
        "epochs": 24,
        "seed": 6,
    },
}


def read_val_rows(path):
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        epoch, *dsc, mean, lr = line.split(",")
        rows.append((int(epoch), tuple(map(float, dsc)), float(mean), float(lr)))
    return rows


@pytest.mark.parametrize("name", CONFIGS)
def test_run_equals_the_map_oracle(tmp_path, name):
    cfg = config_from_dict(CONFIGS[name] | {"output_dir": str(tmp_path)})
    run_experiment(cfg)
    want = train_via_maps(cfg)

    net, header = load_checkpoint(tmp_path / "best.ckpt")
    assert net.get_params().tobytes() == np.asarray(want.best_params, dtype="<f8").tobytes()
    assert header["epoch"] == want.best_epoch
    assert header["best_val_dsc"] == want.val_rows[want.best_epoch][2]
    assert read_val_rows(tmp_path / "val_dsc.csv") == want.val_rows
    assert json.loads((tmp_path / "test_metrics.json").read_text(encoding="utf-8")) == want.test_metrics


def test_plateau_run_halves_the_rate_and_keeps_epoch_0():
    cfg = config_from_dict(CONFIGS["promise_sgd_plateau"])
    want = train_via_maps(cfg)
    assert [row[3] for row in want.val_rows] == [1e-9] * 21 + [5e-10] * 3
    assert want.best_epoch == 0

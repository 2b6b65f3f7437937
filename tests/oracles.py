"""Brute-force oracles and instance builders shared by the test modules.

Everything here recomputes quantities with plain per-pixel loops, with the
per-bin ClECE loop, for the net with the textbook im2col/col2im convolution,
for the synthetic data with full np.mgrid index arrays and one masked
assignment per class, or for the gradient audit with typed maps and the public
functions, so the package's vectorized implementations are checked against an
independent path.  A whole training run is restated the same way, over typed
maps and public names only.
"""
from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from seglab.cli import AUDIT_TERM_SETS, AUDIT_TRIALS
from seglab.config import ExperimentConfig
from seglab.gradcheck import audit_bound, finite_diff_grad, max_relative_error
from seglab.grid import ClassSet, GradientMap, GridShape, LabelMap, ProbabilityMap
from seglab.losses import combined_loss, combined_value
from seglab.metrics import BinStat, argmax_dsc, clece
from seglab.net import INPUT_CENTER, SegNet, backward, forward, softmax, softmax_backward
from seglab.optim import AdamState, MomentumState, SchedulerState, adam_step, scheduler_step, sgd_step
from seglab.synthdata import (
    ACDC_INTENSITIES,
    MAX_GEOMETRY_RETRIES,
    PROMISE_INTENSITIES,
    DatasetSpec,
    augment,
    generate_split,
)


def random_instance(
    rng: np.random.Generator,
    max_pixels: int = 64,
    s_low: float = 0.05,
    s_high: float = 0.95,
) -> tuple[LabelMap, ProbabilityMap]:
    """Random one-hot labels and unconstrained probabilities, |K| in {2,3,4}."""
    count_objects = int(rng.integers(1, 4))
    pixels = int(rng.integers(4, max_pixels + 1))
    classes = ClassSet(count_objects)
    idx = rng.integers(0, classes.total, size=pixels)
    labels = LabelMap(idx, classes)
    probs = ProbabilityMap(
        GridShape((pixels,)),
        classes,
        rng.uniform(s_low, s_high, size=(classes.total, pixels)),
    )
    return labels, probs


def audit_via_maps(cfg: ExperimentConfig) -> tuple[float, int]:
    """The random-instance part of run_audit, over maps and public functions.

    Draws the same AUDIT_TERM_SETS x AUDIT_TRIALS instances from the run seed
    as LabelMap/ProbabilityMap pairs, and returns the max relative error of
    combined_loss against finite_diff_grad of combined_value, and the dice set's
    audit_bound violations.
    """
    rng = np.random.default_rng(cfg.seed)
    lcfg = cfg.loss
    max_err, violations = 0.0, 0
    for terms in AUDIT_TERM_SETS:
        for _ in range(AUDIT_TRIALS):
            labels, probs = random_instance(rng)
            _, analytic = combined_loss(terms, labels, probs, lcfg)
            numeric = finite_diff_grad(lambda p: combined_value(terms, labels, p, lcfg), probs)
            max_err = max(max_err, max_relative_error(analytic, numeric))
            if terms == (("dice", 1.0),):
                violations += audit_bound(analytic, labels, probs, epsilon=lcfg.epsilon)
    return max_err, violations


class RunViaMaps(NamedTuple):
    """What a training run writes: the best.ckpt parameters and epoch, the
    val_dsc.csv rows as (epoch, per-class DSC, mean DSC, lr) and the
    test_metrics.json object."""

    best_params: np.ndarray
    best_epoch: int | None
    val_rows: list[tuple[int, tuple[float, ...], float, float]]
    test_metrics: dict


def train_via_maps(cfg: ExperimentConfig) -> RunViaMaps:
    """One run_experiment run restated over maps and public functions.

    The run seed spawns four SeedSequence children: the dataset seed (when
    the config's is null), the init seed, and the shuffle and augment
    generators.  Each epoch steps the optimizer at the scheduler's rate on the
    mean parameter gradient of each batch of a fresh permutation, each sample
    augmented first when configured; then it scores validation, keeps the
    parameters of a strictly better mean DSC and advances the scheduler.  The
    best parameters are scored on the test split.
    """
    children = np.random.SeedSequence(cfg.seed).spawn(4)
    spec = cfg.dataset
    if spec.seed is None:
        spec = replace(spec, seed=int(children[0].generate_state(1)[0]))
    net = SegNet(spec.classes, seed=int(children[1].generate_state(1)[0]))
    shuffle_rng, augment_rng = np.random.default_rng(children[2]), np.random.default_rng(children[3])
    train_set, val_set = list(generate_split(spec, "train")), list(generate_split(spec, "val"))
    sgd = cfg.optimizer.kind == "sgd"
    opt_state = MomentumState.fresh(net.param_count) if sgd else AdamState.fresh(net.param_count)
    scheduler = SchedulerState(current_eta=cfg.optimizer.eta)
    best_params, best_epoch, val_rows = net.get_params(), None, []

    def probabilities(sample):
        logits, cache = forward(net, sample.image)
        return softmax(logits), cache

    for epoch in range(cfg.epochs):
        step_cfg = replace(cfg.optimizer, eta=scheduler.current_eta)
        order = shuffle_rng.permutation(len(train_set))
        for start in range(0, len(order), cfg.batch_size):
            grads = []
            for i in order[start : start + cfg.batch_size]:
                sample = train_set[i]
                if cfg.augment:
                    sample = augment(sample, int(augment_rng.integers(0, 2**63)))
                s, cache = probabilities(sample)
                _, dL_ds = combined_loss(cfg.loss.loss_terms, sample.label, s, cfg.loss)
                grads.append(backward(net, cache, softmax_backward(s, dL_ds)))
            step = sgd_step if sgd else adam_step
            net.set_params(step(net.get_params(), np.mean(grads, axis=0), step_cfg, opt_state))
        per_class = np.array([argmax_dsc(v.label, probabilities(v)[0])[1:] for v in val_set]).mean(axis=0)
        mean_dsc = float(per_class.mean())
        val_rows.append((epoch, tuple(per_class.tolist()), mean_dsc, step_cfg.eta))
        if mean_dsc > scheduler.best_metric:
            best_params, best_epoch = net.get_params(), epoch
        scheduler = scheduler_step(scheduler, mean_dsc)

    net.set_params(best_params)
    dice_rows, clece_rows = [], []
    for sample in generate_split(spec, "test"):
        s = probabilities(sample)[0]
        dice_rows.append(argmax_dsc(sample.label, s)[1:])
        clece_rows.append(clece(sample.label, s)[1:])
    dice, calibration = np.array(dice_rows), np.array(clece_rows)
    test_metrics = {
        "loss": cfg.loss.kind,
        "optimizer": cfg.optimizer.kind,
        "n_test": len(dice),
        "per_class_dsc_mean": dice.mean(axis=0).tolist(),
        "per_class_dsc_std": dice.std(axis=0).tolist(),
        "per_class_clece_mean": calibration.mean(axis=0).tolist(),
        "mean_dsc": float(dice.mean()),
        "mean_dsc_std": float(dice.mean(axis=1).std()),
        "mean_clece": float(calibration.mean()),
    }
    return RunViaMaps(best_params, best_epoch, val_rows, test_metrics)


def one_hot(idx: np.ndarray, classes: ClassSet) -> np.ndarray:
    """Loop-built one-hot planes of an index map, shaped (classes.total, idx.size)."""
    flat = np.asarray(idx).reshape(-1)
    planes = np.zeros((classes.total, flat.size))
    for i, k in enumerate(flat):
        planes[int(k), i] = 1.0
    return planes


def binary_pair(
    y_fore: list[float], s_fore: list[float]
) -> tuple[LabelMap, ProbabilityMap]:
    """Binary task from a 0/1 label vector and foreground probabilities; the
    background probability is the complement."""
    sf = np.array(s_fore, dtype=float)
    classes = ClassSet(1)
    labels = LabelMap(np.array(y_fore, dtype=np.intp), classes)
    probs = ProbabilityMap(labels.shape, classes, np.stack([1.0 - sf, sf]))
    return labels, probs


def noisy_prediction_instance(
    rng: np.random.Generator, side: int = 12
) -> tuple[LabelMap, ProbabilityMap]:
    """Correct predictions perturbed per pixel, as in the dynamic-range study.

    Labels come from a nearest-anchor partition resampled until every class
    holds at least 15 % of the pixels.  Each pixel keeps most of its mass on
    the true class (90 % of pixels draw it from U(0.7, 0.99)); the rest are
    'hard' pixels with true-class mass in U(0.05, 0.3).  Leftover mass is
    split evenly over the other classes, so s stays on the simplex.
    """
    count_objects = int(rng.integers(1, 4))
    total = count_objects + 1
    n = side * side
    classes = ClassSet(count_objects)
    yy, xx = np.mgrid[0:side, 0:side]
    while True:
        anchors = rng.uniform(0, side, size=(total, 2))
        dist = (yy[None] - anchors[:, 0, None, None]) ** 2 + (
            xx[None] - anchors[:, 1, None, None]
        ) ** 2
        idx = dist.argmin(axis=0)
        if np.bincount(idx.ravel(), minlength=total).min() >= 0.15 * n:
            break
    labels = LabelMap(idx, classes)
    hard = rng.random(n) < 0.1
    true_mass = np.where(
        hard, rng.uniform(0.05, 0.3, size=n), rng.uniform(0.7, 0.99, size=n)
    )
    true_class = idx.reshape(-1)
    values = np.empty((total, n))
    for k in range(total):
        values[k] = np.where(true_class == k, true_mass, (1.0 - true_mass) / (total - 1))
    probs = ProbabilityMap(GridShape((side, side)), classes, values)
    return labels, probs


def dsc_oracle(y: LabelMap, pred: LabelMap, eps: float = 1e-8) -> np.ndarray:
    """Per-class hard Dice by explicit pixel counting."""
    total = y.classes.total
    out = np.zeros(total)
    y_idx = y.values.argmax(axis=0)
    p_idx = pred.values.argmax(axis=0)
    for k in range(total):
        a = {i for i in range(y.shape.pixel_count) if y_idx[i] == k}
        b = {i for i in range(pred.shape.pixel_count) if p_idx[i] == k}
        if not a and not b:
            out[k] = 1.0
        else:
            out[k] = 2.0 * len(a & b) / (len(a) + len(b) + eps)
    return out


def clece_oracle(y: LabelMap, s: ProbabilityMap, bins: int = 10) -> np.ndarray:
    """Per-class calibration error by explicit per-pixel binning."""
    n = y.shape.pixel_count
    out = np.zeros(y.classes.total)
    for k in range(y.classes.total):
        groups: dict[int, list[int]] = {}
        for i in range(n):
            b = min(int(math.floor(s.values[k, i] * bins)), bins - 1)
            groups.setdefault(b, []).append(i)
        total = 0.0
        for members in groups.values():
            conf = sum(s.values[k, i] for i in members) / len(members)
            acc = sum(y.values[k, i] for i in members) / len(members)
            total += len(members) / n * abs(acc - conf)
        out[k] = total
    return out


def clece_report_loop(
    y: LabelMap, s: ProbabilityMap, bins: int = 10
) -> tuple[np.ndarray, list[list[BinStat]]]:
    """ClECE values and bin diagnostics by one boolean mask per class and bin.

    Bin means are numpy means over the masked pixels, so the package's
    one-pass binning must match these values bit for bit.
    """
    n = y.shape.pixel_count
    values = np.zeros(y.classes.total)
    diagnostics: list[list[BinStat]] = []
    for k in range(y.classes.total):
        conf = s.values[k]
        acc = y.values[k]
        bin_idx = np.clip(np.floor(conf * bins).astype(np.int64), 0, bins - 1)
        stats = []
        total = 0.0
        for b in range(bins):
            members = bin_idx == b
            count = int(members.sum())
            if count == 0:
                stats.append(BinStat(count=0, confidence=0.0, accuracy=0.0))
                continue
            mean_conf = float(conf[members].mean())
            mean_acc = float(acc[members].mean())
            stats.append(BinStat(count=count, confidence=mean_conf, accuracy=mean_acc))
            total += count / n * abs(mean_acc - mean_conf)
        values[k] = total
        diagnostics.append(stats)
    return values, diagnostics


def finite_diff_loop(
    loss_fn: Callable[[ProbabilityMap], float], s: ProbabilityMap, h: float
) -> GradientMap:
    """Central differences one coordinate at a time, each probe built as a map."""
    base = np.array(s.values)
    grad = np.empty_like(base)
    for idx in np.ndindex(base.shape):
        orig = base[idx]
        base[idx] = orig + h
        hi = loss_fn(ProbabilityMap(s.shape, s.classes, base))
        base[idx] = orig - h
        lo = loss_fn(ProbabilityMap(s.shape, s.classes, base))
        base[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * h)
    return GradientMap(s.shape, s.classes, grad)


def im2col_forward(net: SegNet, image: np.ndarray) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The net's forward pass through explicit im2col matrices.

    Returns the logits and, per layer, its (in_ch*kh*kw, H*W) column matrix
    with rows in (channel, u, v) order and its pre-activation.
    """
    x = np.asarray(image, dtype=np.float64)[None] - INPUT_CENTER
    caches = []
    for li, layer in enumerate(net.layers):
        out_ch, in_ch, kh, kw = layer.kernels.shape
        _, height, width = x.shape
        pad = kh // 2
        xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
        windows = sliding_window_view(xp, (kh, kw), axis=(1, 2))  # (C, H, W, kh, kw)
        cols = windows.transpose(0, 3, 4, 1, 2).reshape(in_ch * kh * kw, height * width)
        pre = (layer.kernels.reshape(out_ch, -1) @ cols + layer.biases[:, None]).reshape(out_ch, height, width)
        caches.append((cols, pre))
        x = np.maximum(pre, 0.0) if li + 1 < len(net.layers) else pre  # a ReLU after all but the head
    return x, caches


def im2col_backward(net: SegNet, caches: list[tuple[np.ndarray, np.ndarray]], dL_dz: np.ndarray) -> np.ndarray:
    """Flat parameter gradient from im2col_forward's caches; col2im by strided window adds."""
    upstream = np.asarray(dL_dz, dtype=np.float64)
    grads = []
    for li in reversed(range(len(net.layers))):
        layer = net.layers[li]
        cols, pre = caches[li]
        if li + 1 < len(net.layers):
            upstream = upstream * (pre > 0.0)
        out_ch, in_ch, kh, kw = layer.kernels.shape
        _, height, width = pre.shape
        dflat = upstream.reshape(out_ch, -1)
        grads.append(((dflat @ cols.T).ravel(), dflat.sum(axis=1)))
        pad = kh // 2
        d = (layer.kernels.reshape(out_ch, -1).T @ dflat).reshape(in_ch, kh, kw, height, width)
        dxp = np.zeros((in_ch, height + 2 * pad, width + 2 * pad))
        for u in range(kh):
            for v in range(kw):
                dxp[:, u : u + height, v : v + width] += d[:, u, v]
        upstream = dxp[:, pad : pad + height, pad : pad + width]
    return np.concatenate([np.concatenate(pair) for pair in reversed(grads)])


def _disk_mgrid(yy: np.ndarray, xx: np.ndarray, cy: float, cx: float, r: float) -> np.ndarray:
    return (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r


def _acdc_masks_mgrid(rng: np.random.Generator, height: int, width: int) -> list[np.ndarray]:
    m = min(height, width)
    r_in = m * rng.uniform(0.075, 0.12)
    r_out = r_in + m * rng.uniform(0.04, 0.075)
    r_cres = m * rng.uniform(0.10, 0.16)
    gap = m * rng.uniform(0.016, 0.047)
    cx_low = 1.0 + r_out + gap + 2.0 * r_cres
    cx = rng.uniform(cx_low, width - 2.0 - r_out)
    cy = rng.uniform(r_out + 2.0, height - r_out - 2.0)
    cy_cres = float(np.clip(cy + m * rng.uniform(-0.047, 0.047), r_cres + 1.0, height - r_cres - 1.0))
    cx_cres = cx - (r_out + gap + r_cres)
    carve_r = r_cres * rng.uniform(0.65, 0.85)
    carve_cx = cx_cres + r_cres * rng.uniform(0.5, 0.75)
    yy, xx = np.mgrid[0:height, 0:width]
    disk = _disk_mgrid(yy, xx, cy, cx, r_in)
    annulus = _disk_mgrid(yy, xx, cy, cx, r_out) & ~disk
    crescent = _disk_mgrid(yy, xx, cy_cres, cx_cres, r_cres) & ~_disk_mgrid(yy, xx, cy_cres, carve_cx, carve_r)
    return [crescent, annulus, disk]


def _promise_masks_mgrid(rng: np.random.Generator, height: int, width: int) -> list[np.ndarray]:
    m = min(height, width)
    ay = m * rng.uniform(0.094, 0.219)
    ax = m * rng.uniform(0.094, 0.219)
    cy = rng.uniform(ay + 2.0, height - ay - 2.0)
    cx = rng.uniform(ax + 2.0, width - ax - 2.0)
    yy, xx = np.mgrid[0:height, 0:width]
    return [((yy - cy) / ay) ** 2 + ((xx - cx) / ax) ** 2 <= 1.0]


def synthetic_sample_mgrid(spec: DatasetSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(image, class index map) of one synthetic sample drawn from rng, built
    from full np.mgrid index arrays with one masked assignment per class."""
    height, width = spec.image_size
    acdc = spec.kind == "acdc_like"
    intensities = ACDC_INTENSITIES if acdc else PROMISE_INTENSITIES
    for _ in range(MAX_GEOMETRY_RETRIES):
        masks = (_acdc_masks_mgrid if acdc else _promise_masks_mgrid)(rng, height, width)
        if all(mask.any() for mask in masks):
            break
    idx = np.zeros((height, width), dtype=np.int64)
    image = np.full((height, width), intensities[0])
    for k, mask in enumerate(masks, start=1):
        idx[mask] = k
        image[mask] = intensities[k]
    if spec.noise_sigma > 0:
        image = np.clip(image + rng.normal(0.0, spec.noise_sigma, size=image.shape), 0.0, 1.0)
    return image, idx

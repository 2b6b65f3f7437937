"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The training benchmark (criterion 6) runs the full 500/50/100, 60-epoch
configuration for every loss and therefore dominates the suite's runtime;
run `pytest -s tests/test_acceptance.py` to watch the per-criterion lines.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest

from seglab.cli import config_from_dict, main, run_experiment
from seglab.errors import ConfigError
from seglab.gradcheck import (
    audit_bound,
    audit_two_valued,
    dynamic_range_db,
    finite_diff_grad,
    max_relative_error,
)
from seglab.grid import ClassSet, GradientMap, GridShape, LabelMap, ProbabilityMap, overlap_stats
from seglab.losses import (
    LossConfig,
    ce_grad,
    combined_loss,
    combined_value,
    dice_grad,
    dice_loss,
)
from seglab.metrics import clece, dsc
from seglab.net import SegNet, backward, forward, softmax, softmax_backward
from seglab.optim import (
    MomentumState,
    OptimizerConfig,
    SchedulerState,
    scheduler_step,
    sgd_step,
)

from .oracles import (
    binary_pair,
    clece_oracle,
    dsc_oracle,
    noisy_prediction_instance,
    random_instance,
)

LOSS_TERM_SETS = {
    "dice": (("dice", 1.0),),
    "ce": (("ce", 1.0),),
    "mime": (("mime", 1.0),),
    "nm": (("nm", 1.0),),
    "ce+dice": (("ce", 1.0), ("dice", 1.0)),
}


def _report(number: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_gradient_oracle_suite():
    start = time.perf_counter()
    cfg = LossConfig()
    rng = np.random.default_rng(101)

    worst_loss_level = 0.0
    for terms in LOSS_TERM_SETS.values():
        for _ in range(100):
            y, s = random_instance(rng, max_pixels=64)
            _, analytic = combined_loss(terms, y, s, cfg)
            numeric = finite_diff_grad(lambda p: combined_value(terms, y, p, cfg), s, h=1e-5)
            worst_loss_level = max(worst_loss_level, max_relative_error(analytic, numeric))

    # end-to-end: central differences are only valid where no ReLU flips
    # inside the probe interval, so coordinates whose +/-h perturbation
    # changes an activation sign are resampled (the composite is not
    # differentiable there and no gradient could match).
    worst_end_to_end = 0.0
    net = SegNet(ClassSet(2), seed=202)
    image = rng.uniform(0, 1, (16, 16))
    labels = LabelMap(rng.integers(0, 3, (16, 16)), ClassSet(2))
    h = 1e-4

    def probe(terms, theta):
        net.set_params(theta)
        logits, cache = forward(net, image)
        value = combined_loss(terms, labels, softmax(logits), cfg)[0]
        masks = [grid > 0.0 for grid in cache.inputs[1:]]  # each hidden layer's ReLU output grid
        return value, masks

    for terms in LOSS_TERM_SETS.values():
        logits, cache = forward(net, image)
        probs = softmax(logits)
        _, grad_s = combined_loss(terms, labels, probs, cfg)
        grad_theta = backward(net, cache, softmax_backward(probs, grad_s))
        theta0 = net.get_params()
        accepted = 0
        for j in rng.permutation(net.param_count):
            theta = theta0.copy()
            theta[j] += h
            hi, masks_hi = probe(terms, theta)
            theta[j] -= 2 * h
            lo, masks_lo = probe(terms, theta)
            if any(not np.array_equal(a, b) for a, b in zip(masks_hi, masks_lo)):
                continue  # kink inside the interval; invalid probe point
            numeric_j = (hi - lo) / (2 * h)
            err = abs(grad_theta[j] - numeric_j) / max(1.0, abs(grad_theta[j]), abs(numeric_j))
            worst_end_to_end = max(worst_end_to_end, err)
            accepted += 1
            if accepted == 50:
                break
        assert accepted == 50, "could not find 50 kink-free parameters"
        net.set_params(theta0)

    elapsed = time.perf_counter() - start
    ok = worst_loss_level < 1e-5 and worst_end_to_end < 1e-4 and elapsed < 30.0
    _report(
        1,
        ok,
        f"loss-level max rel err {worst_loss_level:.2e} (<1e-5), "
        f"end-to-end {worst_end_to_end:.2e} (<1e-4), runtime {elapsed:.1f}s (<30s)",
    )


def test_criterion_2_two_valued_gradient():
    rng = np.random.default_rng(102)
    passed = 0
    for _ in range(100):
        y, s = random_instance(rng)
        counts = audit_two_valued(dice_grad(y, s), tol=1e-12)
        sizes = y.foreground_sizes()
        mixed = [
            k
            for k in range(y.classes.total)
            if 0 < sizes[k] < y.shape.pixel_count
        ]
        if all(counts[k] == 2 for k in mixed):
            passed += 1
    _report(2, passed == 100, f"{passed}/100 instances had exactly 2 values per mixed class plane")


def test_criterion_3_gradient_bound():
    rng = np.random.default_rng(103)
    cfg = LossConfig()
    violations = 0
    control_caught = True
    for i in range(1000):
        y, s = random_instance(rng, max_pixels=32)
        g = dice_grad(y, s, cfg)
        stats = overlap_stats(y, s)
        violations += audit_bound(g, stats, epsilon=cfg.epsilon)
        if i < 10:
            scaled = GradientMap(g.shape, g.classes, 10.0 * g.values)
            if audit_bound(scaled, stats, epsilon=cfg.epsilon) == 0:
                control_caught = False
    ok = violations == 0 and control_caught
    _report(
        3,
        ok,
        f"{violations} violations over 1000 instances; x10 negative control "
        f"{'caught' if control_caught else 'missed'}",
    )


def test_criterion_4_counterintuitive_cases():
    # (a) disjoint supports: background gradient exactly zero
    y, s = binary_pair([1, 1, 0, 0], [0, 0, 1, 1])
    g = dice_grad(y, s)
    zero_bg = (
        g.values[1, 2] == 0.0
        and g.values[1, 3] == 0.0
        and g.values[0, 0] == 0.0
        and g.values[0, 1] == 0.0
    )
    # (b) perfect binary segmentation keeps nonzero +/- 1/(2n) gradients
    exact = True
    cfg = LossConfig(epsilon=1e-12)
    for n in (1, 2, 3, 7, 16):
        fore = [1] * n + [0] * (3 * n)
        y, s = binary_pair(fore, fore)
        g = dice_grad(y, s, cfg)
        class_avg = 1.0 / 2.0
        # foreground plane: |fg| = n, so -1/(2n) on its pixels, +1/(2n) off them;
        # background plane has |fg| = 3n and mirrors with -1/(6n)
        if not np.isclose(g.values[1, 0], -1.0 / (2.0 * n) * class_avg, rtol=5e-12, atol=0):
            exact = False
        if not np.isclose(g.values[1, -1], 1.0 / (2.0 * n) * class_avg, rtol=5e-12, atol=0):
            exact = False
        if not np.isclose(g.values[0, -1], -1.0 / (6.0 * n) * class_avg, rtol=5e-12, atol=0):
            exact = False
        if (g.values == 0.0).any():
            exact = False
    _report(4, zero_bg and exact, "I=0 gives zero background gradient; s=y gives +/-1/(2n)/|K|, nonzero")


def test_criterion_5_dynamic_range_property():
    rng = np.random.default_rng(105)
    wins = 0
    for _ in range(100):
        y, s = noisy_prediction_instance(rng)
        dice_range = dynamic_range_db(dice_grad(y, s))
        ce_range = dynamic_range_db(ce_grad(y, s))
        if dice_range < ce_range:
            wins += 1
    _report(5, wins >= 95, f"dice range narrower than cross-entropy in {wins}/100 trials (need >=95)")


# ---------------------------------------------------------------------------
# criterion 6: the mimicking benchmark (full training runs)
# ---------------------------------------------------------------------------

BENCH_LOSSES_ACDC = ("ce", "dice", "mime", "nm")
BENCH_LOSSES_PROMISE = ("ce", "dice", "mime")
PER_LOSS_TIME_LIMIT_S = 900.0


def _bench_config(kind: str, loss: str, out_dir: Path) -> dict:
    loss_spec = {"kind": loss}
    if loss == "mime":
        loss_spec = {"kind": "mime", "a": 1.9, "b": 0.1}
    return {
        "dataset": {"kind": kind, "train": 500, "val": 50, "test": 100, "seed": None},
        "loss": loss_spec,
        "optimizer": {"kind": "adam", "eta": 5e-4},
        "epochs": 60,
        "seed": 0,
        "output_dir": str(out_dir),
    }


@pytest.fixture(scope="session")
def benchmark_results(tmp_path_factory):
    root = tmp_path_factory.mktemp("benchmark")
    results: dict[tuple[str, str], dict] = {}
    for kind, losses in (
        ("acdc_like", BENCH_LOSSES_ACDC),
        ("promise_like", BENCH_LOSSES_PROMISE),
    ):
        for loss in losses:
            cfg = config_from_dict(_bench_config(kind, loss, root / f"{kind}_{loss}"))
            start = time.perf_counter()
            run = run_experiment(cfg)
            results[(kind, loss)] = {
                "mean_dsc": run.test_metrics["mean_dsc"],
                "seconds": time.perf_counter() - start,
            }
    return results


@pytest.mark.slow
def test_criterion_6_mimicking_benchmark(benchmark_results):
    details = []
    ok = True
    for (kind, loss), res in benchmark_results.items():
        details.append(f"{kind}/{loss}: DSC {res['mean_dsc']:.4f} in {res['seconds']:.0f}s")
        if res["mean_dsc"] < 0.85 or res["seconds"] > PER_LOSS_TIME_LIMIT_S:
            ok = False
    acdc = {loss: benchmark_results[("acdc_like", loss)]["mean_dsc"] for loss in BENCH_LOSSES_ACDC}
    if abs(acdc["dice"] - acdc["mime"]) > 0.05 or abs(acdc["dice"] - acdc["nm"]) > 0.05:
        ok = False
    details.append(
        f"|DSC(dice)-DSC(mime)|={abs(acdc['dice'] - acdc['mime']):.4f}, "
        f"|DSC(dice)-DSC(nm)|={abs(acdc['dice'] - acdc['nm']):.4f} (both <=0.05)"
    )
    # nm on the binary task is rejected at configuration time
    with pytest.raises(ConfigError):
        config_from_dict(_bench_config("promise_like", "nm", Path("unused")))
    details.append("nm rejected on promise_like at config time")
    _report(6, ok, "; ".join(details))


def test_criterion_7_optimizer_and_scheduler():
    rng = np.random.default_rng(107)
    theta = rng.normal(0, 1, 40)
    grad = rng.normal(0, 1, 40)
    plain = OptimizerConfig(kind="sgd", eta=0.01, lam=1.0, momentum=0.0, weight_decay=0.0)
    formula_exact = np.array_equal(
        sgd_step(theta, grad, plain, MomentumState.fresh(40)), theta - 0.01 * grad
    )
    counterbalanced = True
    reference = sgd_step(theta, grad, plain, MomentumState.fresh(40))
    for c in (2.0, 4.0, 0.5):
        cfg = OptimizerConfig(kind="sgd", eta=0.01 * c, lam=1.0 / c, momentum=0.0, weight_decay=0.0)
        if not np.array_equal(sgd_step(theta, grad, cfg, MomentumState.fresh(40)), reference):
            counterbalanced = False

    state = SchedulerState(patience=20, current_eta=1e-2)
    state = scheduler_step(state, 0.5)
    halved_early = False
    for _ in range(19):
        state = scheduler_step(state, 0.5)
        if state.current_eta != 1e-2:
            halved_early = True
    state = scheduler_step(state, 0.5)  # 20th non-improving epoch
    halved_on_time = state.current_eta == 5e-3 and state.epochs_since_improvement == 0
    ok = formula_exact and counterbalanced and not halved_early and halved_on_time
    _report(
        7,
        ok,
        "SGD momentum-free update bitwise-equal to theta - eta*grad; eta/lambda "
        "counterbalance exact; scheduler halves at exactly 20 non-improving epochs",
    )


def test_criterion_8_metric_suite():
    rng = np.random.default_rng(108)
    worst_dsc = 0.0
    worst_clece = 0.0
    for _ in range(20):
        count_objects = int(rng.integers(1, 4))
        classes = ClassSet(count_objects)
        pixels = int(rng.integers(classes.total, 24))
        y = LabelMap(rng.integers(0, classes.total, pixels), classes)
        pred = LabelMap(rng.integers(0, classes.total, pixels), classes)
        worst_dsc = max(worst_dsc, float(np.abs(dsc(y, pred) - dsc_oracle(y, pred)).max()))
        _, s = random_instance(rng, max_pixels=24, s_low=0.0, s_high=1.0)
        y2, s2 = random_instance(rng, max_pixels=24, s_low=0.0, s_high=1.0)
        worst_clece = max(worst_clece, float(np.abs(clece(y2, s2) - clece_oracle(y2, s2)).max()))

    worst_consistency = 0.0
    cfg = LossConfig(epsilon=1e-12)
    for _ in range(20):
        count_objects = int(rng.integers(1, 4))
        classes = ClassSet(count_objects)
        pixels = int(rng.integers(classes.total, 24))
        idx = np.concatenate(
            [np.arange(classes.total), rng.integers(0, classes.total, pixels - classes.total)]
        )
        y = LabelMap(rng.permutation(idx), classes)
        pred = LabelMap(rng.integers(0, classes.total, pixels), classes)
        s = ProbabilityMap(pred.shape, pred.classes, pred.values)
        gap = abs((1.0 - dice_loss(y, s, cfg)) - dsc(y, pred, eps=1e-12).mean())
        worst_consistency = max(worst_consistency, gap)

    ok = worst_dsc < 1e-12 and worst_clece < 1e-12 and worst_consistency < 1e-9
    _report(
        8,
        ok,
        f"dsc oracle gap {worst_dsc:.2e}, clece oracle gap {worst_clece:.2e} (<1e-12); "
        f"1-dice_loss vs mean dsc gap {worst_consistency:.2e} (<1e-9)",
    )


def test_criterion_9_determinism(tmp_path):
    dataset = {
        "kind": "acdc_like",
        "image_size": [48, 48],
        "train": 6,
        "val": 2,
        "test": 2,
        "seed": None,
    }
    base = {"dataset": dataset, "loss": {"kind": "dice"}, "epochs": 2, "batch_size": 2, "seed": 0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base))

    identical = True
    checked = []
    for out_a, out_b, argv in (
        ("t1", "t2", ["train", "--config", str(cfg_path)]),
        ("g1", "g2", ["generate", "--config", str(cfg_path)]),
        ("a1", "a2", ["audit", "--config", str(cfg_path)]),
    ):
        assert main(argv + ["--out", str(tmp_path / out_a)]) == 0
        assert main(argv + ["--out", str(tmp_path / out_b)]) == 0
        dir_a, dir_b = tmp_path / out_a, tmp_path / out_b
        rels_a = sorted(str(p.relative_to(dir_a)) for p in dir_a.rglob("*") if p.is_file())
        rels_b = sorted(str(p.relative_to(dir_b)) for p in dir_b.rglob("*") if p.is_file())
        if rels_a != rels_b:
            identical = False
        for rel in rels_a:
            if (dir_a / rel).read_bytes() != (dir_b / rel).read_bytes():
                identical = False
                checked.append(f"{argv[0]}:{rel} differs")
        checked.append(f"{argv[0]}: {len(rels_a)} files byte-identical")
    _report(9, identical, "; ".join(checked))

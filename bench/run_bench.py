"""seglab benchmark: end-to-end rates from untraced runs, per-layer spans from traced runs.

Run from the repository root:

    python3 bench/run_bench.py --workload infer_acdc --seed 1 --seconds 35 --trace 0

The benchmark drives only the public entry points ``seglab.cli.run_experiment``
and ``seglab.cli.run_audit`` from this one process, closed loop: each unit
call starts when the previous one has returned.  (Untraced runs also time
set-up in short-lived interpreters between calls.)  Every call's outputs are
compared with reference.json, so a call fails when it raises, when its outputs
differ from the recorded ones beyond float round-off, or when an audit does
not pass.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, the per-call samples (untraced runs), and a table of
every metric with its unit, direction and sample count.

Workloads, each named after the pool in calls.py whose calls fill it:

  train_acdc           batch-1 Adam training on acdc_like, rotating ce/dice/mime/nm;
                       the headline training cost (net.forward and net.backward).
                       Runnable by name but not listed in BENCHMARK.json: on the
                       shared 2-vCPU machine it was measured on, its rate jumped
                       between about 110-145 and 230-290 samples/s from one run
                       to the next, beyond the largest bound a metric may have.
                       Scaling by host speed leaves the two modes (about 165 and
                       253 scaled samples/s), so their cause is in the process.
  train_promise_batch  promise_like, ce+dice, SGD, batch 8, augment, SEGLAB_THREADS=2;
                       the only workload that runs the per-batch thread pool,
                       augment and sgd_step
  infer_acdc           zero-epoch calls on a 200-sample test split: forward only,
                       evaluate_sample, no backward and no optimizer
  audit                run_audit over changing seeds: the finite-difference oracle,
                       the losses and the map validation, with a negligible net

``--trace 0`` reports the end-to-end metrics of the workload's own calls:
``norm_samples_per_s``, the median over calls of the samples a call processes
(epochs x train samples for training, test samples for inference, audited
random instances for run_audit) divided by its wall time, each call's rate
scaled to a reference host speed; ``setup_s``, the median wall time of
``import seglab`` plus one ``generate`` of the workload's dataset spec, timed
in fresh interpreters at SETUP_REPEATS evenly spaced moments of the run; and
``peak_rss_mb`` of this process.

The scaling is there because the shared hosts the benchmark runs on change
speed by tens of percent for stretches longer than a run, which no choice of
statistic over one run's calls removes.  A fixed kernel that does not use
seglab (calibrate.py) is timed just before and just after each call; the
call's rate is multiplied by the mean of the two probe times over
calibrate.REFERENCE_SECONDS.  A change to seglab moves the call times and not
the probe (apart from a BLAS thread setting, see calibrate.py), so it moves
the scaled rate in full.  The table also prints the unscaled rate, the
workload's rate under its own name (train_samples_per_s, eval_samples_per_s,
or audit_s, the median wall time of one run_audit call) and the median probe
time.  A call's output check runs after its wall time is taken.  One call is
rerun at the end and must write byte-identical artifacts.

``--trace 1`` reports the per-layer metrics.  It times the hot kernels in
isolation first, then runs the workload's calls in pairs on the same input:
one untraced, one with every layer's public functions wrapped from outside
(spans.py).  The two must write byte-identical artifacts, and their wall times
give ``trace.overhead_ratio``.  Per-layer metrics are named
``<module>.<function>.<stat>``; ``share`` is self time over the wall time of
the root spans (the run_experiment and run_audit calls), ``incl_share`` the
same for inclusive time, and ``<unit>_p<q>`` a percentile of the inclusive
duration, to be read beside ``calls``.

The BLAS thread count is left as found, so that a thread setting stays a
change the benchmark can show; the env line records it.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

from calibrate import REFERENCE_SECONDS, kernel_seconds
from calls import POOLS, ROOT, SRC, Ledger, discard, import_seglab, load_reference, same_bytes, scratch_dir
from spans import Target, Tracer

SETUP_REPEATS = 7
ISOLATED_WARMUP = 20
ISOLATED_REPS = 200

# The name each kind of call gives its rate in the printed table.
KIND_ALIAS = {"train": "train_samples_per_s", "eval": "eval_samples_per_s", "audit": "audit_s"}

# Traced layers: (span name, percentile unit, percentiles, report incl_share).
# incl_share is reported for the functions with traced callees.
LAYERS = (
    ("net.forward", "ms", (50, 99), False),
    ("net.backward", "ms", (50, 99), False),
    ("net.softmax", "us", (50, 99), True),
    ("net.softmax_backward", "us", (50, 99), False),
    ("net.save_checkpoint", "ms", (50,), False),
    ("losses.combined_loss", "us", (50, 99), True),
    ("grid.maps_built", "us", (50, 99), False),
    ("optim.adam_step", "us", (50, 99), False),
    ("optim.sgd_step", "us", (50,), False),
    ("synthdata.generate", "ms", (50,), True),
    ("synthdata.augment", "us", (50, 99), True),
    ("metrics.evaluate_sample", "ms", (50, 99), True),
    ("metrics.clece_report", "us", (50, 99), False),
    ("metrics.argmax_predict", "us", (50, 99), False),
    ("metrics.dsc", "us", (50, 99), False),
    ("gradcheck.finite_diff_grad", "ms", (50, 99), True),
    ("gradcheck.export_gradient_map", "ms", (50,), True),
    ("imgio.write_pfm", "us", (50,), False),
    # The roots: their self time is the runner glue outside every traced layer.
    ("cli.run_experiment", "ms", (), False),
    ("cli.run_audit", "ms", (), False),
)
ROOTS = ("cli.run_experiment", "cli.run_audit")
WORK = {
    "synthdata.generate": lambda args, result: sum(len(split) for split in result),
    "gradcheck.finite_diff_grad": lambda args, result: 2 * result.values.size,  # loss evaluations
}
UNIT_SCALE = {"ms": 1e3, "us": 1e6}

SETUP_CHILD = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import seglab
seglab.generate(seglab.DatasetSpec(**json.loads(sys.argv[2])))
print(time.perf_counter() - t0)
"""


def visit_order(pool, seed: int):
    """Endless sequence of pool entries; the workload seed fixes the order.

    Entries of one loss-rotation group stay together, so every stretch of a
    run mixes the losses in the same proportion.
    """
    rng = np.random.default_rng([seed, pool.seed_base])
    groups = rng.permutation(pool.size // pool.group)
    i = 0
    while True:
        yield int(groups[(i // pool.group) % len(groups)]) * pool.group + i % pool.group
        i += 1


def setup_spec(pool, seed: int) -> dict:
    """The dataset spec one call of the pool generates."""
    spec = {**pool.template["dataset"], "seed": seed}
    if pool.kind == "audit":  # run_audit generates one sample per split
        spec.update(train=1, val=1, test=1)
    return spec


def time_setup(spec: dict) -> float:
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(spec)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_untraced(cli, reference, workload: str, seed: int, seconds: int, tmp: Path, ledger: Ledger):
    pool = POOLS[workload]
    order = visit_order(pool, seed)
    out = tmp / "warmup"
    ledger.call(cli, pool, next(order), out, reference)
    discard(out)
    kernel_seconds()  # warm-up of the host-speed probe

    # Set-up is timed at evenly spaced moments, so that it samples the whole
    # run like the calls do, not one stretch of it.
    spec = setup_spec(pool, seed)
    setup: list[float] = []
    walls: list[float] = []
    probes: list[float] = []  # host-speed probe times around each call, averaged
    first = None
    start = perf_counter()
    while perf_counter() - start < seconds or (not walls and ledger.failed < 3):
        if perf_counter() - start >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(time_setup(spec))
            continue
        j = next(order)
        out = tmp / f"call-{ledger.attempted}"
        before = kernel_seconds()
        wall = ledger.call(cli, pool, j, out, reference)
        if wall is not None:
            walls.append(wall)
            probes.append((before + kernel_seconds()) / 2)
            if first is None:
                first = (j, out)
                continue
        discard(out)
    while len(setup) < SETUP_REPEATS:
        setup.append(time_setup(spec))

    if first is not None:
        j, out = first
        again = tmp / "rerun"
        if ledger.call(cli, pool, j, again, reference) is not None:
            differ = same_bytes(out, again)
            if differ:
                ledger.fail(f"{pool.name}[{j}] rerun wrote different bytes: {differ}")

    samples = pool.samples(cli)
    rates = [samples / wall for wall in walls]
    scaled = [samples / wall * probe / REFERENCE_SECONDS for wall, probe in zip(walls, probes)]
    print("samples " + json.dumps({"setup_s": setup, "call_s": walls, "probe_s": probes}), flush=True)
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "norm_samples_per_s": (statistics.median(scaled) if scaled else 0.0, "1/s", len(scaled)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    if walls:  # unscaled figures, printed for reading beside the scaled rate
        alias = KIND_ALIAS[pool.kind]
        aliased = statistics.median(walls) if pool.kind == "audit" else statistics.median(rates)
        print(f"  samples_per_s = {statistics.median(rates):.6g} 1/s, unscaled (median over {len(walls)} calls)")
        print(f"  {alias} = {aliased:.6g} {'s' if pool.kind == 'audit' else '1/s'}, unscaled")
        print(f"  probe_s = {statistics.median(probes):.6g} s (reference {REFERENCE_SECONDS:g} s)")
    return metrics


def layer_targets(seglab) -> list[Target]:
    grid = seglab.grid
    targets = [Target(cls, "__init__", "grid.maps_built") for cls in (grid.LabelMap, grid.ProbabilityMap, grid.GradientMap)]
    for name, *_ in LAYERS:
        module, attr = name.split(".")
        if module != "grid":
            targets.append(Target(importlib.import_module(f"seglab.{module}"), attr, name, WORK.get(name)))
    return targets


def isolated_timings(seglab) -> dict[str, float]:
    """Median times of the hot kernels in a tight loop at the train_acdc shapes."""
    spec = seglab.DatasetSpec(kind="acdc_like", image_size=(64, 64), train=1, val=1, test=1, seed=0)
    sample = seglab.generate(spec)[0][0]
    net = seglab.SegNet(spec.classes, seed=0)
    logits, cache = seglab.forward(net, sample.image)
    probs = seglab.softmax(logits)
    _, grad = seglab.combined_loss((("dice", 1.0),), sample.label, probs)
    dz = seglab.softmax_backward(probs, grad)
    cases = {
        "net.forward": lambda: seglab.forward(net, sample.image),
        "net.backward": lambda: seglab.backward(net, cache, dz),
        "net.softmax": lambda: seglab.softmax(logits),
    }
    for lid in seglab.losses.LOSS_IDS:
        cases[f"losses.combined_loss.{lid}"] = lambda lid=lid: seglab.combined_loss(((lid, 1.0),), sample.label, probs)
    timings = {}
    for name, fn in cases.items():
        for _ in range(ISOLATED_WARMUP):
            fn()
        samples = []
        for _ in range(ISOLATED_REPS):
            t0 = perf_counter()
            fn()
            samples.append(perf_counter() - t0)
        timings[name] = statistics.median(samples)
    return timings


def conv_counts(image_size, classes_total: int, hidden: int = 8) -> dict[str, float]:
    """Computed flops and bytes of one forward and one backward pass.

    Counts the GEMMs (2 flops per multiply-add), bias adds, and the col2im
    accumulation.  Bytes are 8 per float64 element each GEMM reads or writes,
    plus the im2col and col2im buffers once each; caches are ignored, so the
    bytes are a model, not a measurement.
    """
    pixels = image_size[0] * image_size[1]
    counts = dict.fromkeys(("forward_flop", "forward_bytes", "backward_flop", "backward_bytes"), 0)
    layers = ((1, hidden, 3), (hidden, hidden, 3), (hidden, classes_total, 1))
    for i, (cin, cout, k) in enumerate(layers):
        rows = cin * k * k
        counts["forward_flop"] += 2 * cout * rows * pixels + cout * pixels
        counts["forward_bytes"] += 8 * (rows * pixels + cout * rows + rows * pixels + cout * pixels)
        counts["backward_flop"] += 2 * cout * rows * pixels + cout * pixels
        counts["backward_bytes"] += 8 * (cout * pixels + rows * pixels + cout * rows)
        if i > 0:
            counts["backward_flop"] += 2 * cout * rows * pixels + rows * pixels
            counts["backward_bytes"] += 8 * (cout * rows + cout * pixels + 2 * rows * pixels + cin * pixels)
    return counts


def run_traced(seglab, reference, workload: str, seed: int, seconds: int, tmp: Path, ledger: Ledger):
    cli = seglab.cli
    pool = POOLS[workload]
    order = visit_order(pool, seed)
    out = tmp / "warmup"
    ledger.call(cli, pool, next(order), out, reference)
    discard(out)
    isolated = isolated_timings(seglab)

    tracer = Tracer(layer_targets(seglab), set(ROOTS))
    walls = {"traced": 0.0, "untraced": 0.0}
    start = perf_counter()
    n = 0
    while n == 0 or perf_counter() - start < seconds:
        j = next(order)
        sides = ("untraced", "traced") if n % 2 == 0 else ("traced", "untraced")
        pair = {}
        for side in sides:
            out = tmp / side
            context = tracer if side == "traced" else nullcontext()
            pair[side] = ledger.call(cli, pool, j, out, reference, context)
        if None not in pair.values():
            differ = same_bytes(tmp / "traced", tmp / "untraced")
            if differ:
                ledger.fail(f"{pool.name}[{j}] traced and untraced calls wrote different bytes: {differ}")
            for side, wall in pair.items():
                walls[side] += wall
        for side in sides:
            discard(tmp / side)
        n += 1

    dataset = pool.template["dataset"]
    counts = conv_counts(dataset["image_size"], seglab.DatasetSpec(kind=dataset["kind"]).classes.total)
    return layer_metrics(tracer.stats, isolated, counts, walls)


def layer_metrics(stats, isolated, counts, walls) -> dict[str, tuple[float, str, int]]:
    root_s = sum(stats[name].total_s for name in ROOTS)

    def share(seconds: float) -> float:
        return seconds / root_s if root_s > 0 else 0.0

    metrics: dict[str, tuple[float, str, int]] = {}
    for name, unit, percentiles, incl in LAYERS:
        s = stats[name]
        metrics[f"{name}.calls"] = (s.calls, "count", s.calls)
        metrics[f"{name}.self_s"] = (s.self_s, "s", s.calls)
        metrics[f"{name}.share"] = (share(s.self_s), "ratio", s.calls)
        if incl:
            metrics[f"{name}.incl_share"] = (share(s.total_s), "ratio", s.calls)
        for q in percentiles:
            metrics[f"{name}.{unit}_p{q}"] = (s.percentile_s(q) * UNIT_SCALE[unit], unit, s.calls)

    def per_second(name: str) -> float:
        s = stats[name]
        return s.work / s.total_s if s.total_s > 0 else 0.0

    generate, fd = stats["synthdata.generate"], stats["gradcheck.finite_diff_grad"]
    metrics["synthdata.generate.samples_per_s"] = (per_second("synthdata.generate"), "1/s", generate.calls)
    metrics["gradcheck.finite_diff_grad.probes_per_s"] = (per_second("gradcheck.finite_diff_grad"), "1/s", fd.calls)
    maps = stats["grid.maps_built"]
    samples = stats["net.forward"].calls + fd.calls
    metrics["grid.maps_built.per_sample"] = (maps.calls / samples if samples else 0.0, "count", samples)

    for direction in ("forward", "backward"):
        s = stats[f"net.{direction}"]
        flop = counts[f"{direction}_flop"]
        metrics[f"net.{direction}.computed_mflop"] = (flop / 1e6, "Mflop", 1)
        metrics[f"net.{direction}.computed_mb"] = (counts[f"{direction}_bytes"] / 1e6, "MB", 1)
        gflop_s = flop * s.calls / s.total_s / 1e9 if s.total_s > 0 else 0.0
        metrics[f"net.{direction}.gflop_s"] = (gflop_s, "Gflop/s", s.calls)

    for name, seconds in isolated.items():
        metrics[f"isolated.{name}.ms_p50"] = (seconds * 1e3, "ms", ISOLATED_REPS)
    backward = stats["net.backward"]
    insitu = backward.percentile_s(50) / isolated["net.backward"] if backward.calls else 0.0
    metrics["net.backward.insitu_over_isolated"] = (insitu, "ratio", backward.calls)

    overhead = walls["traced"] / walls["untraced"] if walls["untraced"] > 0 else 0.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio", stats["cli.run_experiment"].calls + stats["cli.run_audit"].calls)
    accounted = share(sum(s.self_s for s in stats.values()))
    metrics["trace.accounted_share"] = (accounted, "ratio", 1)
    return metrics


def environment_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without dict-mode show_config
        blas = {}
    commit = None
    if (ROOT / ".git").exists():  # a bare checkout has no commit to record
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "git_commit": commit,
        **{key: os.environ.get(key) for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SEGLAB_THREADS")},
    }


def declared_metrics(trace: int) -> dict[str, tuple[str, str]]:
    """Units and directions of the metrics BENCHMARK.json declares for this mode."""
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read BENCHMARK.json: {exc}") from exc
    return {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(POOLS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed: picks the inputs")
    parser.add_argument("--seconds", type=int, required=True, help="measured seconds of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    seglab = import_seglab()
    reference = load_reference()
    expected = declared_metrics(args.trace)
    print("env " + json.dumps(environment_record(), sort_keys=True), flush=True)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}", flush=True)

    ledger = Ledger()
    with scratch_dir() as tmp:
        if args.trace:
            metrics = run_traced(seglab, reference, args.workload, args.seed, args.seconds, tmp, ledger)
        else:
            metrics = run_untraced(seglab.cli, reference, args.workload, args.seed, args.seconds, tmp, ledger)

    if {name: unit for name, (_, unit, _) in metrics.items()} != {name: unit for name, (unit, _) in expected.items()}:
        print(f"error: reported metrics do not match BENCHMARK.json: {sorted(set(metrics) ^ set(expected))}", file=sys.stderr)
        return 3
    for name, (value, unit, count) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<8} {expected[name][1]:<7} n={count}")
    print(f"  {'failed_ops':<44} {ledger.failed:>14d} of {ledger.attempted} unit calls")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

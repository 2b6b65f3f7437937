"""Unit calls of the benchmark and the checks on their outputs.

A unit call is one call of a public seglab entry point: ``cli.run_experiment``
(training, or inference when ``epochs`` is 0) or ``cli.run_audit``.  Calls come
from fixed pools.  Entry ``j`` of a pool is its template config with run seed
``seed_base + j`` (the dataset seed is derived from it) and, for pools that
rotate losses, loss ``losses[j % len(losses)]``.  The workload seed chooses
the order in which a run visits a pool.

``reference.json`` holds what the seed code produced for every pool entry
(``record_reference.py`` writes it).  Each call is compared with it.
"""
from __future__ import annotations

import copy
import csv
import json
import math
import os
import shutil
import sys
import tempfile
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Float round-off allowed between a call's outputs and the recorded ones:
# |got - want| <= ABS_TOL + REL_TOL * |want|.  Reordered float64 sums differ
# by ~1e-15 per operation; these bounds leave room for that to grow through
# a short training run while still catching any change to the arithmetic.
REL_TOL = 1e-7
ABS_TOL = 1e-9
AUDIT_MAX_REL_ERROR = 1e-5

LOSS_ROTATION = ("ce", "dice", "mime", "nm")


@dataclass(frozen=True)
class Pool:
    """A fixed set of unit calls of one kind: "train", "eval" or "audit"."""

    name: str
    kind: str
    template: dict
    size: int
    seed_base: int
    losses: tuple[str, ...] = ()
    env: dict = field(default_factory=dict)

    @property
    def group(self) -> int:
        """Consecutive entries a run visits together (one per rotated loss)."""
        return max(1, len(self.losses))

    def config(self, j: int) -> dict:
        cfg = copy.deepcopy(self.template)
        cfg["seed"] = self.seed_base + j
        if self.losses:
            cfg["loss"] = {"kind": self.losses[j % len(self.losses)]}
        return cfg

    def samples(self, cli) -> int:
        """Samples one call processes: epochs x train samples, the test split,
        or the random instances run_audit checks."""
        if self.kind == "audit":
            return cli.AUDIT_TRIALS * len(cli.AUDIT_TERM_SETS)
        ds = self.template["dataset"]
        return self.template["epochs"] * ds["train"] if self.kind == "train" else ds["test"]


ACDC_64 = {"kind": "acdc_like", "image_size": [64, 64], "noise_sigma": 0.03, "seed": None}

POOLS = {
    pool.name: pool
    for pool in (
        # The criterion-6 protocol scaled down: batch 1, Adam 5e-4, no augment,
        # rotating through the four losses like `segLab compare`.
        Pool(
            name="train_acdc",
            kind="train",
            template={
                "dataset": {**ACDC_64, "train": 40, "val": 10, "test": 10},
                "optimizer": {"kind": "adam", "eta": 5e-4},
                "epochs": 2,
                "batch_size": 1,
                "augment": False,
            },
            size=64,
            seed_base=10_000,
            losses=LOSS_ROTATION,
        ),
        # Two class planes, ce+dice, SGD, batch 8 with augmentation and the
        # per-batch thread pool on two threads.
        Pool(
            name="train_promise_batch",
            kind="train",
            template={
                "dataset": {
                    "kind": "promise_like",
                    "image_size": [64, 64],
                    "noise_sigma": 0.03,
                    "seed": None,
                    "train": 48,
                    "val": 8,
                    "test": 8,
                },
                "loss": {"kind": "combined", "terms": [["ce", 1.0], ["dice", 1.0]]},
                "optimizer": {"kind": "sgd"},
                "epochs": 2,
                "batch_size": 8,
                "augment": True,
            },
            size=32,
            seed_base=20_000,
            env={"SEGLAB_THREADS": "2"},
        ),
        # Zero epochs: generation, forward, softmax, evaluate_sample on a large
        # test split, then the checkpoint and gradient-map writes.
        Pool(
            name="infer_acdc",
            kind="eval",
            template={
                "dataset": {**ACDC_64, "train": 1, "val": 1, "test": 200},
                "loss": {"kind": "dice"},
                "epochs": 0,
            },
            size=32,
            seed_base=30_000,
        ),
        # run_audit draws its random instances from the run seed.
        Pool(
            name="audit",
            kind="audit",
            template={"dataset": dict(ACDC_64), "loss": {"kind": "dice"}},
            size=32,
            seed_base=40_000,
        ),
    )
}


def import_seglab():
    """Import seglab from this checkout's ``src``, never from site-packages."""
    package = SRC / "seglab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no seglab sources at {package}")
    sys.path.insert(0, str(SRC))
    import seglab
    import seglab.cli

    if Path(seglab.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported seglab from {seglab.__file__}, not {package}")
    return seglab


def load_reference() -> dict:
    try:
        reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read {REFERENCE_PATH}: {exc}") from exc
    for name, pool in POOLS.items():
        recorded = reference.get(name, {})
        if recorded.get("template") != pool.template or len(recorded.get("entries", [])) != pool.size:
            raise SystemExit(f"error: {REFERENCE_PATH.name} does not match pool {name}; re-record it")
    return reference


@contextmanager
def environment(overrides: dict):
    saved = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def run_call(cli, pool: Pool, j: int, out: Path) -> float:
    """Make unit call ``j`` of ``pool`` into ``out``; returns its wall time.

    Exceptions propagate; checking the outputs is left to ``check_outputs``.
    """
    cfg = cli.config_from_dict({**pool.config(j), "output_dir": str(out)})
    with environment(pool.env):
        t0 = perf_counter()
        if pool.kind == "audit":
            out.mkdir(parents=True, exist_ok=True)
            _, passed = cli.run_audit(cfg, out / "gradaudit.json")
        else:
            cli.run_experiment(cfg)
            passed = True
        wall = perf_counter() - t0
    if not passed:
        raise AssertionError("run_audit returned passed=False")
    return wall


def record_outputs(pool: Pool, out: Path) -> dict:
    """The values of a call's outputs that reference.json keeps."""
    if pool.kind == "audit":
        report = json.loads((out / "gradaudit.json").read_text(encoding="utf-8"))
        return {
            "distinct_values": report["distinct_values"],
            "bound_violations": report["bound_violations"],
            "dynamic_range_db": report["dynamic_range_db"],
        }
    with open(out / "val_dsc.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    return {
        "test_metrics": json.loads((out / "test_metrics.json").read_text(encoding="utf-8")),
        "val_dsc_header": rows[0],
        "val_dsc_rows": [[float(cell) for cell in row] for row in rows[1:]],
    }


def _compare(got, want, where: str, problems: list[str]) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            problems.append(f"{where}: keys {sorted(got) if isinstance(got, dict) else got} != {sorted(want)}")
            return
        for key in want:
            _compare(got[key], want[key], f"{where}.{key}", problems)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{where}: {got!r} != {want!r}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{where}[{i}]", problems)
    elif isinstance(want, float):
        if not (isinstance(got, (int, float)) and math.isfinite(got)) or abs(got - want) > ABS_TOL + REL_TOL * abs(want):
            problems.append(f"{where}: {got!r} != {want!r} within rel {REL_TOL:g} / abs {ABS_TOL:g}")
    elif got != want:
        problems.append(f"{where}: {got!r} != {want!r}")


def check_outputs(pool: Pool, j: int, out: Path, reference: dict) -> list[str]:
    """Differences between a call's outputs and the recorded reference."""
    problems: list[str] = []
    try:
        got = record_outputs(pool, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable outputs: {exc!r}"]
    if pool.kind == "audit":
        report = json.loads((out / "gradaudit.json").read_text(encoding="utf-8"))
        if not report["max_rel_error"] < AUDIT_MAX_REL_ERROR:
            problems.append(f"max_rel_error {report['max_rel_error']} >= {AUDIT_MAX_REL_ERROR:g}")
    _compare(got, reference[pool.name]["entries"][j], f"{pool.name}[{j}]", problems)
    return problems


def same_bytes(a: Path, b: Path) -> list[str]:
    """Files that differ between two output directories."""
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return [f"file sets differ: {names_a} vs {names_b}"]
    return [name for name in names_a if (a / name).read_bytes() != (b / name).read_bytes()]


@dataclass
class Ledger:
    """Attempted and failed unit calls; a failure is reported on stderr."""

    attempted: int = 0
    failed: int = 0

    def call(self, cli, pool: Pool, j: int, out: Path, reference: dict, context=None) -> float | None:
        """Run and check one unit call; its wall time, or None if it failed.

        ``context`` (a tracer) is entered around the call itself only.
        """
        self.attempted += 1
        try:
            with context or nullcontext():
                wall = run_call(cli, pool, j, out)
        except Exception:  # a failed unit call is counted, and the run goes on
            self.fail(f"{pool.name}[{j}] raised:\n{traceback.format_exc()}")
            return None
        problems = check_outputs(pool, j, out, reference)
        if problems:
            self.fail(f"{pool.name}[{j}] outputs differ from the reference:\n  " + "\n  ".join(problems[:10]))
            return None
        return wall

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED {message}", file=sys.stderr)


def discard(out: Path) -> None:
    shutil.rmtree(out, ignore_errors=True)


@contextmanager
def scratch_dir():
    """A temporary directory under ``.bench_work`` in the checkout, removed after."""
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            yield Path(tmp)
    finally:
        try:
            work.rmdir()
        except OSError:  # another run still uses it
            pass

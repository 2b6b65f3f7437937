"""``main`` over mutated configs and corrupted checkpoints: never a traceback.

Each example runs one command and asserts that the exit code is 0, 1 or 2,
that stderr holds at most one ``error:`` line and that no exception escapes
``main``.  An exit code of 2 leaves no ``--out`` directory behind for
``generate``, ``audit`` and ``gradmap``, whose writer makes the directory at
the first write.  ``train`` makes its output directory before training, so a
run that aborts in training leaves it; ``compare`` runs the same engine, so
it may leave only those run directories, never ``comparison.csv``.

Runs stay cheap: the base config draws 48x48 images, 2/1/1 samples and one
epoch, and every number a key could accept is small, so a valid mutation
keeps those bounds.
"""
import contextlib
import io
import json
import tempfile
from functools import cache
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from seglab.cli import config_from_dict, config_to_dict, main
from seglab.grid import ClassSet
from seglab.net import SegNet, save_checkpoint

BASE = {
    "dataset": {"kind": "acdc_like", "image_size": [48, 48], "train": 2, "val": 1, "test": 1, "noise_sigma": 0.03, "seed": None},
    "loss": {"kind": "dice"},
    "optimizer": {"kind": "adam"},
    "epochs": 1,
    "batch_size": 1,
    "seed": 0,
    "augment": False,
}

KEYS = [
    ("epochs",), ("batch_size",), ("seed",), ("augment",), ("dataset",), ("loss",), ("optimizer",), ("unknown",),
    ("dataset", "kind"), ("dataset", "image_size"), ("dataset", "train"), ("dataset", "val"), ("dataset", "test"),
    ("dataset", "noise_sigma"), ("dataset", "seed"), ("dataset", "unknown"),
    ("loss", "kind"), ("loss", "a"), ("loss", "b"), ("loss", "terms"),
    ("optimizer", "kind"), ("optimizer", "eta"), ("optimizer", "lam"), ("optimizer", "momentum"),
    ("optimizer", "weight_decay"), ("optimizer", "beta1"), ("optimizer", "beta2"), ("optimizer", "adam_eps"),
]

# Edge numbers: none that a count accepts is above 1, apart from 2**53 + 1,
# 2**70 and 10**4, which only seeds and batch_size accept, so no mutation
# makes a run expensive.
NUMBERS = st.sampled_from(
    [0, 1, -1, 0.5, 1.0, 0.999, -0.5, 1e-300, 1e300, 1e308, -1e308, float(2**53), 2**53 + 1, 2**70, 10**4, float("nan"), float("inf")]
)
KINDS = st.sampled_from(["acdc_like", "promise_like", "ce", "dice", "mime", "nm", "combined", "sgd", "adam", "jaccard", ""])
SIDES = st.lists(st.sampled_from([0, -1, 16, 24, 47, 48, 48.0, 513, 1e308, "48", None]), max_size=3)
TERMS = st.lists(st.tuples(st.sampled_from(["ce", "dice", "mime", "nm", "jaccard"]), NUMBERS).map(list), max_size=3)
# Values of the key's own type, or of any JSON type, nested blocks included.
FITTING = {"image_size": SIDES, "terms": TERMS, "augment": st.booleans(), "kind": KINDS, "dataset": KINDS, "loss": KINDS, "optimizer": KINDS}
ANY = st.recursive(
    st.none() | st.booleans() | NUMBERS | KINDS,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.sampled_from(["kind", "a", "train"]), inner, max_size=2),
    max_leaves=3,
)
CHANGES = st.lists(
    st.sampled_from(KEYS).flatmap(lambda path: st.tuples(st.just(path), FITTING.get(path[-1], NUMBERS) | ANY)),
    min_size=1,
    max_size=3,
)


def mutated(changes: list[tuple[tuple[str, ...], object]]) -> dict:
    """BASE with each (key path, value) applied; a path through a block that is no longer an object is skipped."""
    data = json.loads(json.dumps(BASE))
    for path, value in changes:
        block = data
        for key in path[:-1]:
            block = block.get(key) if isinstance(block, dict) else None
        if isinstance(block, dict):
            block[path[-1]] = value
    return data


def run_main(argv: list[str]) -> tuple[int, list[str]]:
    """main's exit code and its stderr's error lines; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) <= 1
    return code, errors


FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@FUZZ
@given(
    command=st.sampled_from(["generate", "train", "audit", "compare"]),
    changes=CHANGES,
)
def test_mutated_configs_end_cleanly(command, changes):
    data = mutated(changes)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / "out"
        (tmp / "a.json").write_text(json.dumps(data))
        if command == "compare":
            (tmp / "b.json").write_text(json.dumps(data | {"loss": {"kind": "ce"}}))
            argv = ["compare", "--configs", str(tmp / "a.json"), str(tmp / "b.json"), "--out", str(out)]
        else:
            argv = [command, "--config", str(tmp / "a.json"), "--out", str(out)]
        code, errors = run_main(argv)
        assert (code == 2) == bool(errors)
        if code == 2 and command == "compare" and out.exists():
            left = list(out.iterdir())
            assert left and all(p.is_dir() and p.name.startswith("run") for p in left)
        elif code == 2 and command != "train":
            assert not out.exists()


@cache
def checkpoint_bytes() -> bytes:
    """A fresh acdc_like net saved with BASE as its embedded config."""
    config = config_to_dict(config_from_dict(BASE), include_output=False)
    with tempfile.TemporaryDirectory() as tmp:
        return save_checkpoint(Path(tmp) / "net.ckpt", SegNet(ClassSet(3), seed=0), epoch=0, config=config).read_bytes()


@FUZZ
@given(
    region=st.sampled_from(["header", "block", "cut"]),
    edits=st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 255)), min_size=1, max_size=6),
)
def test_corrupted_checkpoints_end_cleanly(region, edits):
    """Bytes replaced in the JSON header, or the high byte (sign and top
    exponent bits) of some parameters replaced, or the file cut short."""
    data = bytearray(checkpoint_bytes())
    header_size = data.index(b"\n") + 1
    params = (len(data) - header_size) // 8
    for position, byte in edits:
        if region == "header":
            data[position % header_size] = byte
        elif region == "block":
            data[header_size + 8 * (position % params) + 7] = byte
    if region == "cut":
        del data[edits[0][0] % len(data) :]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "net.ckpt").write_bytes(bytes(data))
        out = tmp / "maps"
        code, errors = run_main(["gradmap", "--checkpoint", str(tmp / "net.ckpt"), "--sample", "acdc_like-val-0000", "--out", str(out)])
        assert code in (0, 2) and (code == 2) == bool(errors)
        if code == 2:
            assert not out.exists()

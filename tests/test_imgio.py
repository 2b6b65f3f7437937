import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seglab.errors import SegLabError, ValidationError
from seglab.imgio import read_pfm, read_pgm16, write_atomic, write_pfm, write_pgm16

READERS = {"pfm": read_pfm, "pgm": read_pgm16}


def written(kind: str, path, rng: np.random.Generator, height: int = 3, width: int = 4) -> bytes:
    if kind == "pfm":
        write_pfm(path, rng.normal(0, 1, (height, width)))
    else:
        write_pgm16(path, rng.integers(0, 65536, (height, width)))
    return path.read_bytes()


@pytest.mark.parametrize("kind", READERS)
def test_round_trip(tmp_path, kind):
    rng = np.random.default_rng(0)
    path = tmp_path / f"img.{kind}"
    if kind == "pfm":
        image = rng.normal(0, 1, (3, 5)).astype(np.float32)
        write_pfm(path, image)
    else:
        image = rng.integers(0, 65536, (3, 5)).astype(np.uint16)
        write_pgm16(path, image)
    assert np.array_equal(READERS[kind](path), image)


@pytest.mark.parametrize(
    "kind, content",
    [
        ("pfm", np.random.default_rng(0).bytes(300)),
        ("pgm", np.random.default_rng(0).bytes(300)),
        ("pfm", b"Pf\n4 4\n-1.0\n" + bytes(10)),
        ("pgm", b"P5\n4 4\n65535\n" + bytes(9)),
        ("pfm", b"Pf\n4 4\n-1.0\n" + bytes(65)),
        ("pfm", b"Pf\n4 4\nscale\n" + bytes(64)),
        ("pfm", b"Pf\n4 4\n0.0\n" + bytes(64)),
        ("pfm", b"Pf\n4\n-1.0\n" + bytes(16)),
        ("pgm", b"P5\n4 -4\n65535\n" + bytes(32)),
        ("pgm", b"P5\n4 4\n255\n" + bytes(32)),
        ("pgm", b"P5\n99999999999 99999999999\n65535\n"),
        ("pgm", b""),
    ],
    ids=[
        "pfm_random_bytes",
        "pgm_random_bytes",
        "pfm_short_body",
        "pgm_odd_body",
        "pfm_trailing_byte",
        "pfm_bad_scale",
        "pfm_zero_scale",
        "pfm_one_dimension",
        "pgm_negative_height",
        "pgm_8_bit",
        "pgm_huge_dimensions",
        "pgm_empty",
    ],
)
def test_bad_file_raises_validation_error(tmp_path, kind, content):
    path = tmp_path / "bad"
    path.write_bytes(content)
    with pytest.raises(ValidationError):
        READERS[kind](path)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    kind=st.sampled_from(sorted(READERS)),
    seed=st.integers(0, 2**32 - 1),
    cut=st.floats(0.0, 1.0, exclude_max=True),
    flip=st.integers(0, 255),
)
def test_fuzzed_writer_output_raises_only_seglab_errors(tmp_path, kind, seed, cut, flip):
    """Truncate the writer's file (flip == 0) or XOR one byte with flip; only SegLabError may escape."""
    rng = np.random.default_rng(seed)
    path = tmp_path / f"fuzz.{kind}"
    raw = bytearray(written(kind, path, rng, int(rng.integers(1, 5)), int(rng.integers(1, 5))))
    at = int(cut * len(raw))
    if flip:
        raw[at] ^= flip
    else:
        del raw[at:]
    path.write_bytes(bytes(raw))
    try:
        READERS[kind](path)
    except SegLabError:
        pass


@pytest.mark.parametrize("fail_at", ["write", "replace"])
def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch, fail_at):
    path = tmp_path / "img.pfm"
    image = np.arange(6.0).reshape(2, 3)
    write_pfm(path, image)
    before = path.read_bytes()

    def fail(*args):
        raise OSError("simulated failure")

    with pytest.raises((OSError, TypeError)):
        if fail_at == "write":
            write_atomic(path, "not bytes")  # raises inside the temp file's write
        else:
            monkeypatch.setattr(os, "replace", fail)
            write_pfm(path, image + 1.0)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["img.pfm"]


@pytest.mark.parametrize("value", [1e39, -1e39, np.nan], ids=["above_float32", "below_float32", "nan"])
def test_pfm_value_beyond_float32_rejected_and_nothing_written(tmp_path, value):
    path = tmp_path / "img.pfm"
    with pytest.raises(ValidationError, match="img.pfm"):
        write_pfm(path, np.array([[0.0, value]]))
    assert os.listdir(tmp_path) == []


def test_pfm_float32_extremes_round_trip(tmp_path):
    top = np.finfo(np.float32).max
    image = np.array([[top, -top], [0.0, 1.0]], dtype=np.float32)
    write_pfm(tmp_path / "img.pfm", image)
    assert np.array_equal(read_pfm(tmp_path / "img.pfm"), image)

"""Minimal PFM and PGM file support.

PFM: grayscale "Pf" variant, scale header "-1.0" (little-endian float32),
scanlines stored bottom-to-top as in the common reference readers.  The writer
takes 2-D planes whose values all fit float32: |v| <= float32 max, no NaN.

PGM: binary "P5" with maxval 65535, two bytes per pixel, most significant
byte first.

JSON artifacts: UTF-8, keys sorted, two-space indent, a final newline.

Both readers accept only what the writers here produce (no comment lines, no
trailing bytes) and raise ValidationError for any other content.
"""
from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import ValidationError

__all__ = ["write_atomic", "write_json", "write_pfm", "read_pfm", "write_pgm16", "read_pgm16"]

_FLOAT32_MAX = float(np.finfo(np.float32).max)


def write_atomic(path: str | Path, data: bytes) -> Path:
    """Write every seglab artifact: a temp file in the same directory, then os.replace.

    The writer makes the file's directory, with its parents, so a command
    that fails before its first write leaves no directory; only ``segLab
    train`` makes its output directory earlier, before training.  An
    exception leaves the previous file in place and no temp file behind; a
    killed process may leave the temp file but never a partial file at path.
    Not fsynced, so a power loss is not covered.  The temp name holds the
    process id: one writer per path at a time.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def write_json(path: str | Path, payload: dict) -> Path:
    """Write a JSON artifact atomically."""
    return write_atomic(path, (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8"))


def write_pfm(path: str | Path, image: np.ndarray) -> None:
    """Write a 2-D array as a grayscale little-endian PFM file; a plane
    ``_pfm_bytes`` rejects writes nothing."""
    write_atomic(path, _pfm_bytes(path, image))


def _pfm_bytes(path: str | Path, image: np.ndarray) -> bytes:
    """The PFM file of a 2-D array, for path, which only error messages name.

    Every value must satisfy |v| <= float32 max before the cast, so NaN and
    infinities are rejected too.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValidationError(f"PFM export needs a 2-D plane, got shape {img.shape}")
    if not (np.abs(img) <= _FLOAT32_MAX).all():
        raise ValidationError(f"{path}: PFM values must be finite with |v| <= {_FLOAT32_MAX:g} (float32 max)")
    height, width = img.shape
    header = f"Pf\n{width} {height}\n-1.0\n".encode("ascii")
    return header + np.flipud(img).astype("<f4").tobytes()


def _read(path: str | Path, tag: str, bytes_per_pixel: int) -> tuple[str, int, int, bytes]:
    """Split a file into its third header line, width, height and exact payload.

    Any header that is not ASCII, has the wrong tag or malformed dimensions, and
    any payload not exactly width * height * bytes_per_pixel long, raises
    ValidationError.
    """
    with open(path, "rb") as f:
        head = [f.readline() for _ in range(3)]
        payload = f.read()
    try:
        lines = [line.decode("ascii") for line in head]
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: header is not ASCII") from exc
    if lines[0].strip() != tag:
        raise ValidationError(f"{path}: expected tag {tag!r}, got {lines[0].strip()!r}")
    dims = lines[1].split()
    if len(dims) != 2 or not all(d.isdigit() for d in dims):
        raise ValidationError(f"{path}: bad dimensions line {lines[1]!r}")
    width, height = int(dims[0]), int(dims[1])
    if len(payload) != width * height * bytes_per_pixel:
        raise ValidationError(
            f"{path}: payload of {len(payload)} bytes, expected {width * height * bytes_per_pixel}"
        )
    return lines[2], width, height, payload


def read_pfm(path: str | Path) -> np.ndarray:
    """Read a grayscale PFM file into a float32 array of shape (H, W)."""
    scale_line, width, height, payload = _read(path, "Pf", 4)
    try:
        scale = float(scale_line)
    except ValueError as exc:
        raise ValidationError(f"{path}: bad PFM scale {scale_line!r}") from exc
    if not (math.isfinite(scale) and scale != 0.0):
        raise ValidationError(f"{path}: PFM scale must be finite and nonzero, got {scale}")
    data = np.frombuffer(payload, dtype="<f4" if scale < 0 else ">f4")
    return np.flipud(data.reshape(height, width)).astype(np.float32)


def write_pgm16(path: str | Path, values: np.ndarray) -> None:
    """Write an integer 2-D array as a 16-bit binary PGM (maxval 65535)."""
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ValidationError(f"PGM export needs a 2-D array, got shape {arr.shape}")
    if arr.min() < 0 or arr.max() > 65535:
        raise ValidationError("PGM values must lie in [0, 65535]")
    height, width = arr.shape
    header = f"P5\n{width} {height}\n65535\n".encode("ascii")
    write_atomic(path, header + arr.astype(">u2").tobytes())


def read_pgm16(path: str | Path) -> np.ndarray:
    """Read a 16-bit binary PGM into a uint16 array of shape (H, W)."""
    maxval, width, height, payload = _read(path, "P5", 2)
    if maxval.strip() != "65535":
        raise ValidationError(f"{path}: expected 16-bit PGM (maxval 65535), got {maxval.strip()!r}")
    return np.frombuffer(payload, dtype=">u2").reshape(height, width).astype(np.uint16)

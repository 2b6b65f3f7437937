"""Deterministic synthetic segmentation datasets.

Two families stand in for cardiac-like and prostate-like data:

acdc_like (K = 3): each sample nests a disk (class 3) inside the hole of an
annulus (class 2), with a crescent (class 1, difference of two offset disks)
placed to the left with a guaranteed gap.  Intensities: disk -> 0.8,
annulus -> 0.5, crescent -> 0.65, background -> 0.2, so every adjacent pair
of classes is separated by at least 0.3.

promise_like (K = 1): a single axis-aligned ellipse at 0.7 over a 0.25
background.

Each family is one row of ``_FAMILIES``: its mask drawer, its intensities and
the least image side it generates at (48 and 24).

Gaussian intensity noise (labels stay clean) is added and values clamped to
[0, 1].  Geometry is sampled in proportion to the grid, so on square images
the disk covers 1.8 - 4.5 % of the pixels, the annulus 2 - 8 %, and the
crescent 1 - 5.5 %.  Generation is fully determined by the spec seed; the
three splits draw from independent child seeds.  ``generate_split`` yields
one split's samples in order from its child seed, so a caller can stream one
split (the training engine streams the test split); ``generate`` lists all
three.  A split's seed, least image side and name are checked at its first
draw, and a sample whose geometry cannot be drawn raises when it is reached.

A ``Sample`` holds its image (float64) and its ground truth as a
``LabelMap``: a class-index map in the smallest unsigned dtype that fits
(uint8 here), range-checked once.  Both arrays are read-only.  A 64x64 sample
holds 36 KB of arrays, and one-hot float64 planes would take 32 KB more per
class plane; the label builds them only if its ``values`` are read, and the
training engine builds raw planes from ``label.indices`` where a loss needs
them.

Export draws each split of a spec and writes each sample as it is drawn:
one 16-bit PGM per image and one per label-index map, so it holds one sample
at a time.  The JSON manifest of the spec and of the ids per split is written
last.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ValidationError
from .grid import ClassSet, LabelMap
from .imgio import write_json, write_pgm16

__all__ = [
    "DatasetSpec",
    "Sample",
    "generate",
    "generate_split",
    "split_of",
    "augment",
    "flip_rotate",
    "export_dataset",
    "ACDC_INTENSITIES",
    "PROMISE_INTENSITIES",
]

SPLIT_NAMES = ("train", "val", "test")

ACDC_INTENSITIES = {0: 0.2, 1: 0.65, 2: 0.5, 3: 0.8}
PROMISE_INTENSITIES = {0: 0.25, 1: 0.7}

MAX_GEOMETRY_RETRIES = 50


@dataclass(frozen=True)
class DatasetSpec:
    kind: str = "acdc_like"
    image_size: tuple[int, int] = (64, 64)
    train: int = 500
    val: int = 50
    test: int = 100
    noise_sigma: float = 0.03
    seed: int | None = 0

    def __post_init__(self) -> None:
        if self.kind not in _FAMILIES:
            raise ValidationError(f"unknown dataset kind {self.kind!r}")
        size = tuple(int(d) for d in self.image_size)
        if len(size) != 2 or any(d < 1 for d in size):
            raise ValidationError(f"image_size must be two positive ints, got {self.image_size}")
        object.__setattr__(self, "image_size", size)
        if min(self.train, self.val, self.test) < 1:
            raise ValidationError("each split needs at least one sample")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValidationError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.seed is not None and self.seed < 0:
            raise ValidationError(f"dataset key 'seed' must be >= 0, got {self.seed}")

    @property
    def classes(self) -> ClassSet:
        return ClassSet(len(_FAMILIES[self.kind][1]) - 1)


@dataclass(frozen=True, eq=False)
class Sample:
    """An image with its ground truth; the image is copied and frozen."""

    image: np.ndarray  # (H, W) float64 in [0, 1], read-only
    label: LabelMap
    id: str

    def __post_init__(self) -> None:
        image = np.array(self.image, dtype=np.float64)
        if image.shape != self.label.indices.shape:
            raise ValidationError(f"image shape {image.shape} != label grid {self.label.indices.shape}")
        image.setflags(write=False)
        object.__setattr__(self, "image", image)


def _disk(yy: np.ndarray, xx: np.ndarray, cy: float, cx: float, r: float) -> np.ndarray:
    return (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r


def _acdc_masks(rng: np.random.Generator, height: int, width: int) -> list[np.ndarray]:
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

    yy, xx = np.arange(height)[:, None], np.arange(width)[None, :]  # broadcast to the grid
    disk = _disk(yy, xx, cy, cx, r_in)
    annulus = _disk(yy, xx, cy, cx, r_out) & ~disk
    crescent = _disk(yy, xx, cy_cres, cx_cres, r_cres) & ~_disk(yy, xx, cy_cres, carve_cx, carve_r)
    return [crescent, annulus, disk]  # classes 1, 2, 3


def _promise_masks(rng: np.random.Generator, height: int, width: int) -> list[np.ndarray]:
    m = min(height, width)
    ay = m * rng.uniform(0.094, 0.219)
    ax = m * rng.uniform(0.094, 0.219)
    cy = rng.uniform(ay + 2.0, height - ay - 2.0)
    cx = rng.uniform(ax + 2.0, width - ax - 2.0)
    yy, xx = np.arange(height)[:, None], np.arange(width)[None, :]  # broadcast to the grid
    ellipse = ((yy - cy) / ay) ** 2 + ((xx - cx) / ax) ** 2 <= 1.0
    return [ellipse]


# kind -> (mask drawer for classes 1..K, intensity of each class 0..K, least image side)
_FAMILIES = {
    "acdc_like": (_acdc_masks, ACDC_INTENSITIES, 48),
    "promise_like": (_promise_masks, PROMISE_INTENSITIES, 24),
}


def _make_sample(spec: DatasetSpec, rng: np.random.Generator, sample_id: str) -> Sample:
    height, width = spec.image_size
    draw_masks, intensities, _ = _FAMILIES[spec.kind]
    for _ in range(MAX_GEOMETRY_RETRIES):
        masks = draw_masks(rng, height, width)
        if all(mask.any() for mask in masks):
            break
    else:
        raise ValidationError(f"could not draw non-empty geometry for {sample_id}")

    idx = np.zeros((height, width), dtype=np.uint8)
    for k, mask in enumerate(masks, start=1):
        np.copyto(idx, k, where=mask)  # a later mask wins where masks overlap
    image = np.array([intensities[k] for k in range(len(masks) + 1)])[idx]
    if spec.noise_sigma > 0:
        image += rng.normal(0.0, spec.noise_sigma, size=image.shape)
        np.clip(image, 0.0, 1.0, out=image)

    return Sample(image, LabelMap(idx, spec.classes), sample_id)


def generate_split(spec: DatasetSpec, split: str) -> Iterator[Sample]:
    """Yield one split's samples in order, fully determined by spec.seed;
    the spec and split are checked at the first draw."""
    if split not in SPLIT_NAMES:
        raise ValidationError(f"unknown split {split!r}, expected one of {SPLIT_NAMES}")
    if spec.seed is None:
        raise ValidationError("dataset seed must be set before generation")
    least = _FAMILIES[spec.kind][2]
    if min(spec.image_size) < least:
        raise ValidationError(f"{spec.kind} needs images of at least {least}x{least}, got {spec.image_size}")

    child = np.random.SeedSequence(spec.seed).spawn(len(SPLIT_NAMES))[SPLIT_NAMES.index(split)]
    rng = np.random.default_rng(child)
    prefix = _id_prefix(spec.kind, split)
    for i in range(getattr(spec, split)):
        yield _make_sample(spec, rng, f"{prefix}{i:04d}")


def _id_prefix(kind: str, split: str) -> str:
    """A sample id is this prefix and its four-digit index: acdc_like-val-0003."""
    return f"{kind}-{split}-"


def split_of(spec: DatasetSpec, sample_id: str) -> str | None:
    """The split a sample id of spec's kind names, or None for any other id."""
    return next((split for split in SPLIT_NAMES if sample_id.startswith(_id_prefix(spec.kind, split))), None)


def generate(spec: DatasetSpec) -> tuple[list[Sample], list[Sample], list[Sample]]:
    """Build the train/val/test splits, fully determined by spec.seed."""
    train, val, test = (list(generate_split(spec, split)) for split in SPLIT_NAMES)
    return train, val, test


def flip_rotate(arr: np.ndarray, hflip: bool, vflip: bool, quarter_turns: int) -> np.ndarray:
    """Apply flips then 90-degree rotations to the last two axes."""
    out = arr
    if hflip:
        out = np.flip(out, axis=-1)
    if vflip:
        out = np.flip(out, axis=-2)
    if quarter_turns % 4:
        out = np.rot90(out, k=quarter_turns % 4, axes=(-2, -1))
    return np.ascontiguousarray(out)


def augment(sample: Sample, seed: int) -> Sample:
    """Random flip/rotation applied identically to image and label.

    The draw is fully determined by the seed; the id is kept so augmented
    samples substitute for their originals within an epoch.
    """
    rng = np.random.default_rng(seed)
    hflip = bool(rng.random() < 0.5)
    vflip = bool(rng.random() < 0.5)
    quarter_turns = int(rng.integers(0, 4))
    return Sample(
        flip_rotate(sample.image, hflip, vflip, quarter_turns),
        LabelMap(flip_rotate(sample.label.indices, hflip, vflip, quarter_turns), sample.label.classes),
        sample.id,
    )


def export_dataset(spec: DatasetSpec, out_dir: str | Path) -> Path:
    """Draw the spec's splits and write their PGM images and label-index maps,
    then the JSON manifest."""
    out = Path(out_dir)
    manifest = {
        "kind": spec.kind,
        "image_size": list(spec.image_size),
        "count_objects": spec.classes.count_objects,
        "noise_sigma": spec.noise_sigma,
        "seed": spec.seed,
        "splits": {},
    }
    for split in SPLIT_NAMES:
        ids = []
        for sample in generate_split(spec, split):
            # made at the first write, so a spec that cannot be drawn leaves no directory
            for sub, values in (("images", np.round(sample.image * 65535.0)), ("labels", sample.label.indices)):
                (out / sub).mkdir(parents=True, exist_ok=True)
                write_pgm16(out / sub / f"{sample.id}.pgm", values)
            ids.append(sample.id)
        manifest["splits"][split] = ids
    return write_json(out / "manifest.json", manifest)

"""A compact convolutional segmenter with explicit forward and backward passes.

Architecture: Conv3x3(1 -> 8) + ReLU, Conv3x3(8 -> 8) + ReLU,
Conv1x1(8 -> |classes|), all with same-size zero padding so the pixel grid
never changes.  The input image is centered (x - 0.5) before the first layer:
intensities live in [0, 1], and feeding all-positive patches into ReLU stacks
makes half the units dead on arrival and unit death nearly absorbing.  The
parameter vector theta concatenates every layer's kernels then biases, in
layer order.  Kernels are He-normal initialized from a seeded generator;
biases start at zero.  The ReLU subgradient at 0 is 0.

Checkpoint format (single file):
  line 1   UTF-8 JSON header terminated by '\\n' with keys
           format, hidden_channels, in_channels, classes_total, seed, epoch,
           param_count, dtype ("<f8"), best_val_dsc, config
  payload  param_count raw little-endian float64 values in theta order
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeMismatchError, StaleCacheError, ValidationError
from .grid import ClassSet, GradientMap, GridShape, ProbabilityMap

__all__ = [
    "ConvLayer",
    "SegNet",
    "ForwardCache",
    "forward",
    "softmax",
    "softmax_backward",
    "backward",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT = "seglab-checkpoint-v1"

_HEADER_INT_MIN = {"param_count": 1, "classes_total": 2, "hidden_channels": 1, "seed": 0}

# Subtracted from input images before the first convolution.
INPUT_CENTER = 0.5


@dataclass(eq=False)
class ConvLayer:
    """Same-padded 2-D convolution with an optional ReLU."""

    kernels: np.ndarray  # (out_ch, in_ch, kh, kw)
    biases: np.ndarray  # (out_ch,)
    relu: bool

    def __post_init__(self) -> None:
        if self.kernels.ndim != 4:
            raise ValidationError(f"kernels must be 4-D, got shape {self.kernels.shape}")
        out_ch, _, kh, kw = self.kernels.shape
        if kh % 2 == 0 or kw % 2 == 0:
            raise ValidationError(f"kernel sides must be odd for same padding, got {kh}x{kw}")
        if self.biases.shape != (out_ch,):
            raise ValidationError(f"biases shape {self.biases.shape} != ({out_ch},)")


def _he_layer(rng: np.random.Generator, in_ch: int, out_ch: int, k: int, relu: bool) -> ConvLayer:
    fan_in = in_ch * k * k
    kernels = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(out_ch, in_ch, k, k))
    return ConvLayer(kernels=kernels, biases=np.zeros(out_ch), relu=relu)


class SegNet:
    """Three-layer convolutional segmenter over single-channel 2-D images."""

    def __init__(self, classes: ClassSet, seed: int, hidden: int = 8):
        rng = np.random.default_rng(seed)
        self.classes = classes
        self.seed = int(seed)
        self.hidden = int(hidden)
        self.layers = [
            _he_layer(rng, 1, hidden, 3, relu=True),
            _he_layer(rng, hidden, hidden, 3, relu=True),
            _he_layer(rng, hidden, classes.total, 1, relu=False),
        ]
        self.params_version = 0
        self.param_slices: list[tuple[slice, slice]] = []
        offset = 0
        for layer in self.layers:
            ks = slice(offset, offset + layer.kernels.size)
            offset = ks.stop
            bs = slice(offset, offset + layer.biases.size)
            offset = bs.stop
            self.param_slices.append((ks, bs))
        self.param_count = offset

    def get_params(self) -> np.ndarray:
        """Flattened copy of all kernels and biases in layer order."""
        return np.concatenate(
            [np.concatenate([l.kernels.ravel(), l.biases.ravel()]) for l in self.layers]
        )

    def set_params(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.param_count,):
            raise ShapeMismatchError(
                f"parameter vector has shape {theta.shape}, expected ({self.param_count},)"
            )
        for layer, (ks, bs) in zip(self.layers, self.param_slices):
            layer.kernels = theta[ks].reshape(layer.kernels.shape).copy()
            layer.biases = theta[bs].copy()
        self.params_version += 1


@dataclass(eq=False)
class _LayerCache:
    input_shape: tuple[int, int, int]
    cols: np.ndarray  # (in_ch*kh*kw, H*W)
    pre: np.ndarray  # pre-activation, (out_ch, H, W)


@dataclass(eq=False)
class ForwardCache:
    net_id: int
    params_version: int
    layers: list[_LayerCache]


def _conv_forward(layer: ConvLayer, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    out_ch, in_ch, kh, kw = layer.kernels.shape
    if x.shape[0] != in_ch:
        raise ShapeMismatchError(f"layer expects {in_ch} input channels, got {x.shape[0]}")
    _, height, width = x.shape
    pad = kh // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad))) if pad else x
    windows = sliding_window_view(xp, (kh, kw), axis=(1, 2))  # (C, H, W, kh, kw)
    cols = windows.transpose(0, 3, 4, 1, 2).reshape(in_ch * kh * kw, height * width)
    wmat = layer.kernels.reshape(out_ch, -1)
    pre = (wmat @ cols + layer.biases[:, None]).reshape(out_ch, height, width)
    return cols, pre


def forward(net: SegNet, image: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run the net on a single-channel image; returns (logits, cache).

    Logits have shape (classes.total, H, W); the cache feeds backward().
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-D single-channel image, got shape {image.shape}")
    x = image[None] - INPUT_CENTER
    caches = []
    for layer in net.layers:
        cols, pre = _conv_forward(layer, x)
        caches.append(_LayerCache(input_shape=x.shape, cols=cols, pre=pre))
        x = np.maximum(pre, 0.0) if layer.relu else pre
    return x, ForwardCache(net_id=id(net), params_version=net.params_version, layers=caches)


def softmax(logits: np.ndarray) -> ProbabilityMap:
    """Per-pixel softmax over the class axis with the usual max shift."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim < 2:
        raise ShapeMismatchError(f"logits need a class axis plus grid axes, got shape {z.shape}")
    shifted = z - z.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=0, keepdims=True)
    classes = ClassSet(z.shape[0] - 1)
    return ProbabilityMap(GridShape(z.shape[1:]), classes, s.reshape(z.shape[0], -1))


def softmax_backward(s: ProbabilityMap, dL_ds: GradientMap) -> np.ndarray:
    """Pull a loss gradient back through the softmax.

    dL/dz(i,j) = s(i,j) * (dL/ds(i,j) - sum_k dL/ds(i,k) s(i,k)); returns an
    array shaped (classes.total, *dims) ready for backward().
    """
    if s.shape != dL_ds.shape or s.classes != dL_ds.classes:
        raise ShapeMismatchError("probabilities and upstream gradient live on different grids")
    g = dL_ds.values
    sv = s.values
    dot = (g * sv).sum(axis=0, keepdims=True)
    dz = sv * (g - dot)
    return dz.reshape(s.classes.total, *s.shape.dims)


def _col2im(dcols: np.ndarray, x_shape: tuple[int, int, int], kh: int, kw: int) -> np.ndarray:
    in_ch, height, width = x_shape
    pad = kh // 2
    d = dcols.reshape(in_ch, kh, kw, height, width)
    dxp = np.zeros((in_ch, height + 2 * pad, width + 2 * pad))
    for u in range(kh):
        for v in range(kw):
            dxp[:, u : u + height, v : v + width] += d[:, u, v]
    return dxp[:, pad : pad + height, pad : pad + width] if pad else dxp


def backward(net: SegNet, cache: ForwardCache, dL_dz: np.ndarray) -> np.ndarray:
    """Backpropagate dL/dlogits to a flat parameter gradient.

    The cache must come from a forward() call on this net with the current
    parameters; anything else raises StaleCacheError.
    """
    if cache.net_id != id(net):
        raise StaleCacheError("cache was produced by a different net instance")
    if cache.params_version != net.params_version:
        raise StaleCacheError(
            f"cache is stale: parameters changed since forward "
            f"(version {cache.params_version} vs {net.params_version})"
        )
    upstream = np.asarray(dL_dz, dtype=np.float64)
    expected = cache.layers[-1].pre.shape
    if upstream.shape != expected:
        raise ShapeMismatchError(f"upstream gradient shape {upstream.shape} != logits {expected}")

    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(net.layers)  # type: ignore[list-item]
    for li in reversed(range(len(net.layers))):
        layer = net.layers[li]
        lc = cache.layers[li]
        if layer.relu:
            upstream = upstream * (lc.pre > 0.0)
        out_ch, _, kh, kw = layer.kernels.shape
        dflat = upstream.reshape(out_ch, -1)  # (out_ch, H*W)
        dkernels = (dflat @ lc.cols.T).reshape(layer.kernels.shape)
        dbiases = dflat.sum(axis=1)
        grads[li] = (dkernels, dbiases)
        if li > 0:
            dcols = layer.kernels.reshape(out_ch, -1).T @ dflat
            upstream = _col2im(dcols, lc.input_shape, kh, kw)
    return np.concatenate([np.concatenate([dk.ravel(), db.ravel()]) for dk, db in grads])


def save_checkpoint(
    path: str | Path,
    net: SegNet,
    *,
    epoch: int,
    best_val_dsc: float | None = None,
    config: dict | None = None,
) -> Path:
    """Write the documented JSON-header + float64-block checkpoint file."""
    header = {
        "format": CHECKPOINT_FORMAT,
        "hidden_channels": net.hidden,
        "in_channels": 1,
        "classes_total": net.classes.total,
        "seed": net.seed,
        "epoch": int(epoch),
        "param_count": net.param_count,
        "dtype": "<f8",
        "best_val_dsc": best_val_dsc,
        "config": config,
    }
    path = Path(path)
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        f.write(net.get_params().astype("<f8").tobytes())
    return path


def load_checkpoint(path: str | Path) -> tuple[SegNet, dict]:
    """Rebuild a SegNet from a checkpoint file; returns (net, header).

    A malformed header or a short parameter block raises ValidationError.
    """
    with open(path, "rb") as f:
        try:
            header = json.loads(f.readline().decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
            raise ValidationError(f"unreadable checkpoint header in {path}: {exc}") from exc
        if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
            raise ValidationError(f"unrecognized checkpoint format in {path}")
        for key, least in _HEADER_INT_MIN.items():
            value = header.get(key)
            if type(value) is not int or value < least:
                raise ValidationError(f"{path}: checkpoint {key} must be an int >= {least}, not {value!r}")
        block = f.read(header["param_count"] * 8)
    if len(block) != header["param_count"] * 8:
        raise ValidationError(f"truncated parameter block in {path}")
    theta = np.frombuffer(block, dtype="<f8")
    net = SegNet(
        ClassSet(header["classes_total"] - 1),
        seed=header["seed"],
        hidden=header["hidden_channels"],
    )
    net.set_params(theta.astype(np.float64))
    return net, header

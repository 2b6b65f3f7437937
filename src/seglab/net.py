"""A compact convolutional segmenter with explicit forward and backward passes.

Architecture: Conv3x3(1 -> 8) + ReLU, Conv3x3(8 -> 8) + ReLU,
Conv1x1(8 -> |classes|), all with same-size zero padding so the pixel grid
never changes.  _layer_shapes states it once, as one (out_ch, in_ch, k) row
per layer over HIDDEN = 8 channels; SegNet builds its layers from that table
and load_checkpoint checks a header's param_count against it.  Every layer but
the 1x1 head is followed by a ReLU.  The input image is centered (x - 0.5)
before the first layer: intensities live in [0, 1], and feeding all-positive
patches into ReLU stacks makes half the units dead on arrival and unit death
nearly absorbing.  The parameter vector theta concatenates every layer's
kernels then biases, in layer order.  Kernels are He-normal initialized from a
seeded generator; biases start at zero.  The ReLU subgradient at 0 is 0.

Convolution layout: a k x k layer (pad = k // 2) zero-pads its (C, H, W)
input to rows of width wp = W + 2*pad and flattens each channel.  On that flat
grid, tap (u, v) of the whole output is one contiguous slice
[u*wp + v, u*wp + v + span), span = (H - 1)*wp + W: H rows of W entries with
2*pad junk entries between consecutive rows (_tap_layout).  forward runs one
GEMM (out, C) @ (C, span) per tap and adds the products into one
(out, H*wp) buffer, whose (out, H, W) interior is the pre-activation; a 1x1
layer is the one-tap case.  Only the first layer, with one input channel,
copies its k*k tap windows into a k*k-row im2col matrix and runs one GEMM,
because per tap its GEMMs would be outer products.  backward zero-pads the
upstream gradient to width wp, so its junk entries are zero; each tap's kernel
gradient is then one GEMM with that tap's slice of the cached input, and each
tap's input gradient is added back onto the flat grid with one contiguous
slice add.  The cache keeps each layer's padded, flattened input and its
pre-activation.  forward writes the centered image, and each ReLU output,
straight into the interior of the next layer's padded input.  At 64x64 a
warm forward peaks at about 1.3 MB: the padded 8-channel input is 279 KB, and
the 8 -> 8 layer adds its 270 KB output buffer and one 270 KB product
temporary.

Memory ownership: a SegNet owns one flat parameter vector theta, and each
layer's kernels and biases are views into it, so set_params is one in-place
copy that every layer sees.  get_params returns a copy.  Every other array
forward and backward use is allocated by that call, so a later forward never
changes an earlier cache or its logits, backward may run on any cache that is
still current, and each backward returns a new flat gradient, filled layer by
layer through param_slices.  At 64x64 each 8-channel array is above glibc's
default 128 KB mmap threshold, so SegNet.__init__ keeps freed blocks in the
process heap (_keep_freed_memory) rather than let every forward map and fault
them in again; every path that runs forward builds a net first.

Checkpoint format (single file):
  line 1   UTF-8 JSON header terminated by '\\n' with keys
           format, hidden_channels, in_channels, classes_total, seed, epoch,
           param_count, dtype ("<f8"), best_val_dsc, config
  payload  param_count raw little-endian float64 values in theta order
"""
from __future__ import annotations

import ctypes
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ShapeMismatchError, StaleCacheError, ValidationError
from .grid import ClassSet, GradientMap, GridShape, ProbabilityMap
from .imgio import write_atomic

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

# Channels of the two hidden layers.
HIDDEN = 8

_HEADER_INT_MIN = {"param_count": 1, "classes_total": 2, "seed": 0}
# Header fields that have one valid value: the block is little-endian float64
# and the net reads single-channel images through HIDDEN-channel layers.
_HEADER_CONSTANTS = {"dtype": "<f8", "in_channels": 1, "hidden_channels": HIDDEN}

# Subtracted from input images before the first convolution.
INPUT_CENTER = 0.5

# mallopt parameter numbers from glibc's malloc.h.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Stop glibc from handing freed conv and probe buffers back to the kernel.

    At 64x64 forward and backward allocate and free a few dozen arrays of
    130-300 KB, each above glibc's default 128 KB mmap threshold.  With the
    adaptive defaults, a freed mapped block raises the mmap threshold only to
    its own size, and whether a free trims the heap top depends on the heap
    layout, so a process may fault that memory back in on every call.  Without
    this call a warm 64x64 forward took 0-373 minor faults, as the layout fell,
    and a 128x128 one about 1,190; 2 acdc_like epochs (500 train, 50 val,
    20 test) took 759k, and a warm audit 9.8k.  With it, they took 0, 0, 6.3k
    and 3.  Serving blocks up to 32 MB from the heap and trimming only past
    128 MB of free top space keeps the memory mapped.  A no-op without mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 128 << 20)


def _layer_shapes(classes_total: int) -> list[tuple[int, int, int]]:
    """(out_ch, in_ch, k) of each k x k layer, input first: the whole architecture."""
    return [(HIDDEN, 1, 3), (HIDDEN, HIDDEN, 3), (classes_total, HIDDEN, 1)]


def _param_count(classes_total: int) -> int:
    return sum(out_ch * (in_ch * k * k + 1) for out_ch, in_ch, k in _layer_shapes(classes_total))


@dataclass(eq=False)
class ConvLayer:
    """Same-padded 2-D convolution; views into the net's theta."""

    kernels: np.ndarray  # (out_ch, in_ch, k, k)
    biases: np.ndarray  # (out_ch,)


class SegNet:
    """Three-layer convolutional segmenter over single-channel 2-D images."""

    def __init__(self, classes: ClassSet, seed: int):
        _keep_freed_memory()
        rng = np.random.default_rng(seed)
        self.classes = classes
        self.seed = int(seed)
        self.params_version = 0
        self.param_count = _param_count(classes.total)
        self.theta = np.zeros(self.param_count)
        self.layers: list[ConvLayer] = []
        self.param_slices: list[tuple[slice, slice]] = []
        offset = 0
        for out_ch, in_ch, k in _layer_shapes(classes.total):
            ks = slice(offset, offset + out_ch * in_ch * k * k)
            bs = slice(ks.stop, ks.stop + out_ch)
            offset = bs.stop
            kernels = self.theta[ks].reshape(out_ch, in_ch, k, k)
            kernels[...] = rng.normal(0.0, np.sqrt(2.0 / kernels[0].size), size=kernels.shape)
            self.layers.append(ConvLayer(kernels=kernels, biases=self.theta[bs]))
            self.param_slices.append((ks, bs))

    def get_params(self) -> np.ndarray:
        """A copy of theta: all kernels and biases in layer order."""
        return self.theta.copy()

    def set_params(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.param_count,):
            raise ShapeMismatchError(
                f"parameter vector has shape {theta.shape}, expected ({self.param_count},)"
            )
        self.theta[...] = theta
        self.params_version += 1


@dataclass(eq=False)
class _LayerCache:
    padded: np.ndarray  # input zero-padded by k // 2 and flattened, (in_ch, (H + 2*pad) * (W + 2*pad))
    pre: np.ndarray  # pre-activation, (out_ch, H, W); for a tap layer a view of its (out_ch, H * wp) buffer


@dataclass(eq=False)
class ForwardCache:
    net_id: int
    params_version: int
    layers: list[_LayerCache]


def _padded_input(layer: ConvLayer, height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """A fresh zero grid for the layer's input, (in_ch, H + 2*pad, W + 2*pad), and its interior view."""
    in_ch, k = layer.kernels.shape[1], layer.kernels.shape[2]
    pad = k // 2
    grid = np.zeros((in_ch, height + 2 * pad, width + 2 * pad))
    return grid, grid[:, pad : pad + height, pad : pad + width]


def _tap_layout(k: int, height: int, width: int) -> tuple[int, int, list[int]]:
    """Row width wp of a k x k layer's padded flat grid, the span of one tap slice, and each tap's offset u*wp + v."""
    wp = width + 2 * (k // 2)
    return wp, (height - 1) * wp + width, [u * wp + v for u in range(k) for v in range(k)]


def _conv_forward(layer: ConvLayer, grid: np.ndarray) -> np.ndarray:
    """Pre-activation (out_ch, H, W) of a layer over its zero-padded input grid; freshly allocated."""
    out_ch, in_ch, k, _ = layer.kernels.shape
    height, width = grid.shape[1] - k + 1, grid.shape[2] - k + 1
    if in_ch == 1 and k > 1:
        # As taps, each GEMM would be a K=1 outer product; one GEMM over k*k rows is far faster.
        cols = np.empty((k, k, height, width))
        for u in range(k):
            for v in range(k):
                cols[u, v] = grid[0, u : u + height, v : v + width]
        pre = (layer.kernels.reshape(out_ch, -1) @ cols.reshape(k * k, -1)).reshape(out_ch, height, width)
    else:
        wp, span, offsets = _tap_layout(k, height, width)
        flat = grid.reshape(in_ch, -1)
        taps = layer.kernels.transpose(2, 3, 0, 1).reshape(k * k, out_ch, in_ch)
        buf = np.empty((out_ch, height * wp))
        acc = buf[:, :span]
        np.matmul(taps[0], flat[:, :span], out=acc)
        if k > 1:
            product = np.empty((out_ch, span))
            for tap, o in zip(taps[1:], offsets[1:]):
                np.matmul(tap, flat[:, o : o + span], out=product)
                acc += product
        pre = buf.reshape(out_ch, height, wp)[:, :, :width]
    pre += layer.biases[:, None, None]
    return pre


def forward(net: SegNet, image: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run the net on a single-channel image; returns (logits, cache).

    Logits have shape (classes.total, H, W); the cache feeds backward().
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-D single-channel image, got shape {image.shape}")
    height, width = image.shape
    grid, interior = _padded_input(net.layers[0], height, width)
    np.subtract(image, INPUT_CENTER, out=interior[0])
    caches = []
    for i, layer in enumerate(net.layers):
        pre = _conv_forward(layer, grid)
        caches.append(_LayerCache(padded=grid.reshape(grid.shape[0], -1), pre=pre))
        if i + 1 < len(net.layers):
            # Each ReLU output is written straight into the next layer's padded input.
            grid, interior = _padded_input(net.layers[i + 1], height, width)
            np.maximum(pre, 0.0, out=interior)
    return pre, ForwardCache(net_id=id(net), params_version=net.params_version, layers=caches)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over axis 0 of a raw logit array, with the max shift; a new array shaped like z."""
    s = z - z.max(axis=0, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=0, keepdims=True)
    return s


def _softmax_backward(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """s * (g - sum_k g s) over axis 0 of raw arrays; a new array shaped like s."""
    dz = g * s
    np.subtract(g, dz.sum(axis=0, keepdims=True), out=dz)
    dz *= s
    return dz


def softmax(logits: np.ndarray) -> ProbabilityMap:
    """Per-pixel softmax over the class axis with the usual max shift."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim < 2:
        raise ShapeMismatchError(f"logits need a class axis plus grid axes, got shape {z.shape}")
    classes = ClassSet(z.shape[0] - 1)
    return ProbabilityMap(GridShape(z.shape[1:]), classes, _softmax(z.reshape(z.shape[0], -1)))


def softmax_backward(s: ProbabilityMap, dL_ds: GradientMap) -> np.ndarray:
    """Pull a loss gradient back through the softmax.

    dL/dz(i,j) = s(i,j) * (dL/ds(i,j) - sum_k dL/ds(i,k) s(i,k)); returns an
    array shaped (classes.total, *dims) ready for backward().
    """
    if s.shape != dL_ds.shape or s.classes != dL_ds.classes:
        raise ShapeMismatchError("probabilities and upstream gradient live on different grids")
    return _softmax_backward(s.values, dL_ds.values).reshape(s.classes.total, *s.shape.dims)


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

    grad = np.empty(net.param_count)
    for li in reversed(range(len(net.layers))):
        layer = net.layers[li]
        lc = cache.layers[li]
        ks, bs = net.param_slices[li]
        out_ch, in_ch, k, _ = layer.kernels.shape
        _, height, width = lc.pre.shape
        pad = k // 2
        wp, span, offsets = _tap_layout(k, height, width)
        d = np.zeros((out_ch, height * wp))
        interior = d.reshape(out_ch, height, wp)[:, :, :width]
        if li + 1 < len(net.layers):
            np.multiply(upstream, lc.pre > 0.0, out=interior)  # through the ReLU
        else:
            interior[...] = upstream
        d = d[:, :span]  # the zero junk columns between rows add nothing below
        kernels = layer.kernels.reshape(out_ch, in_ch, k * k)
        dkernels = grad[ks].reshape(kernels.shape)
        dx = np.zeros_like(lc.padded)
        for t, o in enumerate(offsets):
            dkernels[:, :, t] = d @ lc.padded[:, o : o + span].T
            if li > 0:
                dx[:, o : o + span] += kernels[:, :, t].T @ d
        d.sum(axis=1, out=grad[bs])
        upstream = dx.reshape(in_ch, height + 2 * pad, wp)[:, pad : pad + height, pad : pad + width]
    return grad


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
        "classes_total": net.classes.total,
        "seed": net.seed,
        "epoch": int(epoch),
        "param_count": net.param_count,
        "best_val_dsc": best_val_dsc,
        "config": config,
        **_HEADER_CONSTANTS,
    }
    block = net.theta.astype("<f8").tobytes()
    return write_atomic(path, json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + block)


def load_checkpoint(path: str | Path) -> tuple[SegNet, dict]:
    """Rebuild a SegNet from a checkpoint file; returns (net, header).

    A malformed header, a dtype other than "<f8", an in_channels other than 1,
    a hidden_channels other than HIDDEN, a param_count other than the one
    classes_total implies, or a parameter block of any other length raises
    ValidationError before the block is read or a net is built; a block
    holding a non-finite value raises it before a net is built.
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
        for key, want in _HEADER_CONSTANTS.items():
            value = header.get(key)
            if type(value) is not type(want) or value != want:
                raise ValidationError(f"{path}: checkpoint {key} must be {want!r}, not {value!r}")
        total = header["classes_total"]
        implied = _param_count(total)
        if header["param_count"] != implied:
            raise ValidationError(
                f"{path}: checkpoint param_count {header['param_count']} does not match the {implied} "
                f"parameters of classes_total {total}"
            )
        size = implied * 8
        if os.fstat(f.fileno()).st_size - f.tell() != size:
            raise ValidationError(f"{path}: parameter block is not the {size} bytes param_count implies")
        params = np.frombuffer(f.read(size), dtype="<f8")
    if not np.isfinite(params).all():
        raise ValidationError(f"{path}: checkpoint parameters must be finite")
    net = SegNet(ClassSet(total - 1), seed=header["seed"])
    net.set_params(params)
    return net, header

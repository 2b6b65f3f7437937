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

Convolution layout: every layer reads one zero-bordered flat grid per image
shape.  A (C, H, W) activation lives in a (C, (H + 2) * wp) grid, wp = W + 2,
whose rows 0 and H + 1 and columns 0 and wp - 1 are zero.  On that grid, tap
(u, v) of a 3x3 layer's whole output is one contiguous slice
[u*wp + v, u*wp + v + span), span = (H - 1)*wp + W: H rows of W entries with
two junk entries between consecutive rows (_tap_layout).  Output entry j lands
on grid entry j + wp + 1, so a layer's output is the window
[wp + 1, wp + 1 + span) of the next grid, and its two junk entries per row
fall exactly on that grid's left and right pad columns.  The 8 -> 8 layer runs
one GEMM (out, C) @ (C, span) per tap and adds the products straight into that
window (_tap_conv); each hidden layer then adds its bias and applies its ReLU
in place on the window, and zeroing the pad rows and columns finishes the next
grid (_zero_border).  The 1 -> 8 layer, with one input channel, stacks its 9
tap slices into one (9, span) tap-row matrix and runs one GEMM, because per
tap its GEMMs would be outer products.  The 1x1 head reads the last grid's
window with one GEMM.  The cache holds each layer's input as its GEMM reads
it: the tap-row matrix and the two 8-channel grids, with the image's (H, W).

backward keeps each layer's output gradient in the same window layout, zero
in its junk entries: the head's in a (classes, H*wp) buffer, the 8 -> 8
layer's in the window of a zero-bordered gradient grid.  A ReLU mask is read
from the next grid's window, since relu(x) > 0 exactly where x > 0, and its
zero pad columns zero the junk entries.  Each tap's kernel gradient is one
GEMM of that gradient with the tap's slice of the cached input; the 1 -> 8
layer's is one GEMM with its tap-row matrix.  The 8 -> 8 layer's input
gradient at window entry j sums kernel tap t times the gradient grid at
j + 2*(wp + 1) - o_t, and 2*(wp + 1) - (u*wp + v) = (2 - u)*wp + (2 - v) is the
offset of tap (2 - u, 2 - v).  So it is the forward tap routine run over the
gradient grid with the kernel flipped and its channel axes swapped.  At 64x64
a warm forward peaks at about 1.17 MB: the 304 KB tap-row matrix, two 279 KB
grids and one 270 KB product temporary.  A warm dice training step peaks at
about 2.2 MB.

Memory ownership: a SegNet owns one flat parameter vector theta, and each
layer's kernels and biases are views into it, so set_params is one in-place
copy that every layer sees.  get_params returns a copy.  Every other array
forward and backward use is allocated by that call, so a later forward never
changes an earlier cache or its logits, backward may run on any cache that is
still current, and each backward returns a new flat gradient, filled layer by
layer through param_slices.  At 64x64 each 8-channel array, such as a 279 KB
grid, is above glibc's default 128 KB mmap threshold, so SegNet.__init__ keeps freed blocks in the
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
class ForwardCache:
    net_id: int
    params_version: int
    dims: tuple[int, int]  # (H, W) of the image
    # Each layer's input as its GEMM reads it: the 1 -> 8 layer's (9, span)
    # tap-row matrix, then the two (HIDDEN, (H + 2) * (W + 2)) grids.
    inputs: list[np.ndarray]


def _tap_layout(height: int, width: int) -> tuple[int, int, list[int]]:
    """Row width wp of a padded flat grid, the span of one tap slice, and each 3x3 tap's offset u*wp + v."""
    wp = width + 2
    return wp, (height - 1) * wp + width, [u * wp + v for u in range(3) for v in range(3)]


def _taps(kernels: np.ndarray) -> np.ndarray:
    """(out, in, 3, 3) kernels as 9 (out, in) tap matrices in (u, v) order."""
    return kernels.transpose(2, 3, 0, 1).reshape(9, *kernels.shape[:2])


def _tap_conv(taps: np.ndarray, offsets: list[int], grid: np.ndarray, out: np.ndarray) -> None:
    """out = sum over t of taps[t] @ grid[:, offsets[t] : offsets[t] + span], span = out.shape[1]."""
    span = out.shape[1]
    np.matmul(taps[0], grid[:, offsets[0] : offsets[0] + span], out=out)
    product = np.empty(out.shape)
    for tap, o in zip(taps[1:], offsets[1:]):
        np.matmul(tap, grid[:, o : o + span], out=product)
        out += product


def _zero_border(grid: np.ndarray, wp: int) -> None:
    """Zero the pad rows and pad columns of a (C, (H + 2) * wp) flat grid."""
    rows = grid.reshape(grid.shape[0], -1, wp)
    rows[:, 0] = 0.0
    rows[:, -1] = 0.0
    rows[:, :, 0] = 0.0
    rows[:, :, -1] = 0.0


def _finish_hidden(out: np.ndarray, biases: np.ndarray, wp: int, window: slice) -> None:
    """Finish a hidden layer's output grid whose window holds the conv sums: bias, ReLU, zero border."""
    pre = out[:, window]
    pre += biases[:, None]
    np.maximum(pre, 0.0, out=pre)
    _zero_border(out, wp)


def forward(net: SegNet, image: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run the net on a single-channel image; returns (logits, cache).

    Logits have shape (classes.total, H, W); the cache feeds backward().  An
    image with no pixels raises ShapeMismatchError.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2 or image.size == 0:
        raise ShapeMismatchError(f"expected a non-empty 2-D single-channel image, got shape {image.shape}")
    height, width = image.shape
    wp, span, offsets = _tap_layout(height, width)
    window = slice(wp + 1, wp + 1 + span)
    size = (height + 2) * wp
    first, middle, head = net.layers
    grid = np.zeros((height + 2, wp))
    np.subtract(image, INPUT_CENTER, out=grid[1:-1, 1:-1])
    # With one input channel, per-tap GEMMs would be outer products: stack the taps into one GEMM.
    cols = np.stack([grid.reshape(-1)[o : o + span] for o in offsets])
    grid1 = np.empty((HIDDEN, size))
    np.matmul(first.kernels.reshape(HIDDEN, 9), cols, out=grid1[:, window])
    _finish_hidden(grid1, first.biases, wp, window)
    grid2 = np.empty((HIDDEN, size))
    _tap_conv(_taps(middle.kernels), offsets, grid1, grid2[:, window])
    _finish_hidden(grid2, middle.biases, wp, window)
    total = head.biases.size
    buf = np.empty((total, height * wp))
    pre = buf[:, :span]
    np.matmul(head.kernels.reshape(total, HIDDEN), grid2[:, window], out=pre)
    pre += head.biases[:, None]
    logits = buf.reshape(total, height, wp)[:, :, :width].copy()
    return logits, ForwardCache(id(net), net.params_version, (height, width), [cols, grid1, grid2])


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over axis 0 of a raw logit array, with the max shift; a new array shaped like z."""
    # a shift that overflows gives -inf, whose exp is the right value, 0
    with np.errstate(over="ignore"):
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
    height, width = cache.dims
    total = net.classes.total
    if upstream.shape != (total, height, width):
        raise ShapeMismatchError(f"upstream gradient shape {upstream.shape} != logits {(total, height, width)}")
    wp, span, offsets = _tap_layout(height, width)
    window = slice(wp + 1, wp + 1 + span)
    cols, grid1, grid2 = cache.inputs
    _, middle, head = net.layers
    (k0, b0), (k1, b1), (k2, b2) = net.param_slices
    grad = np.empty(net.param_count)

    # The head: the upstream gradient on the window layout, zero in its junk entries.
    dz = np.empty((total, height * wp))
    rows = dz.reshape(total, height, wp)
    rows[:, :, :width] = upstream
    rows[:, :, width:] = 0.0
    dz = dz[:, :span]
    np.matmul(dz, grid2[:, window].T, out=grad[k2].reshape(total, HIDDEN))
    dz.sum(axis=1, out=grad[b2])

    # The 8 -> 8 layer: its output gradient in the window of a zero-bordered grid.
    dgrid = np.empty(grid2.shape)
    d = dgrid[:, window]
    np.matmul(head.kernels.reshape(total, HIDDEN).T, dz, out=d)
    d *= grid2[:, window] > 0.0  # through the ReLU; the junk entries read zero pad columns
    _zero_border(dgrid, wp)
    dkernels = grad[k1].reshape(HIDDEN, HIDDEN, 9)
    for t, o in enumerate(offsets):
        dkernels[:, :, t] = d @ grid1[:, o : o + span].T
    d.sum(axis=1, out=grad[b1])
    # Its input gradient is the forward tap routine with the kernel flipped and
    # its channel axes swapped: output j reads dgrid at 2*(wp + 1) - o_t = o_flip(t).
    d = np.empty((HIDDEN, span))
    _tap_conv(_taps(middle.kernels[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)), offsets, dgrid, d)
    d *= grid1[:, window] > 0.0

    # The 1 -> 8 layer: one GEMM with its cached tap rows.
    np.matmul(d, cols.T, out=grad[k0].reshape(HIDDEN, 9))
    d.sum(axis=1, out=grad[b0])
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

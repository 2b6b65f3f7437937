"""Host-speed probe: a fixed kernel that does not use seglab.

The benchmark runs on shared machines whose speed drifts by tens of percent
over seconds to minutes, in stretches longer than one run.  run_bench.py times
this kernel just before and just after every unit call and scales the call's
rate by it, so that the rate follows the program and not the host.

The kernel mixes the three kinds of work seglab's calls do: GEMMs and
element-wise passes over 4096-pixel planes (the net and the per-image
metrics), an interpreter loop (the runner glue), and many numpy calls on
arrays of 64 elements (the finite-difference oracle).  Its inputs are fixed,
so its time depends only on the host.

It runs in the benchmark's own process, so its GEMM shares the BLAS thread
pool with seglab's: a probe in a separate process met the benchmark's BLAS
threads still spinning after a call and read up to six times slower.  A change
that resets the BLAS thread count at run time therefore moves the probe too,
through the GEMM, which is about a tenth of the kernel's time.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

_rng = np.random.default_rng(0)
_WEIGHTS = _rng.standard_normal((8, 72))
_COLUMNS = _rng.standard_normal((72, 4096))
_LOGITS = _rng.standard_normal((4, 4096))
_SMALL = np.linspace(0.05, 0.95, 64)

# A typical time of the kernel on the 2-vCPU Xeon host the benchmark was
# tuned on.  A scaled rate is the rate a call would reach on a host where the
# kernel takes this long.
REFERENCE_SECONDS = 0.025


def kernel_seconds() -> float:
    """Wall time of one pass of the fixed kernel."""
    t0 = perf_counter()
    for _ in range(20):
        z = _WEIGHTS @ _COLUMNS
        e = np.exp(_LOGITS - _LOGITS.max(axis=0))
        e /= e.sum(axis=0)
        z[z < 0] = 0
    counts: dict[int, int] = {}
    for i in range(30_000):
        counts[i & 255] = counts.get(i & 255, 0) + i
    acc = 0.0
    for i in range(1500):
        w = _SMALL * (1.0 + 1e-3 * (i & 7))
        acc += float(np.sum(w * w) / (np.sum(w) + 1e-7))
    return perf_counter() - t0

"""Calibrated seconds: timings divided by a fixed kernel timed next to them.

On a host whose cores are shared, the same operation can take twice as
long from one second to the next, and the swing comes from the host, not
from the program (process CPU time tracks wall time through it).  Each
operation is therefore bracketed by runs of a fixed kernel, and its wall
time is reported as

    calibrated = wall * NOMINAL_KERNEL_S / (mean of the two kernel times)

The kernel uses numpy, scipy and json only, never ``hdq``, so no change
to the program can move the yardstick.  Its mix is the one ``hdq`` spends
its time in: small ``einsum`` contractions, ``eigvals``, ``pinv`` and
``expm`` on 10x10 to 12x12 matrices, driven from Python loops, plus a
little JSON.  Against a kernel of ``eigvals`` and ``einsum`` alone, the
mixed kernel roughly halved the run-to-run spread of the calibrated
``polydisc-tower`` figures.
"""

from __future__ import annotations

import json
import time

import numpy as np
from scipy.linalg import expm

# Wall time of one kernel run on an idle 2-core x86-64 VM; only a scale.
NOMINAL_KERNEL_S = 0.040

_rng = np.random.default_rng(20080327)
_SMALL = [_rng.standard_normal((10, 10)) for _ in range(4)]
_SQUARES = [0.3 * _rng.standard_normal((12, 12)) for _ in range(4)]
_TENSOR = _rng.standard_normal((12, 12, 12))
_VECTORS = _rng.standard_normal((8, 12))


def kernel() -> float:
    acc = 0.0
    for i in range(340):
        acc += float(np.linalg.eigvals(_SMALL[i % 4]).real.sum())
        for j in range(4):
            acc += float(np.einsum("i,j,ijk->k", _VECTORS[j], _VECTORS[j + 4], _TENSOR)[0])
    for i in range(60):
        A = _SQUARES[i % 4]
        acc += float(np.linalg.eigvals(A).real.sum())
        acc += float(np.linalg.pinv(A)[0, 0]) + float(expm(A)[0, 0])
        for j in range(8):
            acc += float(np.linalg.norm(np.einsum("i,j,ijk->k", _VECTORS[j], _VECTORS[(j + 3) % 8], _TENSOR)))
        x = np.concatenate([_VECTORS[i % 8], np.zeros(4)])
        acc += len(json.dumps([{"z": [float(v) for v in x[:6]], "w": float(x[6])}] * 3))
    return acc


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """Multiplier turning wall seconds measured between two kernel runs
    into calibrated seconds."""
    return NOMINAL_KERNEL_S / (0.5 * (before + after))

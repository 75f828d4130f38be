"""Kernels of the Duhamel oracle: periodic circulant convolution and Lagrange weights.

The circulant convolution stays on vectorized numpy/BLAS on purpose:
measured on desk-scale grids, BLAS beats a jitted loop (see
``benchmarks/bench_kernels.py``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


# ---------------------------------------------------------------------------
# periodic circulant convolution along one axis (vectorized numpy by design)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _circulant_indices(n: int) -> np.ndarray:
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    idx.flags.writeable = False
    return idx


def _circulant_np(row: np.ndarray, arr: np.ndarray) -> np.ndarray:
    return row[_circulant_indices(row.shape[0])] @ arr


def circulant_apply(row: np.ndarray, arr: np.ndarray, axis: int = 0) -> np.ndarray:
    """Convolve ``arr`` with the periodic stencil ``row`` along ``axis``.

    ``out[j] = sum_l row[(j - l) % N] * arr[l]`` taken along the given axis.
    """
    row = np.ascontiguousarray(row, dtype=np.float64)
    moved = np.moveaxis(np.asarray(arr, dtype=np.float64), axis, 0)
    shape = moved.shape
    flat = np.ascontiguousarray(moved.reshape(shape[0], -1))
    out = _circulant_np(row, flat)
    return np.moveaxis(out.reshape(shape), 0, axis)


def _lagrange4_weights(frac: np.ndarray):
    """Cubic Lagrange weights of the nodes ``-1, 0, 1, 2`` at the offsets ``frac``."""
    w0 = -frac * (frac - 1.0) * (frac - 2.0) / 6.0
    w1 = (frac + 1.0) * (frac - 1.0) * (frac - 2.0) / 2.0
    w2 = -(frac + 1.0) * frac * (frac - 2.0) / 2.0
    w3 = (frac + 1.0) * frac * (frac - 1.0) / 6.0
    return w0, w1, w2, w3

"""Hot numeric kernels: periodic circulant convolution and scattered gathers.

The cubic Lagrange gathers in 1-2 axes carry numba ``@njit`` implementations
with pure-numpy fallbacks; selection happens once at import via
:mod:`polarflow._accel` and the ``POLARFLOW_DISABLE_NUMBA`` flag, and both
paths agree to roundoff.  The circulant convolution stays on vectorized
numpy/BLAS on purpose: measured on desk-scale grids, BLAS beats a jitted loop.
The trigonometric gather is a pure-numpy type-2 non-uniform FFT on any number
of axes, accurate to ~1e-14 against the direct Fourier sum (see
``benchmarks/bench_kernels.py`` for timings of both against their references).

Positions for the cubic gather are expressed in grid units: a point ``u``
lives in ``[0, N)`` with node ``j`` at ``u == j``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ._accel import USE_NUMBA, njit, prange


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


# ---------------------------------------------------------------------------
# periodic 4-point (cubic Lagrange) gather
# ---------------------------------------------------------------------------


def _lagrange4_weights(frac: np.ndarray):
    w0 = -frac * (frac - 1.0) * (frac - 2.0) / 6.0
    w1 = (frac + 1.0) * (frac - 1.0) * (frac - 2.0) / 2.0
    w2 = -(frac + 1.0) * frac * (frac - 2.0) / 2.0
    w3 = (frac + 1.0) * frac * (frac - 1.0) / 6.0
    return w0, w1, w2, w3


def _cubic_gather_1d_np(values: np.ndarray, u: np.ndarray) -> np.ndarray:
    n = values.shape[0]
    j = np.floor(u).astype(np.int64)
    frac = u - j
    w0, w1, w2, w3 = _lagrange4_weights(frac)
    return (
        w0 * values[(j - 1) % n]
        + w1 * values[j % n]
        + w2 * values[(j + 1) % n]
        + w3 * values[(j + 2) % n]
    )


@njit(cache=True)
def _cubic_gather_1d_nb(values, u):  # pragma: no cover - via dispatcher
    n = values.shape[0]
    out = np.empty(u.shape[0])
    for p in range(u.shape[0]):
        j = int(np.floor(u[p]))
        f = u[p] - j
        w0 = -f * (f - 1.0) * (f - 2.0) / 6.0
        w1 = (f + 1.0) * (f - 1.0) * (f - 2.0) / 2.0
        w2 = -(f + 1.0) * f * (f - 2.0) / 2.0
        w3 = (f + 1.0) * f * (f - 1.0) / 6.0
        out[p] = (
            w0 * values[(j - 1) % n]
            + w1 * values[j % n]
            + w2 * values[(j + 1) % n]
            + w3 * values[(j + 2) % n]
        )
    return out


def _cubic_gather_2d_np(values: np.ndarray, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    n1, n2 = values.shape
    j1 = np.floor(u1).astype(np.int64)
    j2 = np.floor(u2).astype(np.int64)
    wa = _lagrange4_weights(u1 - j1)
    wb = _lagrange4_weights(u2 - j2)
    out = np.zeros(u1.shape[0])
    for a in range(4):
        ia = (j1 + a - 1) % n1
        for b in range(4):
            ib = (j2 + b - 1) % n2
            out += wa[a] * wb[b] * values[ia, ib]
    return out


@njit(cache=True, parallel=True)
def _cubic_gather_2d_nb(values, u1, u2):  # pragma: no cover - via dispatcher
    n1, n2 = values.shape
    out = np.empty(u1.shape[0])
    for p in prange(u1.shape[0]):
        j1 = int(np.floor(u1[p]))
        j2 = int(np.floor(u2[p]))
        f1 = u1[p] - j1
        f2 = u2[p] - j2
        wa0 = -f1 * (f1 - 1.0) * (f1 - 2.0) / 6.0
        wa1 = (f1 + 1.0) * (f1 - 1.0) * (f1 - 2.0) / 2.0
        wa2 = -(f1 + 1.0) * f1 * (f1 - 2.0) / 2.0
        wa3 = (f1 + 1.0) * f1 * (f1 - 1.0) / 6.0
        wb0 = -f2 * (f2 - 1.0) * (f2 - 2.0) / 6.0
        wb1 = (f2 + 1.0) * (f2 - 1.0) * (f2 - 2.0) / 2.0
        wb2 = -(f2 + 1.0) * f2 * (f2 - 2.0) / 2.0
        wb3 = (f2 + 1.0) * f2 * (f2 - 1.0) / 6.0
        acc = 0.0
        for a in range(4):
            ia = (j1 + a - 1) % n1
            if a == 0:
                wa = wa0
            elif a == 1:
                wa = wa1
            elif a == 2:
                wa = wa2
            else:
                wa = wa3
            acc += wa * (
                wb0 * values[ia, (j2 - 1) % n2]
                + wb1 * values[ia, j2 % n2]
                + wb2 * values[ia, (j2 + 1) % n2]
                + wb3 * values[ia, (j2 + 2) % n2]
            )
        out[p] = acc
    return out


def cubic_gather(values: np.ndarray, units: list[np.ndarray]) -> np.ndarray:
    """Periodic cubic Lagrange interpolation of a gridded field at points.

    ``units[i]`` holds the i-th coordinate of every query point in grid units.
    Supports 1- and 2-axis grids via dedicated kernels and any dimension via a
    generic tensor-product fallback.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        u = np.ascontiguousarray(units[0], dtype=np.float64)
        if USE_NUMBA:
            return _cubic_gather_1d_nb(values, u)
        return _cubic_gather_1d_np(values, u)
    if values.ndim == 2:
        u1 = np.ascontiguousarray(units[0], dtype=np.float64)
        u2 = np.ascontiguousarray(units[1], dtype=np.float64)
        if USE_NUMBA:
            return _cubic_gather_2d_nb(values, u1, u2)
        return _cubic_gather_2d_np(values, u1, u2)
    return _cubic_gather_nd(values, units)


def _cubic_gather_nd(values: np.ndarray, units: list[np.ndarray]) -> np.ndarray:
    shape = values.shape
    base = [np.floor(u).astype(np.int64) for u in units]
    weights = [_lagrange4_weights(u - b) for u, b in zip(units, base)]
    npts = units[0].shape[0]
    out = np.zeros(npts)
    for offsets in np.ndindex(*(4,) * values.ndim):
        w = np.ones(npts)
        idx = []
        for ax, off in enumerate(offsets):
            w = w * weights[ax][off]
            idx.append((base[ax] + off - 1) % shape[ax])
        out += w * values[tuple(idx)]
    return out


# ---------------------------------------------------------------------------
# trigonometric gather: type-2 non-uniform FFT
# ---------------------------------------------------------------------------

# Exponential-of-semicircle ("ES") kernel psi(t) = exp(beta (sqrt(1 - (2t/W)^2) - 1))
# on |t| <= W/2 fine-lattice cells, with the lattice oversampled by _NUFFT_SIGMA
# per axis (Barnett, Magland & af Klinteberg, SISC 41, 2019).  W = 16 keeps 500
# exact-translation steps at N=128 near 4e-14, well inside the 1e-12 the tests
# pin; W = 14 reaches 4e-12 and misses it (error-vs-width table in CHANGES.md).
_NUFFT_SIGMA = 2
_NUFFT_W = 16
_NUFFT_BETA = 2.30 * _NUFFT_W
_NUFFT_QUAD = 4 * _NUFFT_W  # midpoint nodes for the kernel transform


def _es_kernel(t: np.ndarray) -> np.ndarray:
    """Kernel values at offsets ``t`` (lattice cells); overwrites ``t``."""
    t *= 2.0 / _NUFFT_W
    np.square(t, out=t)
    np.subtract(1.0, t, out=t)
    np.maximum(t, 0.0, out=t)
    np.sqrt(t, out=t)
    t -= 1.0
    t *= _NUFFT_BETA
    return np.exp(t, out=t)


@lru_cache(maxsize=16)
def _es_deconvolution(n_fine: int, half: int) -> np.ndarray:
    """``1 / Psi(2 pi k / n_fine)`` for ``k = 0..half``, ``Psi`` the kernel's transform.

    Midpoint rule: the kernel is ~exp(-beta) at its edges, so the rule is
    accurate to that level.
    """
    step = _NUFFT_W / _NUFFT_QUAD
    t = (np.arange(_NUFFT_QUAD) + 0.5) * step - 0.5 * _NUFFT_W
    xi = 2.0 * np.pi / n_fine * np.arange(half + 1)
    out = 1.0 / ((np.cos(np.outer(xi, t)) @ _es_kernel(t.copy())) * step)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=16)
def _axis_plan(n: int) -> tuple[np.ndarray, np.ndarray]:
    """For the ``n`` FFT-layout modes of one axis: deconvolution factors and fine-lattice slots."""
    n_fine = _NUFFT_SIGMA * n
    modes = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(np.int64)
    factor = _es_deconvolution(n_fine, n // 2)[np.abs(modes)]
    slots = modes % n_fine
    factor.flags.writeable = False
    slots.flags.writeable = False
    return factor, slots


_WINDOW = np.arange(_NUFFT_W, dtype=np.float64)
_WINDOW.flags.writeable = False


def trig_gather(amps: np.ndarray, kappas: list[np.ndarray], pts: list[np.ndarray]) -> np.ndarray:
    """Evaluate discrete Fourier representations at scattered points.

    ``amps`` holds the complex coefficients in FFT layout (normalized so the
    zero mode equals the field mean) of *real* fields on an m-axis grid, with
    an optional trailing axis that stacks several fields; ``kappas[i]`` are
    the per-axis wavenumbers ``2 pi k / L_i``, also in FFT layout, and
    ``pts[i]`` the i-th physical coordinates of the query points.  Returns
    ``Re sum_k amps[k] exp(i kappa_k . x)`` with shape ``(points,)`` plus the
    field axis, if any.

    The sum is a type-2 non-uniform FFT (Dutt & Rokhlin 1993; Barnett et al.
    2019): deconvolve by the ES kernel's transform, zero-pad onto a lattice
    oversampled by 2 per axis, inverse FFT, then gather with real kernel
    weights over a window of ``_NUFFT_W`` lattice points per axis.  It agrees
    with the direct sum to ~1e-14 relative to the field's size; each mode,
    the unpaired Nyquist mode included, keeps its wavenumber.  The layout
    fixes every mode's integer index, so the factors and slots are cached per
    axis size; ``kappas[i][1]`` only sets the scale of the points.
    """
    m = len(kappas)
    amps = np.asarray(amps)
    shape = amps.shape[:m]
    n_fields = int(np.prod(amps.shape[m:], dtype=np.int64))
    fine_shape = tuple(_NUFFT_SIGMA * n for n in shape)
    coeffs = amps.reshape(shape + (n_fields,)).astype(np.complex128)

    # per axis: deconvolve, place modes on the fine lattice, and find each
    # point's first window cell and its W kernel weights
    slots, starts, weights = [], [], []
    for ax, (kappa, n_fine) in enumerate(zip(kappas, fine_shape)):
        factor, axis_slots = _axis_plan(shape[ax])
        coeffs = coeffs * factor.reshape((-1,) + (1,) * (m - ax))
        slots.append(axis_slots)
        u = np.ravel(pts[ax]).astype(np.float64) * (float(kappa[1]) * n_fine / (2.0 * np.pi))
        first = np.ceil(u - 0.5 * _NUFFT_W)
        offsets = (first - u)[:, None] + _WINDOW
        starts.append(first.astype(np.int64) % n_fine)
        weights.append(_es_kernel(offsets))

    fine = np.zeros(fine_shape + (n_fields,), dtype=np.complex128)
    fine[np.ix_(*slots)] = coeffs
    lattice = np.fft.ifftn(fine, axes=tuple(range(m)), norm="forward").real
    # Wrap-pad every axis by W - 1, so no window index needs a modulo.  A
    # point's window along the last axis is then W consecutive cells of the
    # flat padded lattice: one read per leading offset fetches every point's
    # window for every field, through a view that copies nothing.
    for ax in range(m):
        head = lattice[(slice(None),) * ax + (slice(_NUFFT_W - 1),)]
        lattice = np.concatenate([lattice, head], axis=ax)
    cells = np.lib.stride_tricks.sliding_window_view(lattice.reshape(-1), _NUFFT_W * n_fields)
    cells = cells[::n_fields]
    strides = np.cumprod((1,) + lattice.shape[m - 1 : 0 : -1])[::-1]

    base = sum(s * stride for s, stride in zip(starts, strides))
    lead_w = [np.ascontiguousarray(w.T) for w in weights[:-1]]
    last_w = weights[-1][:, None, :]
    out = np.zeros((base.shape[0], n_fields))
    # loop over window offsets of the leading axes; the last axis is vectorized
    for offsets in np.ndindex(*(_NUFFT_W,) * (m - 1)):
        shift = 0
        weight = np.ones(base.shape[0])
        for ax, off in enumerate(offsets):
            shift += off * int(strides[ax])
            weight *= lead_w[ax][off]
        vals = cells[base + shift].reshape(-1, _NUFFT_W, n_fields)
        out += weight[:, None] * (last_w @ vals)[:, 0]
    return out.reshape(out.shape[:1] + amps.shape[m:])

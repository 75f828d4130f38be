"""Heat-kernel fixed-point solver, independent of the spectral integrator.

The solution of ``r_t + sum_j d/dtheta_j g_j(r) = Lap r`` is the fixed point
of the map

    (T r)(t) = K(t) * r0  -  sum_j  int_0^t  dK/dtheta_j (t - s) * g_j(r(s)) ds

with ``K`` the Gaussian heat kernel and ``*`` spatial convolution.  Picard
iteration of this map halves the sup-norm distance per sweep on a short
enough window; :func:`contraction_horizon` computes that window from the
initial sup bound and a flux envelope.  Restarting on consecutive windows
(:func:`picard_extend`) reaches any finite time.

Discretization choices (no transforms anywhere, so this solver shares no code
path with :mod:`polarflow.spectral`):

* kernels are periodized by image sums, truncated once the farthest image is
  below 1e-16, sampled on the grid, and normalized to unit discrete mass;
  from ``tau = L^2`` on a row is flat to roundoff and is taken as ``1/n``;
* the kernel-gradient convolution uses ``D_j K(tau)`` with ``D_j`` an
  8th-order periodic finite difference rather than the raw gradient kernel,
  which degenerates when ``tau`` is below grid resolution.  ``D_j`` and the
  kernel are both circulant, so ``K * D_j g = (D_j K) * g``: the stencil is
  folded into the sampled kernel rows, with the quadrature weight, once when
  the window is built;
* the time integral uses the substitution ``s = t - sigma^2``, which removes
  the integrable endpoint singularity, evaluated by Gauss-Legendre nodes;
* iterates live on a fixed uniform mesh of 33 times over the window and are
  interpolated in time with 4-point Lagrange stencils; each target's time
  integral takes 32 Gauss nodes, and sweeps run until the sup-norm change
  reaches 1e-10, at most 60 of them;
* a sweep handles one target time at a time with all its Gauss nodes in one
  batch: one stencil matrix interpolates the node fields; each axis but the
  last is a direct periodic convolution of every node's field with its own
  row, read through a sliding window of the wrap-padded batch; on the last
  axis the sum over nodes comes first, as one matrix product of the rows
  with the batch, and the convolution is then one wrapped-diagonal sum;
* the per-node convolution also gives the heat-flow term ``K(t) * r0``: the
  window's base is a single batch with one kernel row per mesh time;
* each flux term ``a_j g_j`` comes from a component's ``g`` and the samples of
  :meth:`.flux.FluxSpec.resolve`, as every solver reads a flux on its grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import ConvergenceError
from .flux import FluxSpec, _horner, flux_envelope_bound
from .grid import PeriodicGrid, ScalarField

__all__ = [
    "PicardReport",
    "contraction_horizon",
    "heat_kernel_convolve",
    "kernel_gradient_l1",
    "picard_solve",
    "picard_extend",
]

DEFAULT_HORIZON_CAP = 1.0  # window for flux-free problems and zero data, where one sweep is exact
_MAX_SWEEPS = 60  # fixed-point sweeps per window before ConvergenceError
_SWEEP_TOL = 1e-10  # sup-norm change of a sweep that ends the iteration
_N_TIME = 33  # uniform mesh times per window, both ends included
_N_GAUSS = 32  # Gauss-Legendre nodes of each target's time integral
_MAX_WINDOWS = 10000  # windows picard_extend may chain before ConvergenceError
_FD8 = (4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0)
_GRADIENT_PANELS = 64  # composite Gauss-Legendre panels of kernel_gradient_l1
_GRADIENT_NODES = 16  # nodes per panel


def _check_time(name: str, t: float) -> None:
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError(f"{name} must be positive and finite, got {t!r}")


def contraction_horizon(field_bound: float, flux_bound: float, n_axes: int) -> float:
    """Window length on which one fixed-point sweep halves the sup distance.

    ``min((field_bound * sqrt(pi) / (2 flux_bound))^2,
    (sqrt(pi) / (4 flux_bound n_axes))^2)``.  A vanishing flux bound means the
    map is exact in one sweep, and vanishing data is a fixed point (every
    flux has ``g(0) = 0``); both return :data:`DEFAULT_HORIZON_CAP`.
    """
    if not (field_bound >= 0.0 and math.isfinite(field_bound)):
        raise ValueError(f"field_bound must be non-negative and finite, got {field_bound!r}")
    if not (flux_bound >= 0.0 and math.isfinite(flux_bound)):
        raise ValueError(f"flux_bound must be non-negative and finite, got {flux_bound!r}")
    if n_axes < 1:
        raise ValueError("n_axes must be >= 1")
    if flux_bound == 0.0 or field_bound == 0.0:
        return DEFAULT_HORIZON_CAP
    sqrt_pi = np.sqrt(np.pi)
    t1 = (field_bound * sqrt_pi / (2.0 * flux_bound)) ** 2
    t2 = (sqrt_pi / (4.0 * flux_bound * n_axes)) ** 2
    return float(min(t1, t2))


def _plain_row(n: int, length: float, tau: float | np.ndarray) -> np.ndarray:
    """Sampled, image-summed heat kernel on one axis, unit discrete mass.

    Includes the quadrature weight ``h``, so a circulant application of the
    row is the full convolution integral along that axis.  An array ``tau``
    gives one row per entry, stacked on a leading axis.  From ``tau = L^2``
    on, the periodized kernel's first Fourier mode is ``2 exp(-4 pi^2)``,
    about 1.4e-17, of its mean: such a row is ``1/n``, and the image sum
    runs at most to that ``tau``, so its length stays bounded.
    """
    tau = np.asarray(tau, dtype=np.float64)[..., None]
    flat = tau >= length * length
    tau = np.minimum(tau, length * length)
    h = length / n
    x = np.arange(n) * h
    n_img = int(np.ceil(14.0 * np.sqrt(tau.max()) / length)) + 1
    row = np.zeros(tau.shape[:-1] + (n,))
    for img in range(-n_img, n_img + 1):
        xi = x - img * length
        row += np.exp(-(xi * xi) / (4.0 * tau))
    # prefactor (4 pi tau)^(-1/2) and weight h cancel in the normalization
    return np.where(flat, 1.0 / n, row / row.sum(axis=-1, keepdims=True))


def _heat_flow(grid: PeriodicGrid, vals: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """``K(tau) * vals`` for every entry of ``taus``, stacked on a leading axis."""
    out = np.broadcast_to(vals, (len(taus),) + vals.shape)
    for ax in range(grid.m):
        rows = _plain_row(grid.resolution[ax], grid.lengths[ax], taus)
        out = _convolve_nodes(rows[:, ::-1], out, axis=ax + 1)
    return out


def heat_kernel_convolve(f: ScalarField, t: float) -> ScalarField:
    """Periodic convolution with the image-summed heat kernel.

    Agrees with the spectral propagator to within 1e-10 for resolved times;
    both realize the same semigroup through unrelated discretizations.
    """
    _check_time("t", t)
    return ScalarField(grid=f.grid, values=_heat_flow(f.grid, f.values, np.array([t]))[0])


def kernel_gradient_l1(t: float) -> float:
    """Whole-line L1 norm of the heat kernel's spatial gradient.

    Composite Gauss-Legendre quadrature of ``|x|/(2t) K(t, x)`` over the line
    (the integrand is even, so twice the half-line integral); the closed form
    is ``(pi t)^(-1/2)`` and quadrature reproduces it to 1e-8 relative.
    """
    _check_time("t", t)
    width = 16.0 * np.sqrt(t)
    nodes, weights = np.polynomial.legendre.leggauss(_GRADIENT_NODES)
    edges = np.linspace(0.0, width, _GRADIENT_PANELS + 1)
    total = 0.0
    pref = (4.0 * np.pi * t) ** -0.5
    for a, b in zip(edges[:-1], edges[1:]):
        x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        fx = x / (2.0 * t) * pref * np.exp(-(x * x) / (4.0 * t))
        total += 0.5 * (b - a) * float(weights @ fx)
    return 2.0 * total


def _axis_slice(ndim: int, axis: int, start: int, stop: int | None) -> tuple:
    """Index of ``start:stop`` along ``axis`` and everything on the other axes."""
    index = [slice(None)] * ndim
    index[axis] = slice(start, stop)
    return tuple(index)


def _fd_derivative(vals: np.ndarray, axis: int, h: float) -> np.ndarray:
    """8th-order periodic central difference along one axis.

    The shifts ``vals[j +- k]`` are slices of one copy of ``vals`` wrapped by
    the stencil's half-width on both sides.
    """
    n, width = vals.shape[axis], len(_FD8)
    padded = np.concatenate(
        (vals[_axis_slice(vals.ndim, axis, n - width, None)], vals,
         vals[_axis_slice(vals.ndim, axis, 0, width)]),
        axis=axis,
    )
    out = np.zeros_like(vals)
    for k, c in enumerate(_FD8, start=1):
        ahead = padded[_axis_slice(vals.ndim, axis, width + k, width + k + n)]
        behind = padded[_axis_slice(vals.ndim, axis, width - k, width - k + n)]
        out += c * (ahead - behind)
    return out / h


def _wrap_front(batch: np.ndarray, axis: int) -> np.ndarray:
    """``batch`` with its last ``N - 1`` entries along ``axis`` copied in front."""
    return np.concatenate((batch[_axis_slice(batch.ndim, axis, 1, None)], batch), axis=axis)


def _convolve_nodes(rows: np.ndarray, batch: np.ndarray, axis: int) -> np.ndarray:
    """Periodic convolution of each node's field with its own kernel row.

    ``out[q, .., j, ..] = sum_l row_q[(j - l) % N] batch[q, .., l, ..]`` along
    ``axis`` of ``batch``, with ``rows[q]`` holding ``row_q`` reversed.  The
    batch is wrap-padded by ``N - 1`` in front, so output ``j`` reads ``N``
    consecutive padded entries; the sliding window over them is a view, and
    the contraction builds no ``N x N`` gather.
    """
    windows = sliding_window_view(_wrap_front(batch, axis), rows.shape[-1], axis=axis)
    return np.einsum("qk,q...k->q...", rows, windows)


def _convolve_sum_last(rows: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """``_convolve_nodes(rows, batch, -1).sum(axis=0)``, summed over the nodes first.

    The node sum goes into one matrix product,
    ``Z[k, .., l] = sum_q rows[q, k] batch[q, .., l]``, and then
    ``out[.., j] = sum_k Z[k, .., (j + k - N + 1) % N]``.  That is entry
    ``j + k`` of ``Z`` wrap-padded in front along its last axis: a read-only
    view whose step in ``k`` is one row plus one column, summed over ``k``.
    """
    n_nodes, n = rows.shape
    z = (rows.T @ batch.reshape(n_nodes, -1)).reshape((n,) + batch.shape[1:])
    padded = _wrap_front(z, -1)
    step = padded.strides
    diagonal = as_strided(
        padded,
        shape=z.shape,
        strides=(step[0] + step[-1],) + step[1:],
        writeable=False,
    )
    return diagonal.sum(axis=0)


def _lagrange4_weights(frac: np.ndarray):
    """Cubic Lagrange weights of the nodes ``-1, 0, 1, 2`` at the offsets ``frac``."""
    w0 = -frac * (frac - 1.0) * (frac - 2.0) / 6.0
    w1 = (frac + 1.0) * (frac - 1.0) * (frac - 2.0) / 2.0
    w2 = -(frac + 1.0) * frac * (frac - 2.0) / 2.0
    w3 = (frac + 1.0) * frac * (frac - 1.0) / 6.0
    return w0, w1, w2, w3


@dataclass
class PicardReport:
    """Outcome of one fixed-point window solve."""

    horizon: float
    sup_deltas: list[float]
    final: ScalarField
    field_bound: float
    flux_bound: float
    max_iterate_sup: float

    def delta_ratios(self) -> list[float]:
        """Successive ``sup_deltas[k+1] / sup_deltas[k]`` while above roundoff."""
        out = []
        for a, b in zip(self.sup_deltas, self.sup_deltas[1:]):
            if a > 1e-14:
                out.append(b / a)
        return out


class _Window:
    """Precomputed quadrature data for one fixed-point window.

    Target ``t_i`` needs, at each Gauss node ``sigma_q``, the iterate at
    ``t_i - sigma_q^2`` and the kernel at ``tau = sigma_q^2``.  Per target,
    ``stencils[i]`` is the ``(n_gauss, n_time)`` Lagrange matrix giving those
    node fields from the iterate, and per axis ``gradients[ax][i]`` stacks the
    ``n_gauss`` rows ``w_q D_ax K(tau_q)`` (the quadrature weight and the
    derivative folded in) and ``kernels[ax][i]`` the plain rows ``K(tau_q)``,
    all reversed for :func:`_convolve_nodes`.  Flux term ``j`` takes the
    gradient rows on axis ``j`` and the plain rows on every other axis, so
    with one axis the plain rows are never read and not kept.  A sweep
    convolves each node on every axis but the last and contracts the last
    axis and the nodes together with :func:`_convolve_sum_last`.
    """

    def __init__(
        self,
        grid: PeriodicGrid,
        spec: FluxSpec,
        horizon: float,
        n_time: int,
        n_gauss: int,
    ):
        self.grid = grid
        self.spec = spec
        self.horizon = horizon
        self.mesh = np.linspace(0.0, horizon, n_time)
        self.dt_mesh = self.mesh[1] - self.mesh[0]
        self.mods = spec.resolve(grid)
        nodes, weights = np.polynomial.legendre.leggauss(n_gauss)

        self.stencils = np.zeros((n_time, n_gauss, n_time))
        self.gradients = [np.zeros((n_time, n_gauss, n)) for n in grid.resolution]
        self.kernels = [np.zeros_like(g) if grid.m > 1 else None for g in self.gradients]
        for i in range(1, n_time):
            t_i = self.mesh[i]
            half = 0.5 * np.sqrt(t_i)
            sigma = half * (nodes + 1.0)
            tau = sigma * sigma
            # Gauss weights with the 2*sigma Jacobian of the substitution
            wq = (2.0 * sigma * half * weights)[:, None]
            self.stencils[i] = self._time_stencils(t_i - tau)
            for ax in range(grid.m):
                rows = _plain_row(grid.resolution[ax], grid.lengths[ax], tau)
                grad = _fd_derivative(rows, axis=1, h=grid.spacings[ax])
                self.gradients[ax][i] = wq * grad[:, ::-1]
                if self.kernels[ax] is not None:
                    self.kernels[ax][i] = rows[:, ::-1]

    def _time_stencils(self, s: np.ndarray) -> np.ndarray:
        """Rows of 4-point Lagrange weights on the uniform mesh, clamped at the ends."""
        n_time = len(self.mesh)
        u = s / self.dt_mesh
        j0 = np.clip(np.floor(u), 1, n_time - 3).astype(np.int64)
        w = np.stack(_lagrange4_weights(u - j0), axis=1)
        out = np.zeros((len(s), n_time))
        np.put_along_axis(out, (j0 - 1)[:, None] + np.arange(4), w, axis=1)
        return out

    def sweep(self, base: np.ndarray, iterate: np.ndarray) -> np.ndarray:
        """One application of the fixed-point map on the whole time mesh."""
        new = base.copy()
        history = iterate.reshape(len(self.mesh), -1)
        for i in range(1, len(self.mesh)):
            fields = (self.stencils[i] @ history).reshape((-1,) + self.grid.shape)
            for j, (comp, mod) in enumerate(zip(self.spec.components, self.mods)):
                term = _horner(comp.g, fields, mod)
                rows = [
                    (self.gradients[ax] if ax == j else self.kernels[ax])[i]
                    for ax in range(self.grid.m)
                ]
                for ax, row in enumerate(rows[:-1]):
                    term = _convolve_nodes(row, term, axis=ax + 1)
                new[i] -= _convolve_sum_last(rows[-1], term)
        return new


def _bounds(r0: ScalarField, spec: FluxSpec) -> tuple[float, float, float]:
    """Sup bound, flux envelope and contraction horizon of a window that starts at ``r0``."""
    spec.resolve(r0.grid)  # ValueError unless the flux has one component per axis
    field_bound = float(np.abs(r0.values).max())
    flux_bound = flux_envelope_bound(spec, field_bound)
    if math.isinf(flux_bound):
        raise ConvergenceError(f"the flux envelope overflows on data of sup {field_bound:.3e}")
    return field_bound, flux_bound, contraction_horizon(field_bound, flux_bound, spec.m)


def _check_window(horizon: float) -> None:
    """Reject a window below the normal floats: its mesh step or kernel times would reach 0."""
    if horizon < np.finfo(np.float64).tiny:
        raise ConvergenceError(f"the window length {horizon:.3e} underflows")


def picard_solve(r0: ScalarField, spec: FluxSpec, t_final: float | None = None) -> PicardReport:
    """Fixed-point solve on one contraction window.

    The window is computed from the initial sup bound and the flux envelope,
    then shortened to ``t_final`` when given.  It carries :data:`_N_TIME`
    uniform mesh times with :data:`_N_GAUSS` Gauss nodes per target.  Sweeps
    stop once the sup-norm change reaches :data:`_SWEEP_TOL`; raises
    :class:`ConvergenceError` (carrying the delta history) if
    :data:`_MAX_SWEEPS` sweeps do not, if the window is shorter than the
    smallest normal float or if the flux envelope overflows.
    """
    field_bound, flux_bound, horizon = _bounds(r0, spec)
    if t_final is not None:
        _check_time("t_final", t_final)
        horizon = min(horizon, t_final)
    _check_window(horizon)

    window = _Window(r0.grid, spec, horizon, _N_TIME, _N_GAUSS)
    base = np.empty((_N_TIME,) + r0.grid.shape)
    base[0] = r0.values
    base[1:] = _heat_flow(r0.grid, r0.values, window.mesh[1:])

    iterate = base.copy()
    sup_deltas: list[float] = []
    max_sup = float(np.abs(iterate).max())
    for _ in range(_MAX_SWEEPS):
        new = window.sweep(base, iterate)
        max_sup = max(max_sup, float(np.abs(new).max()))
        delta = float(np.abs(new - iterate).max())
        sup_deltas.append(delta)
        iterate = new
        if delta <= _SWEEP_TOL:
            return PicardReport(
                horizon=horizon,
                sup_deltas=sup_deltas,
                final=ScalarField(grid=r0.grid, values=iterate[-1]),
                field_bound=field_bound,
                flux_bound=flux_bound,
                max_iterate_sup=max_sup,
            )
    raise ConvergenceError(
        f"fixed-point iteration did not reach {_SWEEP_TOL:.1e} in {_MAX_SWEEPS} sweeps "
        f"(last delta {sup_deltas[-1]:.3e})",
        history=sup_deltas,
    )


def picard_extend(r0: ScalarField, spec: FluxSpec, t_end: float) -> ScalarField:
    """Reach ``t_end`` by chaining window solves.

    The sup bound never grows along the flow, so successive windows do not
    shrink and the first window fixes how many restarts suffice.  Raises
    :class:`ConvergenceError` before any window is built when that count
    exceeds :data:`_MAX_WINDOWS` or the flux envelope overflows.
    """
    _check_time("t_end", t_end)
    horizon = _bounds(r0, spec)[2]
    _check_window(horizon)
    if t_end > _MAX_WINDOWS * horizon:
        raise ConvergenceError(
            f"reaching t_end = {t_end:g} takes about {t_end / horizon:.0f} windows, "
            f"more than the budget of {_MAX_WINDOWS}"
        )
    state = r0
    elapsed = 0.0
    guard = 0
    while elapsed < t_end - 1e-14:
        report = picard_solve(state, spec, t_final=t_end - elapsed)
        state = report.final
        elapsed += report.horizon
        guard += 1
        if guard > _MAX_WINDOWS:  # the sup bound grew by roundoff and the windows shrank
            raise ConvergenceError("window restarts did not reach t_end")
    return state

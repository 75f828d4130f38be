"""Stationary states with prescribed mean, and the monotonicity of their branch.

The stationary problem is

    -Lap v + sum_i d/dtheta_i ( a_i(theta_i) g_i(v) ) = 0,   mean(v) = p.

For an unmodulated flux every constant solves it, so ``v(p, .) == p`` and the
solve is a residual check.  With a spatial modulation the problem is genuinely
nonlinear and is solved by a fixed-point iteration on the spectral
discretization, preconditioned by the inverse Laplacian: each iteration
subtracts ``(-Lap)^-1`` of the residual, which leaves the mean alone (the
equation itself has no zero mode), and re-pins the mean to ``p``; the
rounded mean of the result may still differ from ``p`` by an ulp.
The operator uses the real-FFT half-lattice symbols of :mod:`.spectral`:
``|kappa|^2`` and the derivatives and flux divergence of the radius stepper,
so a stationary state stays stationary under a step of :func:`.spectral.evolve`.

Applicability note: the solve assumes the flux derivative grows at most
polynomially on the relevant range.  Every flux is a polynomial in ``v``
times a bounded modulation, so this holds by construction; it is not a
runtime check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .flux import FluxSpec
from .grid import PeriodicGrid, ScalarField
from .spectral import _derivative_symbols, _flux_divergence, _irfft, _laplacian_half, _rfft

__all__ = ["CellSolution", "solve_cell", "monotonicity_check"]

CELL_TOL = 1e-11  # sup residual at which the iteration stops
MAX_ITER = 400
GROWTH_RUN = 8  # growing residuals in a row that mark divergence; converging solves show at most 3


@dataclass(frozen=True)
class CellSolution:
    """Stationary state with prescribed mean and its discrete residual."""

    p: float
    v: ScalarField
    residual: float
    iterations: int


class _CellOperator:
    """The stationary operator on the real-FFT half lattice of :mod:`.spectral`."""

    def __init__(self, grid: PeriodicGrid, spec: FluxSpec):
        self.grid = grid
        self.mods = spec.resolve(grid)
        self.g_coeffs = [c.g for c in spec.components]
        self.lap = _laplacian_half(grid)
        self.lap_inv = np.divide(1.0, self.lap, out=np.zeros_like(self.lap), where=self.lap > 0.0)
        self.derivs = _derivative_symbols(grid)  # of -d/dtheta_i

    def residual(self, v: np.ndarray) -> np.ndarray:
        """-Lap v + div(a g(v)) on the grid."""
        minus_div = _flux_divergence(self.grid, self.derivs, self.mods, self.g_coeffs, v)
        return _irfft(self.grid, _rfft(self.grid, v) * self.lap - minus_div)

    def precondition(self, rhs: np.ndarray) -> np.ndarray:
        """Apply the inverse Laplacian on the zero-mean complement."""
        return _irfft(self.grid, _rfft(self.grid, rhs) * self.lap_inv)


def solve_cell(spec: FluxSpec, grid: PeriodicGrid, p: float) -> CellSolution:
    """Preconditioned fixed-point solve of the stationary mean-constrained problem.

    Iterates ``v <- v - (-Lap)^-1 res(v)``, with the mean re-pinned to ``p``
    up to roundoff, from the constant state ``v == p`` (exact in the
    unmodulated case, where no iteration is needed) to a sup residual of
    ``CELL_TOL``.  When a step no longer lowers a residual already at the
    roundoff floor, the state before it is accepted.  A residual that is not
    finite (the flux overflows), one that grew :data:`GROWTH_RUN` iterations
    in a row, or ``MAX_ITER`` iterations raise :class:`ConvergenceError` with
    the residual history.  Raises ``ValueError`` when ``p`` is not finite.
    """
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got {p!r}")
    op = _CellOperator(grid, spec)
    # the spectral residual cannot resolve below eps * |kappa|^2_max * |v|
    floor_scale = 4.0 * np.finfo(float).eps * float(op.lap.max())
    v = last = np.full(grid.shape, float(p))
    last_norm, growing, history = math.inf, 0, []
    # an overflowing flux is caught by the finiteness check on the norm
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(MAX_ITER + 1):
            res = op.residual(v)
            norm = float(np.abs(res).max())
            history.append(norm)
            if not math.isfinite(norm):
                raise ConvergenceError(f"residual is not finite at iteration {k} (p = {p!r})", history)
            if norm <= CELL_TOL:
                return CellSolution(float(p), ScalarField(grid=grid, values=v), norm, k)
            if norm >= last_norm and last_norm <= floor_scale * max(1.0, float(np.abs(last).max())):
                return CellSolution(float(p), ScalarField(grid=grid, values=last), last_norm, k - 1)
            growing = growing + 1 if norm > last_norm else 0
            if growing == GROWTH_RUN:
                raise ConvergenceError(f"fixed-point iteration diverged at iteration {k}", history)
            last, last_norm = v, norm
            v = v - op.precondition(res)
            v = v - v.mean() + p  # re-pin the mean, to an ulp of p
    raise ConvergenceError(
        f"fixed-point iteration did not reach {CELL_TOL:.1e} in {MAX_ITER} iterations", history
    )


def monotonicity_check(spec: FluxSpec, grid: PeriodicGrid, p: float, q: float) -> bool:
    """Whether the stationary branch is strictly increasing in its mean.

    Requires ``p > q``; returns ``min(v(p) - v(q)) > 0`` (a False is a
    reported finding, not an error).
    """
    if not p > q:
        raise ValueError("monotonicity check requires p > q")
    vp = solve_cell(spec, grid, p).v
    vq = solve_cell(spec, grid, q).v
    return bool((vp.values - vq.values).min() > 0.0)


def _branch_pairs(
    spec: FluxSpec, grid: PeriodicGrid, low: float, high: float, count: int, seed: int
) -> list[tuple[float, float, bool]]:
    """``count`` random means ``p > q`` in ``[low, high)``, each as ``(p, q, monotonicity_check)``.

    A pair closer than 1e-3 is widened to ``p = q + 1e-3``; beyond ``|q|``
    of about 2e13 that gap rounds away, and ``p`` is the next float above ``q``.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        q, p = np.sort(rng.uniform(low, high, size=2))
        if p - q < 1e-3:
            p = max(q + 1e-3, np.nextafter(q, np.inf))
        pairs.append((float(p), float(q), monotonicity_check(spec, grid, float(p), float(q))))
    return pairs

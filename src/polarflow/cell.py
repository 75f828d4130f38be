"""Stationary states with prescribed mean, and the monotonicity of their branch.

The stationary problem is

    -Lap v + sum_i d/dtheta_i ( a_i(theta_i) g_i(v) ) = 0,   mean(v) = p.

For an unmodulated flux every constant solves it, so ``v(p, .) == p`` and the
solve is a residual check.  With a spatial modulation the problem is genuinely
nonlinear and is solved by a damped Newton iteration on the spectral
discretization: the mean is pinned by working in the zero-mean complement
(the equation itself has no zero mode), the Jacobian is applied spectrally,
and the inner linear solves run a Richardson iteration preconditioned by the
inverse Laplacian.  The operator uses the real-FFT half-lattice symbols of
:mod:`.spectral`: ``|kappa|^2`` and the derivatives of the radius stepper, so
a stationary state stays stationary under :func:`.spectral.step`.

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
from .flux import FluxSpec, _check_axes, eval_g, eval_g_prime
from .grid import PeriodicGrid, ScalarField
from .spectral import _derivative_symbols, _flux_divergence, _irfft, _laplacian_half, _rfft

__all__ = ["CellSolution", "solve_cell", "monotonicity_check"]

CELL_TOL = 1e-11  # sup residual at which Newton stops
MAX_NEWTON = 40
MAX_INNER = 400  # Richardson iterations per Newton system
GROWTH_RUN = 8  # growing changes in a row that mark divergence; converging solves show at most 1


@dataclass(frozen=True)
class CellSolution:
    """Stationary state with prescribed mean and its discrete residual."""

    p: float
    v: ScalarField
    residual: float
    newton_iters: int


class _CellOperator:
    """The stationary operator on the real-FFT half lattice of :mod:`.spectral`."""

    def __init__(self, grid: PeriodicGrid, spec: FluxSpec):
        _check_axes(grid, spec)
        self.grid = grid
        self.spec = spec
        self.lap = _laplacian_half(grid)
        self.lap_inv = np.divide(1.0, self.lap, out=np.zeros_like(self.lap), where=self.lap > 0.0)
        self.derivs = _derivative_symbols(grid)  # of -d/dtheta_i
        self.mods = [spec.modulation_values(grid, i) for i in range(spec.m)]

    def residual(self, v: np.ndarray) -> np.ndarray:
        """-Lap v + div(a g(v)) on the grid."""
        fluxes = (eval_g(self.spec, i, v) for i in range(self.spec.m))
        minus_div = _flux_divergence(self.grid, self.derivs, self.mods, fluxes)
        return _irfft(self.grid, _rfft(self.grid, v) * self.lap - minus_div)

    def jacobian_flux_part(self, v: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """div(a g'(v) delta), the non-Laplacian block of the Jacobian."""
        fluxes = (eval_g_prime(self.spec, i, v) * delta for i in range(self.spec.m))
        return -_irfft(self.grid, _flux_divergence(self.grid, self.derivs, self.mods, fluxes))

    def precondition(self, rhs: np.ndarray) -> np.ndarray:
        """Apply the inverse Laplacian on the zero-mean complement."""
        return _irfft(self.grid, _rfft(self.grid, rhs) * self.lap_inv)

    def solve_newton_system(self, v: np.ndarray, rhs: np.ndarray, tol: float) -> np.ndarray:
        """Richardson iteration for ``(-Lap + B) delta = rhs`` on zero-mean fields.

        The iteration diverges once its change is not finite (it overflowed)
        or has grown at :data:`GROWTH_RUN` iterations in a row.
        """
        last, growing = math.inf, 0
        with np.errstate(over="ignore", invalid="ignore"):
            delta = self.precondition(rhs)
            for k in range(1, MAX_INNER + 1):
                new = self.precondition(rhs - self.jacobian_flux_part(v, delta))
                new = new - new.mean()
                change = float(np.abs(new - delta).max())
                growing = growing + 1 if change > last else 0
                if growing == GROWTH_RUN or not math.isfinite(change):
                    raise ConvergenceError(f"inner linear solve diverged at iteration {k}")
                delta, last = new, change
                if change <= tol:
                    return delta
        raise ConvergenceError(
            f"inner linear solve stagnated (last change {change:.3e})"
        )


def solve_cell(spec: FluxSpec, grid: PeriodicGrid, p: float) -> CellSolution:
    """Damped Newton solve of the stationary mean-constrained problem.

    Iterates to a sup residual of ``CELL_TOL`` in at most ``MAX_NEWTON``
    steps from the constant state ``v == p`` (exact in the unmodulated case,
    where zero Newton iterations are needed).  Step quality is enforced by
    backtracking: a step is accepted only when it reduces the sup residual by
    at least a quarter of the damping factor; exhausting the damping ladder
    raises :class:`ConvergenceError` with the residual history, and so does a
    residual that is not finite (the flux overflows at ``p``).  Raises
    ``ValueError`` when ``p`` is not finite.
    """
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got {p!r}")
    op = _CellOperator(grid, spec)

    def residual(w: np.ndarray) -> np.ndarray:
        # an overflowing flux is caught by the finiteness checks on the norm
        with np.errstate(over="ignore", invalid="ignore"):
            return op.residual(w)

    v = np.full(grid.shape, float(p))
    res = residual(v)
    res_norm = float(np.abs(res).max())
    history = [res_norm]
    if not math.isfinite(res_norm):
        raise ConvergenceError(
            f"residual of the constant state v == {p!r} is not finite", history=history
        )
    iters = 0
    lap_max = float(op.lap.max())

    def roundoff_floor() -> float:
        # the spectral residual cannot resolve below eps * |kappa|^2_max * |v|
        return 4.0 * np.finfo(float).eps * lap_max * max(1.0, float(np.abs(v).max()))

    while res_norm > CELL_TOL:
        if iters >= MAX_NEWTON:
            raise ConvergenceError(
                f"Newton did not reach {CELL_TOL:.1e} in {MAX_NEWTON} steps",
                history=history,
            )
        delta = op.solve_newton_system(v, -res, tol=max(0.01 * res_norm, 1e-14))
        accepted = False
        lam = 1.0
        while lam >= 1.0 / 16.0:
            trial = v + lam * delta
            trial = trial - trial.mean() + p  # re-pin the mean exactly
            trial_res = residual(trial)
            trial_norm = float(np.abs(trial_res).max())
            if trial_norm <= (1.0 - 0.25 * lam) * res_norm:
                v, res, res_norm = trial, trial_res, trial_norm
                accepted = True
                break
            lam /= 2.0
        if not accepted:
            if res_norm <= roundoff_floor():
                break  # converged to the discrete roundoff floor
            raise ConvergenceError(
                f"Newton stagnated at residual {res_norm:.3e}", history=history
            )
        history.append(res_norm)
        iters += 1
    return CellSolution(
        p=float(p),
        v=ScalarField(grid=grid, values=v),
        residual=res_norm,
        newton_iters=iters,
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

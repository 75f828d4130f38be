"""Dense finite-difference reference solver for the stationary problem.

Second, independent route for ``-v'' + (a(theta) g(v))' = 0`` with prescribed
mean on one axis: 6th-order periodic central-difference matrices, a bordered
Newton system for the mean constraint, dense linear algebra.  Shares no
discretization machinery with :mod:`polarflow.cell` (local stencils vs global
transforms), which is the point - the two routes cross-check each other.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError
from .flux import FluxSpec, eval_g, eval_g_prime

__all__ = ["fd_cell_solve", "fd_derivative_matrix", "fd_laplacian_matrix"]

_D1 = ((-3, -1.0 / 60.0), (-2, 3.0 / 20.0), (-1, -3.0 / 4.0),
       (1, 3.0 / 4.0), (2, -3.0 / 20.0), (3, 1.0 / 60.0))
_D2 = ((-3, 1.0 / 90.0), (-2, -3.0 / 20.0), (-1, 3.0 / 2.0), (0, -49.0 / 18.0),
       (1, 3.0 / 2.0), (2, -3.0 / 20.0), (3, 1.0 / 90.0))
_TOL_ULPS = 100.0  # residual tolerance in ulps of the second-derivative operator norm
_MAX_NEWTON = 60


def _banded_periodic(n: int, stencil, scale: float) -> np.ndarray:
    mat = np.zeros((n, n))
    idx = np.arange(n)
    for off, c in stencil:
        mat[idx, (idx + off) % n] += c * scale
    return mat


def fd_derivative_matrix(n: int, length: float) -> np.ndarray:
    """Dense 6th-order periodic first-derivative matrix."""
    return _banded_periodic(n, _D1, n / length)


def fd_laplacian_matrix(n: int, length: float) -> np.ndarray:
    """Dense 6th-order periodic second-derivative matrix."""
    return _banded_periodic(n, _D2, (n / length) ** 2)


def fd_cell_solve(spec: FluxSpec, n: int, length: float, p: float) -> np.ndarray:
    """Newton solve of the one-axis stationary problem on ``n`` nodes.

    Returns the solution samples at ``theta_j = j * length / n``.  The mean
    constraint rides along as a bordered row/column of the Newton system.
    The residual tolerance scales with the second-derivative operator norm,
    which sets the roundoff floor of the dense residual; at most
    :data:`_MAX_NEWTON` steps are taken.
    """
    if spec.m != 1:
        raise ValueError("reference solver handles one axis only")
    d1 = fd_derivative_matrix(n, length)
    d2 = fd_laplacian_matrix(n, length)
    tol = _TOL_ULPS * np.finfo(float).eps * (n / length) ** 2 * max(1.0, abs(p))
    theta = np.arange(n) * (length / n)
    mod = spec.components[0].modulation
    a = np.ones(n) if mod is None else mod.evaluate(theta, length)

    v = np.full(n, float(p))
    for _ in range(_MAX_NEWTON):
        res = -d2 @ v + d1 @ (a * eval_g(spec, 0, v))
        if float(np.abs(res).max()) <= tol:
            return v
        jac = -d2 + d1 * (a * eval_g_prime(spec, 0, v))  # d1 @ diag(a g'(v)) as a column scaling
        sys = np.zeros((n + 1, n + 1))
        sys[:n, :n] = jac
        sys[:n, n] = 1.0
        sys[n, :n] = 1.0 / n
        rhs = np.zeros(n + 1)
        rhs[:n] = -res
        sol = np.linalg.solve(sys, rhs)
        v = v + sol[:n]
        v = v - v.mean() + p
        if float(np.abs(sol[:n]).max()) <= 1e-15 * max(1.0, float(np.abs(v).max())):
            break
    res_norm = float(np.abs(-d2 @ v + d1 @ (a * eval_g(spec, 0, v))).max())
    if res_norm > tol:
        raise ConvergenceError(f"reference Newton stalled at residual {res_norm:.3e}")
    return v

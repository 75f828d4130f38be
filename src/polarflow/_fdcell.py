"""Banded finite-difference reference solver for the stationary problem.

Second, independent route for ``-v'' + (a(theta) g(v))' = 0`` with prescribed
mean on one axis: 6th-order periodic central differences applied as sums of
``np.roll``, and Newton steps whose bordered system is eliminated directly,
in O(n) memory and with no BLAS or LAPACK call, so the result does not depend
on the BLAS thread count.  Shares no discretization machinery with
:mod:`polarflow.cell` (local stencils vs global transforms), which is the
point - the two routes cross-check each other.

The system ``[J 1; 1^T/n 0] [dv; lam] = [-res; 0]`` has
``J = -D2 + D1 diag(c)``.  ``D1`` and ``D2`` are circulant with zero column
sums, so ``1^T J = 0``: the multiplier is ``lam = -mean(res)``, and J's last
row, then redundant, gives way to the mean row ``1^T dv = 0``.  Gaussian
elimination runs on sparse rows: a row of J holds its band and the fill that
the wrap-around brings into the last three columns; the last two rows of J
and the mean row fill in densely.  It needs no pivoting while the grid
resolves the advection, as J is then dominated by ``-D2``, whose principal
sections short of the full cycle are positive definite (its null space is
the constants): every leading minor short of the mean row is nonzero, and
the mean row completes a nonsingular matrix.  A zero or non-finite pivot is
a :class:`ConvergenceError`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError
from .flux import FluxSpec, eval_g, eval_g_prime

__all__ = ["fd_cell_solve", "fd_derivative", "fd_laplacian"]

_D1 = ((-3, -1.0 / 60.0), (-2, 3.0 / 20.0), (-1, -3.0 / 4.0),
       (1, 3.0 / 4.0), (2, -3.0 / 20.0), (3, 1.0 / 60.0))
_D2 = ((-3, 1.0 / 90.0), (-2, -3.0 / 20.0), (-1, 3.0 / 2.0), (0, -49.0 / 18.0),
       (1, 3.0 / 2.0), (2, -3.0 / 20.0), (3, 1.0 / 90.0))
_TOL_ULPS = 100.0  # residual tolerance in ulps of the second-derivative operator norm
_MAX_NEWTON = 60


def _apply(stencil, x: np.ndarray, scale: float) -> np.ndarray:
    return sum(c * scale * np.roll(x, -off) for off, c in stencil)


def fd_derivative(x: np.ndarray, length: float) -> np.ndarray:
    """6th-order periodic first derivative of the samples ``x``."""
    return _apply(_D1, x, x.size / length)


def fd_laplacian(x: np.ndarray, length: float) -> np.ndarray:
    """6th-order periodic second derivative of the samples ``x``."""
    return _apply(_D2, x, (x.size / length) ** 2)


def _newton_update(c: np.ndarray, res: np.ndarray, length: float) -> np.ndarray:
    """The step ``dv`` of the bordered system for ``J = -D2 + D1 diag(c)``, mean zero."""
    n = res.size
    s1, s2 = n / length, (n / length) ** 2
    d1 = dict(_D1)
    # rows[i][j] = J[i, j] on the 7-point band, then the mean row in place of J's last
    rows: list[dict[int, float]] = [{} for _ in range(n - 1)]
    for off, c2 in _D2:
        band = -s2 * c2 + s1 * d1.get(off, 0.0) * np.roll(c, -off)
        for i, val in enumerate(band[: n - 1].tolist()):
            rows[i][(i + off) % n] = val
    rows.append(dict.fromkeys(range(n), 1.0))
    rhs = (res.mean() - res).tolist()
    rhs[-1] = 0.0
    pivots = []
    for k in range(n):
        pivot_row = rows[k]  # its entries left of k are eliminated
        pivot = pivot_row.pop(k)
        pivots.append(pivot)
        if pivot == 0.0 or not math.isfinite(pivot):
            raise ConvergenceError(f"reference Newton system has pivot {pivot!r} at row {k}")
        # the rows with an entry in column k: the band below k and the last three
        for i in (*range(k + 1, min(k + 4, n - 3)), *range(max(k + 1, n - 3), n)):
            row = rows[i]
            lk = row.pop(k) / pivot
            for j, val in pivot_row.items():
                row[j] = row.get(j, 0.0) - lk * val
            rhs[i] -= lk * rhs[k]
    dv = [0.0] * n
    for k in range(n - 1, -1, -1):
        dv[k] = (rhs[k] - sum(val * dv[j] for j, val in rows[k].items())) / pivots[k]
    return np.array(dv)


def _residual(spec: FluxSpec, a: np.ndarray, v: np.ndarray, length: float) -> np.ndarray:
    return fd_derivative(a * eval_g(spec, 0, v), length) - fd_laplacian(v, length)


def fd_cell_solve(spec: FluxSpec, n: int, length: float, p: float) -> np.ndarray:
    """Newton solve of the one-axis stationary problem on ``n`` nodes.

    Returns the solution samples at ``theta_j = j * length / n``.  The mean
    constraint rides along as a bordered row/column of the Newton system.
    The residual tolerance scales with the second-derivative operator norm,
    which sets the roundoff floor of the stencil residual; at most
    :data:`_MAX_NEWTON` steps are taken, and none on a residual that is not
    finite.  ``n`` must cover the 7-point stencil, ``length`` must be
    positive and finite and ``p`` finite.
    """
    if spec.m != 1:
        raise ValueError("reference solver handles one axis only")
    if n < len(_D2):
        raise ValueError(f"reference solver needs at least {len(_D2)} nodes, got {n}")
    if not (math.isfinite(length) and length > 0.0):
        raise ValueError(f"length must be positive and finite, got {length}")
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got {p}")
    tol = _TOL_ULPS * np.finfo(float).eps * (n / length) ** 2 * max(1.0, abs(p))
    theta = np.arange(n) * (length / n)
    mod = spec.components[0].modulation
    a = np.ones(n) if mod is None else mod.evaluate(theta, length)

    v = np.full(n, float(p))
    for _ in range(_MAX_NEWTON):
        res = _residual(spec, a, v, length)
        res_norm = float(np.abs(res).max())
        if res_norm <= tol:
            return v
        if not math.isfinite(res_norm):
            break
        dv = _newton_update(a * eval_g_prime(spec, 0, v), res, length)
        v = v + dv
        v = v - v.mean() + p
        if float(np.abs(dv).max()) <= 1e-15 * max(1.0, float(np.abs(v).max())):
            break
    res_norm = float(np.abs(_residual(spec, a, v, length)).max())
    if not res_norm <= tol:
        raise ConvergenceError(f"reference Newton stalled at residual {res_norm:.3e}")
    return v

"""Direction transport coupled to the radius field.

The unit-vector field obeys the linear transport equation
``P_t + sum_i f_i(r) dP/dtheta_i = 0`` with the radius field frozen within a
step.  Steps are semi-Lagrangian: trace each node's characteristic foot point
backwards (midpoint rule), interpolate every vector component there, and
renormalize to unit length, which enforces the sphere constraint exactly.

Two interpolants are available for the gather, on any number of axes:

* ``"spectral"`` (default): the fields' Fourier representation evaluated at
  the foot points by a type-2 non-uniform FFT, which agrees with the direct
  Fourier sum to ~1e-14, so constant-coefficient transport is a translation
  accurate to that level;
* ``"cubic"``: periodic 4-point Lagrange stencils - O(h^4) and cheaper.

The default is spectral because local cubic stencils admit an O((kappa h)^4)
phase error per step that accumulates linearly and misses the package's
translation-fidelity targets at production resolutions.  Each step makes two
gathers, each over every field that shares its points: the velocity
components at the midpoints, then the direction components at the feet.

:func:`evolve_coupled` runs the radius time loop of :mod:`.spectral` and
hands it this step as the hook that carries the direction field.
"""

from __future__ import annotations

import numpy as np

from ._kernels import cubic_gather, trig_gather
from .errors import SolverError
from .flux import FluxSpec, eval_f
from .grid import DirectionField, PeriodicGrid, RadialField, ScalarField, _flat_coords
from .spectral import SolveConfig, Trajectory, _march

__all__ = ["transport_step", "evolve_coupled"]

_INTERP_KINDS = ("spectral", "cubic")


def _gather(fields: np.ndarray, grid: PeriodicGrid, pts: list[np.ndarray], interp: str) -> np.ndarray:
    """Interpolate gridded fields (stacked on a trailing axis) at scattered physical points.

    Returns an array of shape ``(points, fields)``.
    """
    if interp == "spectral":
        amps = np.fft.fftn(fields, axes=tuple(range(grid.m))) / grid.num_nodes
        kappas = [k.ravel() for k in grid.kappa_grids()]
        return trig_gather(amps, kappas, pts)
    units = [
        np.mod(p, grid.lengths[ax]) / grid.spacings[ax] for ax, p in enumerate(pts)
    ]
    return np.stack(
        [cubic_gather(fields[..., j], units) for j in range(fields.shape[-1])], axis=-1
    )


def _velocities(spec: FluxSpec, grid: PeriodicGrid, r_vals: np.ndarray) -> list[np.ndarray]:
    out = []
    for i in range(spec.m):
        vi = eval_f(spec, i, r_vals)  # grid-shaped for every degree
        mod = spec.modulation_values(grid, i)
        out.append(vi if mod is None else vi * mod)
    return out


def transport_step(
    p: DirectionField,
    r: ScalarField,
    spec: FluxSpec,
    dt: float,
    interp: str = "spectral",
) -> DirectionField:
    """One semi-Lagrangian step of the direction field.

    Characteristics are traced with a midpoint stage; the returned field is
    renormalized so every vector is unit length to within 1e-12.
    """
    if p.grid != r.grid:
        raise ValueError("direction and radius fields live on different grids")
    if interp not in _INTERP_KINDS:
        raise ValueError(f"unknown interpolation {interp!r}; expected {_INTERP_KINDS}")
    grid = p.grid
    coords = _flat_coords(grid)
    vel = _velocities(spec, grid, r.values)

    # midpoint of the backward characteristic, then velocity sampled there
    half = [c - 0.5 * dt * v.ravel() for c, v in zip(coords, vel)]
    vel_mid = _gather(np.stack(vel, axis=-1), grid, half, interp)
    feet = [c - dt * vel_mid[:, i] for i, c in enumerate(coords)]

    stacked = _gather(p.vectors, grid, feet, interp).reshape(p.vectors.shape)
    norms = np.sqrt((stacked**2).sum(axis=-1))
    if not (norms.min() > 0.0):
        raise SolverError("direction vector collapsed to zero during transport")
    return DirectionField(grid=grid, vectors=stacked / norms[..., None])


def evolve_coupled(
    r0: RadialField,
    p0: DirectionField,
    spec: FluxSpec,
    cfg: SolveConfig,
    interp: str = "spectral",
) -> Trajectory:
    """Interleaved evolution of radius and direction.

    The radius advances first (its equation is autonomous); the direction is
    then transported with the radius sampled at the step's half time, which
    keeps the coupling second order.  Positivity of the radius is required at
    start and enforced throughout - losing it breaks the polar splitting and
    aborts the run.
    """
    if r0.grid != p0.grid:
        raise ValueError("radius and direction fields live on different grids")
    if not (r0.values.min() > 0.0):
        raise SolverError("initial radius must be strictly positive")

    def carry(p: DirectionField, mid: np.ndarray, dt: float) -> DirectionField:
        return transport_step(p, ScalarField(grid=r0.grid, values=mid), spec, dt, interp)

    return _march(r0, spec, cfg, (p0, carry))

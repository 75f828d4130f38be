"""Initial surface data and the polar splitting ``x = r P``.

The parameter domain is ``theta in [0, L)^m``; for the planar curve presets
(``m = 1``, ambient dimension 2) the angle is ``2 pi theta / L``.  Ambient
dimension ``d`` defaults to ``m + 1`` and is otherwise independent of ``m``.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import DirectionField, PeriodicGrid, RadialField, ScalarField, _integer

__all__ = [
    "make_initial",
    "ellipse_initial",
    "perturbed_sphere_initial",
    "trig_random_initial",
    "sphere_directions",
    "reconstruct",
    "decompose",
]


def sphere_directions(grid: PeriodicGrid, d: int) -> DirectionField:
    """Smooth periodic unit-vector field built from hyperspherical angles.

    Angle ``i`` sweeps ``2 pi theta_i / L_i`` for the first ``min(m, d-1)``
    axes; remaining angles are zero.  For ``m=1, d=2`` this is the unit
    circle ``(cos, sin)``.
    """
    if d < 2:
        raise ValueError("ambient dimension must be at least 2")
    coords = grid.coords()
    angles = []
    for i in range(d - 1):
        if i < grid.m:
            angles.append(2.0 * np.pi * coords[i] / grid.lengths[i])
        else:
            angles.append(np.zeros(grid.shape))
    comps = []
    running = np.ones(grid.shape)
    for i in range(d - 1):
        comps.append(running * np.cos(angles[i]))
        running = running * np.sin(angles[i])
    comps.append(running)
    return DirectionField(grid=grid, vectors=np.stack(comps, axis=-1))


def ellipse_initial(grid: PeriodicGrid, a: float, b: float) -> tuple[RadialField, DirectionField]:
    """Planar ellipse ``(a cos, b sin)`` of the angle ``2 pi theta / L``."""
    if grid.m != 1:
        raise ValueError("ellipse preset requires a one-axis grid")
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"ellipse semi-axes must be positive and finite, got a={a!r}, b={b!r}")
    ang = 2.0 * np.pi * grid.axis_coords(0) / grid.lengths[0]
    x = np.stack([a * np.cos(ang), b * np.sin(ang)], axis=-1)
    return decompose(grid, x)


def _phase(grid: PeriodicGrid, coords: list, kvec) -> np.ndarray:
    """``2 pi k . theta / L`` of the mode ``kvec``: the axes' terms added in order to zeros."""
    terms = (2.0 * np.pi * k * c / L for k, c, L in zip(kvec, coords, grid.lengths))
    return sum(terms, np.zeros(grid.shape))


def perturbed_sphere_initial(
    grid: PeriodicGrid,
    radius: float,
    amplitude: float,
    modes,
    d: int | None = None,
) -> tuple[RadialField, DirectionField]:
    """Radius ``R + amplitude * sum_k cos(2 pi k . theta / L)`` over given modes.

    Raises when the perturbation can reach the origin (``amplitude * #modes
    >= radius``), a mode component is not an integer, or one exceeds
    ``N_i / 2`` in size: beyond that, modes alias.
    """
    d = grid.m + 1 if d is None else d
    mode_list = [tuple(_integer("mode", k) for k in np.atleast_1d(kvec)) for kvec in modes]
    tops = tuple(n // 2 for n in grid.resolution)
    for kvec in mode_list:
        if len(kvec) != grid.m:
            raise ValueError(f"mode {kvec} does not match grid dimension {grid.m}")
        if any(abs(k) > top for k, top in zip(kvec, tops)):
            raise ValueError(f"mode must satisfy |k_i| <= N_i/2 = {tops}, got {kvec}")
    if radius - abs(amplitude) * len(mode_list) <= 0.0:
        raise ValueError("perturbation amplitude too large: radius would vanish")
    coords = grid.coords()
    r = np.full(grid.shape, float(radius))
    for kvec in mode_list:
        r += amplitude * np.cos(_phase(grid, coords, kvec))
    return RadialField(grid=grid, values=r), sphere_directions(grid, d)


def trig_random_initial(
    grid: PeriodicGrid,
    seed: int,
    max_mode: int,
    amplitude: float,
    d: int | None = None,
) -> tuple[RadialField, DirectionField]:
    """Reproducible random smooth radius ``1 + amplitude * (normalized trig sum)``.

    Coefficients are drawn from a seeded generator and damped by ``1/|k|^2``;
    the perturbation is rescaled to unit sup norm so ``min r = 1 - amplitude``
    is guaranteed.  Requires ``0 <= amplitude < 1``, an integer ``seed >= 0``
    and an integer ``1 <= max_mode <= min(N) / 2``: beyond that, modes alias.
    """
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must lie in [0, 1) to keep the radius positive")
    seed, max_mode = _integer("seed", seed), _integer("max_mode", max_mode)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 1 <= max_mode <= min(grid.resolution) // 2:
        top = min(grid.resolution) // 2
        raise ValueError(f"max_mode must lie in [1, min(N)/2 = {top}], got {max_mode}")
    d = grid.m + 1 if d is None else d
    rng = np.random.default_rng(seed)
    coords = grid.coords()
    pert = np.zeros(grid.shape)
    for kvec in np.ndindex(*((max_mode + 1,) * grid.m)):
        if all(k == 0 for k in kvec):
            continue
        damp = 1.0 / float(sum(k * k for k in kvec))
        c, s = rng.uniform(-1.0, 1.0, size=2)
        phase = _phase(grid, coords, kvec)
        pert += damp * (c * np.cos(phase) + s * np.sin(phase))
    sup = np.abs(pert).max()
    if sup > 0.0:
        pert = pert / sup
    r = 1.0 + amplitude * pert
    return RadialField(grid=grid, values=r), sphere_directions(grid, d)


def make_initial(
    grid: PeriodicGrid, preset: str, params, d: int | None = None
) -> tuple[RadialField, DirectionField]:
    """Dispatch on preset name; ``params`` is the positional parameter list.

    Presets: ``ellipse(a, b)``, ``perturbed_sphere(radius, amplitude, *modes)``,
    ``trig_random(seed, max_mode, amplitude)``.  The ellipse is planar, so it
    takes no ambient dimension ``d`` other than 2.
    """
    params = list(params)
    if preset == "ellipse":
        if len(params) != 2:
            raise ValueError("ellipse preset takes parameters (a, b)")
        if d is not None and d != 2:
            raise ValueError(f"ellipse preset is a planar curve: d must be 2, got {d}")
        return ellipse_initial(grid, float(params[0]), float(params[1]))
    if preset == "perturbed_sphere":
        if len(params) < 3:
            raise ValueError("perturbed_sphere preset takes (radius, amplitude, mode, ...)")
        modes = params[2:] if grid.m == 1 else [params[2:]]
        return perturbed_sphere_initial(grid, float(params[0]), float(params[1]), modes, d=d)
    if preset == "trig_random":
        if len(params) != 3:
            raise ValueError("trig_random preset takes (seed, max_mode, amplitude)")
        return trig_random_initial(grid, params[0], params[1], float(params[2]), d=d)
    raise ValueError(f"unknown initial preset {preset!r}")


def reconstruct(r: ScalarField, p: DirectionField) -> np.ndarray:
    """Embedded points ``x = r P``, shape ``grid.shape + (d,)``."""
    if r.grid != p.grid:
        raise ValueError("radius and direction fields live on different grids")
    return r.values[..., None] * p.vectors


def decompose(grid: PeriodicGrid, points: np.ndarray) -> tuple[RadialField, DirectionField]:
    """Split embedded points into ``(|x|, x/|x|)``.

    Raises when any point sits at the origin (the splitting breaks down).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.shape[:-1] != grid.shape:
        raise ValueError("point array does not match grid shape")
    norms = np.sqrt((points**2).sum(axis=-1))
    if not (norms.min() > 0.0):
        raise ValueError("zero-norm point: polar splitting undefined")
    r = RadialField(grid=grid, values=norms)
    p = DirectionField(grid=grid, vectors=points / norms[..., None])
    return r, p

"""Direction transport coupled to the radius field.

The unit-vector field obeys the linear transport equation
``P_t + sum_i f_i(r) dP/dtheta_i = 0``.  A step is an integrating-factor
Runge-Kutta method (Lawson, SIAM J. Numer. Anal. 4, 1967), with classic RK4
as in Kassam & Trefethen (SISC 26, 2005), on the real-FFT half spectrum of
every vector component:

* a constant speed ``c_i`` per axis, the midrange of ``f_i`` over the step
  (it minimises the largest remainder ``|f_i - c_i|``), is applied exactly
  as the phase shift of :func:`.spectral._shift_symbol`;
* RK4 integrates the remainder ``-(f_i - c_i) dP/dtheta_i`` with the
  derivative symbols of :mod:`.spectral`, the set the radius stepper reads.
  The stage speeds come from the radius at the start, the middle and the
  end of the step: a substep at a fraction 0, 1/2 or 1 of the step takes
  that radius's speeds as they are, and only the others are interpolated;
* the vectors are renormalized to unit length, which enforces the sphere
  constraint exactly.

The largest remainder speeds times the top wavenumbers of the derivative
symbols give the RK4 argument of the step.  It is computed every step, and
the step splits into as many RK4 substeps as keep it below 2.8, just inside
RK4's stability limit ``2 sqrt 2`` on the imaginary axis.  For a constant
flux the remainder vanishes and the shift is the whole step.  The radius
CFL bound keeps the argument below ``m pi / 2`` on ``m`` axes: one substep
on 1 axis, up to two on 2 axes at the CFL bound.

:func:`evolve_coupled` runs the radius time loop of :mod:`.spectral` and
hands it this step as the hook that carries the direction vectors.  The
loop gives the hook the radius at the middle and the end of each step; the
hook keeps the end's speeds and their extrema as the next step's start, so
``f(r)`` is evaluated twice a step, and once for a constant flux, whose
middle is its end.  The speeds are ``a_i f_i(r)`` from the one flux
evaluator, :func:`.flux._horner`.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import SolverError
from .flux import FluxSpec, _check_axes, _horner
from .grid import DirectionField, PeriodicGrid, RadialField, ScalarField
from .spectral import (
    SolveConfig,
    Trajectory,
    _at,
    _derivative_symbols,
    _irfft,
    _laplacian_half,
    _march,
    _rfft,
    _shift_symbol,
)

__all__ = ["transport_step", "evolve_coupled"]

_RK4_REACH = 2.8  # largest RK4 argument a substep may take; the limit is 2 sqrt 2
_EXACT_TAU = {0.0: 0, 0.5: 1, 1.0: 2}  # step fractions that fall on a stage, and its index


def _speeds(spec: FluxSpec, mods: list, r_vals: np.ndarray) -> list[np.ndarray]:
    """``a_i f_i(r)`` per axis, grid-shaped for every degree; ``mods[i]`` is ``a_i``, or None for one."""
    return [_horner(c.coeffs, r_vals, mod) for c, mod in zip(spec.components, mods)]


def _extrema(speeds: list[np.ndarray]) -> list[tuple[float, float]]:
    """Per axis, the (min, max) of one stage's speeds."""
    return [(float(s.min()), float(s.max())) for s in speeds]


def _rest_at(rests: list[list[np.ndarray]], tau: float) -> list[np.ndarray]:
    """Remainder speeds at the fraction ``tau`` of the step: the quadratic through the three stages.

    ``rests`` holds the per-axis remainder speeds at the start, the middle
    and the end of the step.  At ``tau`` = 0, 1/2 and 1 the Lagrange weights
    are exactly 1 and two (signed) zeros, so that stage's own arrays come
    back, with no product or sum: equal to the weighted sum wherever a
    remainder speed is finite and not ``-0.0`` (which the sum may turn into
    ``+0.0``).
    """
    exact = _EXACT_TAU.get(tau)
    if exact is not None:
        return rests[exact]
    l0 = 2.0 * (tau - 0.5) * (tau - 1.0)
    lm = 4.0 * tau * (1.0 - tau)
    l1 = 2.0 * tau * (tau - 0.5)
    return [l0 * a + lm * b + l1 * c for a, b, c in zip(*rests)]


@lru_cache(maxsize=32)
def _component_derivatives(grid: PeriodicGrid, d: int) -> tuple[tuple, tuple]:
    """The derivative symbols at the shape ``(d, *half)`` of ``d`` component spectra, and their tops.

    A symbol's top is the largest wavenumber ``|kappa_i|`` it passes.
    """
    derivs = _derivative_symbols(grid)
    half = (d, *_laplacian_half(grid).shape)
    return tuple(_at(s, half) for s in derivs), tuple(float(np.abs(s).max()) for s in derivs)


def _substeps(tops: tuple[float, ...], rest: list[float], dt: float) -> int:
    """RK4 substeps that keep ``sum_i rest_i * tops_i * |dt|`` below ``_RK4_REACH`` each.

    ``rest[i]`` bounds the remainder speed ``|f_i - c_i|`` and ``tops[i]`` is
    the top wavenumber the derivative symbol of axis ``i`` passes.
    """
    reach = abs(dt) * sum(s * top for s, top in zip(rest, tops))
    return math.ceil(reach / _RK4_REACH)


def _carry(
    vectors: np.ndarray, grid: PeriodicGrid, speeds: list, dt: float, extrema: list | None = None
) -> np.ndarray:
    """Transport unit vectors, ``(*grid.shape, d)`` as in :class:`.DirectionField`, over ``dt``.

    ``speeds`` holds the per-axis speeds at the start, the middle and the end
    of the step, and ``extrema`` the :func:`_extrema` of each, which are
    taken here when the caller does not pass them.  Substeps take their
    speeds from the quadratic through the three (:func:`_rest_at`), which
    is not evaluated at the step's start, middle and end.

    Inside, the component axis leads: one transposed view on entry (the view
    ``np.moveaxis`` makes, without its per-call axis checks) makes it a batch
    axis of :func:`.spectral._rfft`, and one on exit gives the renormalized
    vectors back as a new ``(*grid.shape, d)`` array.  The derivative symbols
    come at the spectra's shape, built once per grid and ``d`` with their top
    wavenumbers; speeds and shifts broadcast over the components.  The
    stages combine in place, in the operand order of the classic formulas,
    on spectra that :func:`.spectral._rfft` made for this call.
    """
    if extrema is None:
        extrema = [_extrema(s) for s in speeds]
    lo = [min(e[i][0] for e in extrema) for i in range(grid.m)]
    hi = [max(e[i][1] for e in extrema) for i in range(grid.m)]
    centre = [0.5 * (a + b) for a, b in zip(lo, hi)]
    derivs, tops = _component_derivatives(grid, vectors.shape[-1])
    n_sub = _substeps(tops, [0.5 * (b - a) for a, b in zip(lo, hi)], dt)
    hat = _rfft(grid, vectors.transpose(grid.m, *range(grid.m)))
    if n_sub == 0:
        np.multiply(hat, _shift_symbol(grid, centre, dt), out=hat)
    else:
        h = dt / n_sub
        shift = _shift_symbol(grid, centre, h)
        shift_half = _shift_symbol(grid, centre, h / 2.0)
        two_shift_half = 2.0 * shift_half
        rests = [[v - c for v, c in zip(s, centre)] for s in speeds]
        scratch, stage = np.empty_like(hat), np.empty_like(hat)

        def rate(rest: list[np.ndarray], state: np.ndarray) -> np.ndarray:
            """Spectrum of ``-sum_i rest_i dP/dtheta_i``, a new array."""
            total = None
            for w, deriv in zip(rest, derivs):
                term = _irfft(grid, np.multiply(deriv, state, out=scratch))
                np.multiply(w, term, out=term)
                total = term if total is None else np.add(total, term, out=total)
            return _rfft(grid, total)

        for j in range(n_sub):
            w0, wm, w1 = (_rest_at(rests, (j + x) / n_sub) for x in (0.0, 0.5, 1.0))
            k1 = rate(w0, hat)
            # shift_half * (hat + h/2 k1)
            np.multiply(h / 2.0, k1, out=stage)
            np.add(hat, stage, out=stage)
            k2 = rate(wm, np.multiply(shift_half, stage, out=stage))
            # shift_half * hat + h/2 k2
            np.multiply(shift_half, hat, out=stage)
            stage += np.multiply(h / 2.0, k2, out=scratch)
            k3 = rate(wm, stage)
            # shift * hat + h (shift_half * k3)
            np.multiply(shift, hat, out=stage)
            np.multiply(shift_half, k3, out=scratch)
            stage += np.multiply(h, scratch, out=scratch)
            k4 = rate(w1, stage)
            # shift (hat + h/6 k1) + h/6 (2 shift_half (k2 + k3) + k4)
            np.multiply(h / 6.0, k1, out=k1)
            np.add(hat, k1, out=k1)
            np.multiply(shift, k1, out=k1)
            np.add(k2, k3, out=k2)
            np.multiply(two_shift_half, k2, out=k2)
            np.add(k2, k4, out=k2)
            np.multiply(h / 6.0, k2, out=k2)
            hat = np.add(k1, k2, out=k1)
    out = _irfft(grid, hat)
    norms = np.sqrt((out**2).sum(axis=0))
    if not (norms.min() > 0.0):
        raise SolverError("direction vector collapsed to zero during transport")
    out /= norms
    return out.transpose(*range(1, grid.m + 1), 0)


def transport_step(
    p: DirectionField, r: ScalarField, spec: FluxSpec, dt: float
) -> DirectionField:
    """One integrating-factor RK4 step of the direction field through the frozen radius ``r``.

    The returned field is renormalized so every vector is unit length to
    within 1e-12.  Raises ``ValueError`` when the fields live on different
    grids, the flux does not have one component per axis, or ``dt`` is not
    finite.
    """
    grid = p.grid
    if grid != r.grid:
        raise ValueError("direction and radius fields live on different grids")
    _check_axes(grid, spec)
    if not math.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt!r}")
    mods = [spec.modulation_values(grid, i) for i in range(spec.m)]
    speeds = _speeds(spec, mods, r.values)
    vectors = _carry(p.vectors, grid, [speeds] * 3, dt, [_extrema(speeds)] * 3)
    return DirectionField(grid=grid, vectors=vectors)


def evolve_coupled(
    r0: RadialField, p0: DirectionField, spec: FluxSpec, cfg: SolveConfig
) -> Trajectory:
    """Interleaved evolution of radius and direction.

    The radius advances first (its equation is autonomous); the direction is
    then transported with stage speeds from the radius at the start, the
    half time and the end of the step.  The hook keeps each step's end
    speeds and their extrema as the next step's start; ``r0``'s are
    evaluated on its first call, so a run rejected before its first step
    evaluates none.  A constant flux's end speeds stand in for its middle.
    Positivity of the radius is required
    at start and enforced throughout - losing it breaks the polar splitting
    and aborts the run.  The recorded vectors stack into ``directions``.
    """
    grid = r0.grid
    if grid != p0.grid:
        raise ValueError("radius and direction fields live on different grids")
    if not (r0.values.min() > 0.0):
        raise SolverError("initial radius must be strictly positive")
    _check_axes(grid, spec)
    mods = [spec.modulation_values(grid, i) for i in range(spec.m)]
    last = None  # the (speeds, extrema) of the radius that ended the last step

    def stage(r: np.ndarray) -> tuple:
        speeds = _speeds(spec, mods, r)
        return speeds, _extrema(speeds)

    def carry(vectors: np.ndarray, mid: np.ndarray | None, end: np.ndarray, dt: float) -> np.ndarray:
        nonlocal last
        start = stage(r0.values) if last is None else last
        last = stage(end)
        stages = (start, last if mid is None else stage(mid), last)
        return _carry(vectors, grid, [s for s, _ in stages], dt, [e for _, e in stages])

    return _march([r0], spec, cfg, (p0.vectors, carry))[0]

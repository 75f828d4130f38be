"""Spectral time integrator for the polar split: the radius and its directions.

The scalar field obeys ``r_t + sum_i d/dtheta_i g_i(r) = Lap r`` on the torus.
Each step is a Strang composition: exact half-step of the heat flow (mode-wise
multiplier), a full advective substep in divergence form, and another exact
half-step of heat.  The diffusive part therefore carries no CFL restriction;
only the advective limit remains.

Every field is real, so one operator serves the stepper, :func:`heat_propagate`,
:func:`galilean_shift`, the stationary solver of :mod:`.cell`, direction
transport and the mode amplitudes of :func:`_record_moduli`: real FFTs onto the
half mode lattice, with every multiplier built there from per-axis
wavenumbers (:func:`_half_axes`).  A real field's derivative along an axis is
zero at that axis's Nyquist index, and where axes sit at theirs a translation
keeps only the cosine of their summed phase.  :func:`_rfft` and
:func:`_irfft` call the gufuncs of ``numpy.fft._pocketfft_umath`` (numpy
>= 2.0) that ``rfftn``/``irfftn`` reach, ``rfft_n_even``/``fft`` forward and
``ifft``/``irfft`` back, with ``np.fft``'s normalisation and a new C-ordered
output: bitwise equal, without the n-d wrapper and per-call checks that
cost most of a small transform.  They transform the trailing grid axes, so
batch axes (members, vector components, records) lead.  The stepper carries
the state as this half spectrum and builds its multipliers once at the
state's shape; the time loop transforms back only where it needs samples.
One loop, :func:`_march`, steps any number of initial radii together on a
leading member axis, each member bitwise equal to its own run; a single run
(:func:`evolve`, or :func:`evolve_coupled`, which also carries the
directions) is a batch of one.  Records are that same array behind a record
axis, ``(records, members, *grid.shape)``, filled in place; a
:class:`Trajectory` holds a member's view.

The advective substep differentiates ``a_i g_i(r)``, a component's ``g`` and
the samples of :meth:`.flux.FluxSpec.resolve`, with :func:`_derivative_symbols`,
the one set that :mod:`.cell` and direction transport read too, and advances
with a midpoint Runge-Kutta stage, except when every flux component is an
unmodulated constant (degree 0): then the whole step is one product with the
cached heat-times-shift multiplier.
Either way the zero mode of the spectrum is only ever multiplied by one, so
the field mean is conserved to roundoff.

The unit-vector field obeys the linear transport equation
``P_t + sum_i f_i(r) dP/dtheta_i = 0``.  A step is an integrating-factor
Runge-Kutta method (Lawson, SIAM J. Numer. Anal. 4, 1967), with classic RK4
as in Kassam & Trefethen (SISC 26, 2005), on the real-FFT half spectrum of
every vector component:

* a constant speed ``c_i`` per axis, the midrange of ``f_i`` over the step
  (it minimises the largest remainder ``|f_i - c_i|``), is applied exactly
  as the phase shift of :func:`_shift_symbol`, which is built again only
  when the speeds or the step change bit for bit;
* RK4 integrates the remainder ``-(f_i - c_i) dP/dtheta_i`` with the
  derivative symbols the radius stepper reads.  The stage speeds come from
  the radius at the start, the middle and the end of the step: a substep at
  a fraction 0, 1/2 or 1 of the step takes that radius's speeds as they
  are, and only the others are interpolated;
* the vectors are renormalized to unit length, which enforces the sphere
  constraint exactly.

The largest remainder speeds times the top wavenumbers of the derivative
symbols give the RK4 argument of the step.  It is computed every step, and
the step splits into as many RK4 substeps as keep it below 2.8, just inside
RK4's stability limit ``2 sqrt 2`` on the imaginary axis.  For a constant
flux the remainder vanishes and the shift is the whole step.  The radius
CFL bound keeps the argument below ``m pi / 2`` on ``m`` axes: one substep
on 1 axis, up to two on 2 axes at the CFL bound.

:func:`_march` transports the vectors after each radius step of a coupled
run, keeping each step's end stage as the next one's start, so ``f(r)`` is
evaluated twice a step, and once for a constant flux, whose middle is its
end.  A stage is a
radius's speeds ``a_i f_i(r)``, from the one flux evaluator
:func:`.flux._horner` and the modulation samples of
:meth:`.flux.FluxSpec.resolve`, with their extrema; :func:`_stage` builds
every stage, for the time loop and for :func:`transport_step` alike.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np
from numpy.fft import _pocketfft_umath as _pfu

from .errors import SolverError
from .flux import FluxSpec, _horner, advective_speed_bound
from .grid import DirectionField, PeriodicGrid, RadialField, ScalarField

__all__ = [
    "SolveConfig",
    "Trajectory",
    "heat_propagate",
    "galilean_shift",
    "evolve",
    "max_stable_dt",
    "transport_step",
    "evolve_coupled",
]

MAX_PRINCIPLE_SLACK = 1e-8
CFL_NUMBER = 0.5
_AXES = tuple([(-a,), (), (-a,)] for a in range(65))  # gufunc axes=[...] on grid axis -a, built once
_EXACT_STEP_LIMIT = np.finfo(np.float64).max / 2.0  # see _Stepper.start
_RK4_REACH = 2.8  # largest RK4 argument a substep may take; the limit is 2 sqrt 2
_EXACT_TAU = {0.0: 0, 0.5: 1, 1.0: 2}  # step fractions that fall on a stage, and its index


@dataclass(frozen=True)
class SolveConfig:
    """Time-integration parameters.

    ``dt`` must respect the advective stability bound (checked at the start of
    :func:`evolve` against the initial data); ``record_every`` is the snapshot
    stride in steps.
    """

    dt: float
    t_end: float
    record_every: int = 1

    def __post_init__(self) -> None:
        if not (self.dt > 0.0):
            raise ValueError("dt must be positive")
        if not (self.t_end > 0.0):
            raise ValueError("t_end must be positive")
        if not (math.isfinite(self.dt) and math.isfinite(self.t_end)):
            raise ValueError("dt and t_end must be finite")
        every = self.record_every
        if isinstance(every, bool) or not isinstance(every, numbers.Integral) or every < 1:
            raise ValueError(f"record_every must be an integer >= 1, got {every!r}")


@dataclass(eq=False)
class Trajectory:
    """Recorded run of one member: arrays with a leading record axis.

    ``times`` is ``(records,)``, ``radii`` ``(records, *grid.shape)`` and
    ``directions`` ``(records, *grid.shape, d)``, or None for a radius-only
    run; :func:`_march` makes all three read-only.  The diagnostics columns,
    one value per record, reduce the grid axes of ``radii``: ``l1`` is the
    torus L1 norm and ``sphere_dev`` the sup distance from the initial mean.
    """

    grid: PeriodicGrid
    spec: FluxSpec
    times: np.ndarray
    radii: np.ndarray
    directions: np.ndarray | None = None
    flags: list[str] = dc_field(default_factory=list)
    mean: np.ndarray = dc_field(init=False)
    sup: np.ndarray = dc_field(init=False)
    min: np.ndarray = dc_field(init=False)
    l1: np.ndarray = dc_field(init=False)
    sphere_dev: np.ndarray = dc_field(init=False)

    def __post_init__(self) -> None:
        axes = self._grid_axes
        self.mean = self.radii.mean(axis=axes)
        self.min = self.radii.min(axis=axes)
        buf = self.radii - self.mean[0]  # one record-sized buffer serves the |.| columns
        self.sphere_dev = np.abs(buf, out=buf).max(axis=axes)
        np.abs(self.radii, out=buf)
        self.sup = buf.max(axis=axes)
        self.l1 = buf.mean(axis=axes) * self.grid.volume

    @property
    def _grid_axes(self) -> tuple[int, ...]:
        return tuple(range(1, self.grid.m + 1))

    @property
    def final(self) -> ScalarField:
        return ScalarField(grid=self.grid, values=self.radii[-1])


def _rfft(grid: PeriodicGrid, vals: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalised real FFT of float64 grid values onto the half mode lattice.

    ``rfftn`` over the trailing ``grid.m`` axes, as its own sequence of
    pocketfft kernel calls: ``rfft`` on the last axis into ``out``, then
    ``fft`` in place on each other grid axis, last to first (the gufunc
    reads a line before it writes it).  ``out`` is a new C-ordered array
    unless the caller passes one of that shape: one that copied the strides
    of a strided ``vals`` (``empty_like``) would leave every later spectrum
    strided, and slow.
    """
    res = grid.resolution
    if out is None:
        out = np.empty((*vals.shape[:-1], res[-1] // 2 + 1), complex)  # even: make_grid rejects odd N
    _pfu.rfft_n_even(vals, 1.0, out=out)  # a gufunc's core axis is the last by default
    for a in range(2, len(res) + 1):
        _pfu.fft(out, 1.0, axes=_AXES[a], out=out)
    return out


def _irfft(grid: PeriodicGrid, hat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`_rfft`: ``ifft`` on the other grid axes, first to last, then ``irfft``.

    The grid values go into ``out`` when the caller passes a C-ordered float
    array of their shape, else into a new one; ``hat`` is left as it was.
    """
    res = grid.resolution
    for a in range(len(res), 1, -1):
        hat = _pfu.ifft(hat, 1.0 / res[-a], axes=_AXES[a], out=np.empty(hat.shape, complex))
    if out is None:
        out = np.empty((*hat.shape[:-1], res[-1]))
    return _pfu.irfft(hat, 1.0 / res[-1], out=out)


def _record_moduli(grid: PeriodicGrid, radii: np.ndarray) -> np.ndarray:
    """Half-lattice amplitude moduli of ``(records, *grid.shape)`` radii, records first.

    ``hypot(re, im)`` is bitwise Python's ``abs``; ``np.abs`` of a complex array is not.
    """
    z = _rfft(grid, radii)
    z /= grid.num_nodes
    return np.hypot(z.real, z.imag)


@lru_cache(maxsize=32)
def _half_axes(grid: PeriodicGrid) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Per axis, broadcast-ready half-lattice signed modes, wavenumbers and Nyquist flags.

    The wavenumbers are ``grid.wavenumbers(ax)``, cut at ``N/2 + 1`` on the
    last axis, so every axis, the last included, carries its Nyquist index as
    the negative mode ``-N/2`` and wavenumber ``-pi N / L``.
    """
    out = []
    for ax, n in enumerate(grid.resolution):
        size = n // 2 + 1 if ax == grid.m - 1 else n
        shape = [1] * grid.m
        shape[ax] = size
        mode = np.arange(size)
        mode[n // 2 :] -= n
        arrays = (mode, grid.wavenumbers(ax)[:size], mode == -(n // 2))
        for arr in arrays:
            arr.shape = shape
            arr.flags.writeable = False
        out.append(arrays)
    return tuple(out)


@lru_cache(maxsize=32)
def _laplacian_half(grid: PeriodicGrid) -> np.ndarray:
    """``|kappa|^2`` on the half lattice."""
    out = sum(k**2 for _, k, _ in _half_axes(grid))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def _derivative_symbols(grid: PeriodicGrid) -> tuple[np.ndarray, ...]:
    """Per axis, the half-lattice symbol ``-i kappa_i`` of ``-d/dtheta_i``, zero at the Nyquist index.

    A real field's odd derivative is zero there.  Every operator reads this one set.
    """
    out = tuple(np.where(nyquist, 0.0, -1j * k) for _, k, nyquist in _half_axes(grid))
    for sym in out:
        sym.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def _split_wavenumbers(grid: PeriodicGrid) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per axis, the half-lattice wavenumbers zeroed at the Nyquist index, and only there."""
    out = []
    for _, k, nyquist in _half_axes(grid):
        pair = (np.where(nyquist, 0.0, k), np.where(nyquist, k, 0.0))
        for arr in pair:
            arr.flags.writeable = False
        out.append(pair)
    return tuple(out)


def _shift_symbol(grid: PeriodicGrid, speeds, t: float) -> np.ndarray:
    """Half-lattice multiplier of the translation ``f(theta) -> f(theta - c t)``.

    The phase ``exp(-i c t kappa)`` off every Nyquist index; where axes sit
    at theirs, a real field sees only the cosine of their summed phase.
    """
    off = at = 0.0
    for c, (k_off, k_at) in zip(speeds, _split_wavenumbers(grid)):
        ct = c * t
        off = off + ct * k_off
        at = at + ct * k_at
    return np.exp(-1j * off) * np.cos(at)


def heat_propagate(f: ScalarField, t: float) -> ScalarField:
    """Exact heat flow: every mode decays by ``exp(-|kappa|^2 t)``."""
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError(f"t must be non-negative and finite, got {t!r}")
    if t == 0.0:
        return f
    hat = _rfft(f.grid, f.values) * np.exp(-_laplacian_half(f.grid) * t)
    return ScalarField(grid=f.grid, values=_irfft(f.grid, hat))


def galilean_shift(f: ScalarField, speeds, t: float) -> ScalarField:
    """Sample ``f(theta - c t)`` via a spectral phase shift.

    Raises ``ValueError`` unless ``t``, every speed and every phase
    ``c_i t kappa_i`` up to the Nyquist wavenumber are finite.
    """
    speeds = np.asarray(speeds, dtype=np.float64)
    if speeds.shape != (f.grid.m,):
        raise ValueError("one shift speed per grid axis required")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    # Python floats overflow to inf without a warning
    tops = (math.pi * n / L for n, L in zip(f.grid.resolution, f.grid.lengths))
    if not all(math.isfinite(c * t * top) for c, top in zip(speeds.tolist(), tops)):
        raise ValueError(
            f"speeds must be finite with a finite phase c t kappa, got {speeds.tolist()} at t={t!r}"
        )
    hat = _rfft(f.grid, f.values) * _shift_symbol(f.grid, speeds, t)
    return ScalarField(grid=f.grid, values=_irfft(f.grid, hat))


def _flux_divergence(
    grid: PeriodicGrid, derivs, mods, g_coeffs, vals: np.ndarray, flux=None, out=None
) -> np.ndarray:
    """Spectrum of ``-sum_i d/dtheta_i (a_i g_i(vals))``: ``sum_i derivs[i] * rfft(a_i g_i(vals))``.

    ``derivs`` are the symbols of ``-d/dtheta_i`` (:func:`_derivative_symbols`),
    ``mods`` is :meth:`.flux.FluxSpec.resolve`, and ``g_coeffs[i]`` holds the
    coefficients of ``g_i``, a component's ``g``.
    :func:`.flux._horner` evaluates each ``a_i g_i`` into ``flux``, which is
    transformed into ``out``, where the sum is taken; either is a new array
    unless the caller passes one.  The stepper and the stationary operator of
    :mod:`.cell` share it.
    """
    for i, (deriv, mod, coeffs) in enumerate(zip(derivs, mods, g_coeffs)):
        flux = _horner(coeffs, vals, mod, flux)
        if i == 0:
            out = _rfft(grid, flux, out)
            np.multiply(deriv, out, out=out)
        else:
            term = _rfft(grid, flux)
            np.multiply(deriv, term, out=term)
            np.add(out, term, out=out)
    return out


def _at(arr: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``arr`` broadcast to a new read-only C-ordered array of ``shape`` (see :class:`_Stepper`)."""
    out = np.broadcast_to(arr, shape).copy()
    out.flags.writeable = False
    return out


class _Stepper:
    """Strang steps of size ``dt`` on one (grid, flux), acting on the rfft spectrum.

    The state is the unnormalised half-lattice spectrum (:func:`_rfft`) of
    grid values, with the leading member axes ``batch``: :meth:`start`
    transforms the initial values, :meth:`advance` maps the spectrum to the
    spectrum one step later, and the drivers transform back
    (:func:`_irfft`) only where they need grid samples.  The symbols are
    built once, with the grid's shape, and copied to the state's shape, so
    every member sees the same elementwise arithmetic and the same per-line
    transforms as when it is stepped alone, and every product takes numpy's
    same-shape loop, twice as fast on a small state as the broadcasting one.
    They are the half-step heat multiplier (complex, so that no product
    casts) and, for a general flux, one derivative symbol and one modulation
    per axis; for an unmodulated constant flux, the whole step (``H^2``
    times the shift).  ``dt``, ``dt/2`` and the coefficients of ``g_i`` are
    0-d arrays, ``dt`` complex like the spectrum it scales, which numpy takes
    without converting a float on every call; the products are the same.

    A general step calls :func:`_flux_divergence` twice, with two
    workspaces of the state's shape that the stepper keeps: the grid values
    of ``a_i g_i`` from :func:`.flux._horner` (then the rate at the half
    step) and the divergence spectrum.  Neither leaves :meth:`advance`,
    which combines its stages in
    place, in the operand order of ``half + dt/2 * D(half)`` and
    ``(hh + dt * D(mid)) * H``, into the arrays of ``half`` and ``hh`` that
    it makes and returns.  Its new spectrum is scanned for non-finite
    values.  A constant-flux step's is not: it multiplies by ``H^2`` times
    the shift, of modulus at most 1 up to ulps, so a spectrum whose parts all
    lie within half the float range, as :meth:`start` checks, stays finite
    however long it steps.
    """

    def __init__(self, grid: PeriodicGrid, spec: FluxSpec, dt: float, batch: tuple[int, ...]):
        mods = spec.resolve(grid)
        self.grid, self.dt = grid, dt
        self._dt, self._half_dt = np.array(dt, complex), np.array(dt / 2.0)
        lap = _laplacian_half(grid)
        half = (*batch, *lap.shape)
        half_heat = np.exp(-lap * (dt / 2.0))
        self.half_heat = _at(half_heat.astype(complex), half)
        self.exact_step = None
        if spec.is_constant:
            shift = _shift_symbol(grid, spec.constant_speeds, dt)
            self.exact_step = _at(half_heat * half_heat * shift, half)
        else:
            self.derivs = [_at(d, half) for d in _derivative_symbols(grid)]
            self.modulations = [None if a is None else _at(a, (*batch, *grid.shape)) for a in mods]
            self.g_coeffs = [tuple(map(np.array, c.g)) for c in spec.components]
            self._flux, self._div = np.empty((*batch, *grid.shape)), np.empty(half, complex)

    def start(self, vals: np.ndarray) -> np.ndarray:
        """The spectrum of the grid values ``vals`` to step from.

        For a constant flux, whose steps are not scanned, raises
        :class:`SolverError` unless every real and imaginary part of it is
        at most half the largest float: a finite field whose transform
        overflows fails here, before any step.
        """
        hat = _rfft(self.grid, vals)
        if self.exact_step is not None:
            top = np.abs(hat.view(np.float64)).max()
            if not (top <= _EXACT_STEP_LIMIT):
                raise SolverError(f"initial spectrum part {top:.3e} is beyond half the float range")
        return hat

    def advance(self, hat: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """One full step; returns (new_spectrum, half_time_values).

        A constant-flux step is one product with no half-time stage, and
        returns None for the half-time values.
        """
        if self.exact_step is not None:
            return hat * self.exact_step, None
        grid, flux, div = self.grid, self._flux, self._div
        operator = (grid, self.derivs, self.modulations, self.g_coeffs)
        new = hat * self.half_heat  # hh, combined in place into the new spectrum
        mid = _irfft(grid, new)
        rate = _irfft(grid, _flux_divergence(*operator, mid, flux, div), flux)
        mid += np.multiply(self._half_dt, rate, out=rate)
        div = _flux_divergence(*operator, mid, flux, div)
        np.multiply(self._dt, div, out=div)
        np.add(new, div, out=new)
        np.multiply(new, self.half_heat, out=new)
        if np.count_nonzero(np.isfinite(new)) < new.size:  # half the cost of .all()
            raise SolverError("non-finite field after step")
        return new, mid


def max_stable_dt(grid: PeriodicGrid, spec: FluxSpec, field_bound: float) -> float:
    """Advective CFL bound; diffusion is integrated exactly and imposes none.

    Raises ``ValueError`` unless the flux has one component per grid axis and
    ``field_bound`` is non-negative and finite.
    """
    spec.resolve(grid)
    h_min = min(grid.spacings)
    return CFL_NUMBER * h_min / (1.0 + advective_speed_bound(spec, field_bound))


def _schedule(
    grid: PeriodicGrid, spec: FluxSpec, cfg: SolveConfig, sup0: float
) -> tuple[int, float]:
    """Check ``cfg.dt`` against the stability bound; return (steps, tail step).

    The steps are the full steps of ``cfg.dt`` and, when ``cfg.dt`` leaves
    more than roundoff of ``t_end`` after them, one shorter tail step; its
    size is the second value, 0 when there is none.
    """
    dt_max = max_stable_dt(grid, spec, sup0)
    if cfg.dt > dt_max * (1.0 + 1e-12):
        raise SolverError(
            f"dt={cfg.dt:.3e} violates advective stability bound {dt_max:.3e}"
        )
    steps = cfg.t_end / cfg.dt
    if not math.isfinite(steps):
        raise SolverError(f"dt={cfg.dt:.3e} takes too many steps to reach t_end={cfg.t_end:.6g}")
    n_full = int(np.floor(steps + 1e-12))
    remainder = cfg.t_end - n_full * cfg.dt
    if remainder < 1e-12 * max(1.0, cfg.t_end):
        return n_full, 0.0
    return n_full + 1, remainder


def _record_count(n_steps: int, every: int) -> int:
    """Records a run of ``n_steps`` steps keeps: its start, every ``every``-th step and its last."""
    return 1 + n_steps // every + (n_steps % every > 0)


def _stage(spec: FluxSpec, grid: PeriodicGrid, r_vals: np.ndarray) -> tuple[list, list]:
    """One stage's speeds ``a_i f_i(r)`` per axis, grid-shaped, and the (min, max) of each.

    ``a_i`` comes from :meth:`.flux.FluxSpec.resolve`.  Every stage speed is evaluated here.
    """
    speeds = [_horner(c.coeffs, r_vals, a) for c, a in zip(spec.components, spec.resolve(grid))]
    return speeds, [(float(s.min()), float(s.max())) for s in speeds]


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


@lru_cache(maxsize=3)
def _packed_shift(grid: PeriodicGrid, bits: bytes) -> np.ndarray:
    """:func:`_shift_symbol` of the speeds and the time packed in ``bits``, read-only."""
    *speeds, t = struct.unpack(f"{len(bits) // 8}d", bits)
    shift = _shift_symbol(grid, speeds, t)
    shift.flags.writeable = False
    return shift


def _shift(grid: PeriodicGrid, speeds: list[float], t: float) -> np.ndarray:
    """:func:`_shift_symbol`, reused while the speeds and the time repeat bit for bit.

    Keyed on the bits, which keep ``-0.0`` apart from ``0.0``.  A step takes
    at most three: the whole step's, or a substep's and its half's.
    """
    return _packed_shift(grid, struct.pack(f"{len(speeds) + 1}d", *speeds, t))


def _substeps(tops: tuple[float, ...], rest: list[float], dt: float) -> int:
    """RK4 substeps that keep ``sum_i rest_i * tops_i * |dt|`` below ``_RK4_REACH`` each.

    ``rest[i]`` bounds the remainder speed ``|f_i - c_i|`` and ``tops[i]`` is
    the top wavenumber the derivative symbol of axis ``i`` passes.
    """
    reach = abs(dt) * sum(s * top for s, top in zip(rest, tops))
    return math.ceil(reach / _RK4_REACH)


def _carry(vectors: np.ndarray, grid: PeriodicGrid, stages: list, dt: float) -> np.ndarray:
    """Transport unit vectors, ``(*grid.shape, d)`` as in :class:`.DirectionField`, over ``dt``.

    ``stages`` holds the :func:`_stage` of the radius at the start, the
    middle and the end of the step, each its per-axis speeds and their
    extrema.  Substeps take their speeds from the quadratic through the
    three (:func:`_rest_at`), which is not evaluated at the step's start,
    middle and end.

    Inside, the component axis leads: one transposed view on entry (the view
    ``np.moveaxis`` makes, without its per-call axis checks) makes it a batch
    axis of :func:`_rfft`, and one on exit gives the renormalized
    vectors back as a new ``(*grid.shape, d)`` array.  The derivative symbols
    come at the spectra's shape, built once per grid and ``d`` with their top
    wavenumbers; speeds and shifts broadcast over the components.  The
    stages combine in place, in the operand order of the classic formulas,
    on spectra that :func:`_rfft` made for this call.
    """
    lo = [min(e[i][0] for _, e in stages) for i in range(grid.m)]
    hi = [max(e[i][1] for _, e in stages) for i in range(grid.m)]
    centre = [0.5 * (a + b) for a, b in zip(lo, hi)]
    derivs, tops = _component_derivatives(grid, vectors.shape[-1])
    n_sub = _substeps(tops, [0.5 * (b - a) for a, b in zip(lo, hi)], dt)
    hat = _rfft(grid, vectors.transpose(grid.m, *range(grid.m)))
    if n_sub == 0:
        np.multiply(hat, _shift(grid, centre, dt), out=hat)
    else:
        h = dt / n_sub
        shift = _shift(grid, centre, h)
        shift_half = _shift(grid, centre, h / 2.0)
        two_shift_half = 2.0 * shift_half
        rests = [[v - c for v, c in zip(s, centre)] for s, _ in stages]
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
    if not math.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt!r}")
    vectors = _carry(p.vectors, grid, [_stage(spec, grid, r.values)] * 3, dt)
    return DirectionField(grid=grid, vectors=vectors)


def _march(
    r0s: list[ScalarField], spec: FluxSpec, cfg: SolveConfig, p0: np.ndarray | None = None
) -> list[Trajectory]:
    """The one time loop: :func:`evolve`, :func:`evolve_coupled` and ensemble runs.

    ``r0s`` holds the initial radii of the members, which must share a grid
    (else ``ValueError``).  They are stacked on a leading member axis and
    stepped together; the loop returns one trajectory per member, each
    bitwise equal to the run of that member alone.  ``cfg.dt`` is checked
    once, against the largest initial sup norm, so a batch raises the
    :class:`SolverError` its largest member would; each member gets its own
    columns and flags.

    Records fall every ``record_every`` steps and at ``t_end``, which a
    shorter tail step reaches when ``dt`` does not divide it; each is copied
    into its slot of the preallocated arrays (see :class:`Trajectory`), and
    arrays too large to allocate raise :class:`SolverError`.
    ``p0``, when given (one member only), holds the initial direction
    vectors, ``(*grid.shape, d)``.  After each radius step, which must leave
    the radius positive, :func:`_carry` transports them through the
    :func:`_stage` of the radius at the step's start, middle and end.  Each
    end stage is the next step's start; the initial radius's is built once
    the schedule, the records and the initial spectrum have passed their
    checks, so a run rejected before its first step builds none.  A
    constant-flux step has no half-time values, and its end stage stands in
    for its middle.  A failing step raises naming its index and time.
    """
    grid = r0s[0].grid
    if any(r.grid != grid for r in r0s):
        raise ValueError("ensemble members live on different grids")
    vals = np.stack([r.values for r in r0s])
    n_steps, tail = _schedule(grid, spec, cfg, float(np.abs(vals).max()))
    n_records = _record_count(n_steps, cfg.record_every)
    coupled, p = p0 is not None, p0
    try:
        times, radii = np.zeros(n_records), np.empty((n_records, *vals.shape))
        directions = np.empty((n_records, *p.shape)) if coupled else None
    except (ValueError, MemoryError) as exc:
        raise SolverError(
            f"cannot allocate {n_records:.3g} records of dt={cfg.dt:.3e} to t_end={cfg.t_end:.6g}: {exc}"
        ) from exc
    batch = vals.shape[:1]
    stepper = _Stepper(grid, spec, cfg.dt, batch)
    radii[0], slot = vals, 1
    if coupled:
        directions[0] = p
    hat = stepper.start(vals)
    last = _stage(spec, grid, vals[0]) if coupled else None  # the stage that ended the last step
    advance, dt, every = stepper.advance, cfg.dt, cfg.record_every
    for k in range(1, n_steps + 1):
        t = k * dt
        if tail and k == n_steps:
            stepper = _Stepper(grid, spec, tail, batch)
            advance, t = stepper.advance, cfg.t_end
        try:
            hat, mid = advance(hat)
            if coupled:
                vals = _irfft(grid, hat)
                if not (vals.min() > 0.0):
                    raise SolverError(
                        f"positivity lost (min {vals.min():.3e}); "
                        "geometric evolution is no longer well defined"
                    )
                start, last = last, _stage(spec, grid, vals[0])
                middle = last if mid is None else _stage(spec, grid, mid[0])
                p = _carry(p, grid, [start, middle, last], stepper.dt)
        except SolverError as exc:
            raise SolverError(f"step {k} (t={t:.6g}): {exc}") from exc
        if k % every == 0 or k == n_steps:
            times[slot] = t
            radii[slot] = vals if coupled else _irfft(grid, hat)
            if coupled:
                directions[slot] = p
            slot += 1
    for arr in (times, radii, directions):
        if arr is not None:
            arr.flags.writeable = False
    trajs = [Trajectory(grid, spec, times, radii[:, j], directions) for j in range(len(r0s))]
    for traj in trajs:  # max-principle and positivity findings from the columns, in record order
        sup, low = traj.sup.tolist(), traj.min.tolist()
        for t, top, bottom in zip(times.tolist(), sup, low):
            if top > sup[0] + MAX_PRINCIPLE_SLACK:
                excess = f"sup {top:.12g} > {sup[0]:.12g}"
                traj.flags.append(f"max-principle violation at t={t:.6g}: {excess}")
            if low[0] > 0.0 and bottom <= 0.0:
                traj.flags.append(f"positivity loss at t={t:.6g}: min {bottom:.12g}")
    return trajs


def evolve(r0: ScalarField, spec: FluxSpec, cfg: SolveConfig) -> Trajectory:
    """Integrate from ``t=0`` to ``cfg.t_end``, recording every ``record_every`` steps.

    Raises :class:`SolverError` when ``cfg.dt`` exceeds the advective stability
    bound for the initial data, when it is too small for the records of the
    run to be allocated, or when the state stops being finite; runs that
    merely breach the sup-norm bound or positivity are flagged, not aborted.
    The state between records stays a spectrum (see :class:`_Stepper`).
    """
    return _march([r0], spec, cfg)[0]


def evolve_coupled(
    r0: RadialField, p0: DirectionField, spec: FluxSpec, cfg: SolveConfig
) -> Trajectory:
    """Interleaved evolution of radius and direction.

    The radius advances first (its equation is autonomous); the direction is
    then transported through the radius at the start, the half time and the
    end of the step (see :func:`_march`).  Positivity of the radius is
    required at start and enforced throughout - losing it breaks the polar
    splitting and aborts the run.  The recorded vectors stack into
    ``directions``.
    """
    if r0.grid != p0.grid:
        raise ValueError("radius and direction fields live on different grids")
    if not (r0.values.min() > 0.0):
        raise SolverError("initial radius must be strictly positive")
    return _march([r0], spec, cfg, p0.vectors)[0]

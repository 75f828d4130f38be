"""Spectral time integrator for the radius equation.

The scalar field obeys ``r_t + sum_i d/dtheta_i g_i(r) = Lap r`` on the torus.
Each step is a Strang composition: exact half-step of the heat flow (mode-wise
multiplier), a full advective substep in divergence form, and another exact
half-step of heat.  The diffusive part therefore carries no CFL restriction;
only the advective limit remains.

Every field is real, so one operator serves the stepper, :func:`heat_propagate`,
:func:`galilean_shift` and the stationary solver of :mod:`.cell`: real FFTs
onto the half mode lattice, with each multiplier restricted to the part a real
field sees.  :func:`_rfft` and :func:`_irfft` make the per-axis pocketfft calls
of ``rfftn``/``irfftn`` themselves (``rfft`` on the last grid axis, ``fft`` on
the others), which is bitwise equal and skips the n-d wrapper, about half the
cost of a transform at N=128.  Axes after the grid axes (vector components,
ensemble members) are left alone.  The stepper carries the state from step to
step as this half spectrum, not as grid values; the time loop transforms back
only where it needs samples.  One loop serves :func:`evolve`, its ensemble
form :func:`_evolve_members` (several initial radii on a trailing member axis,
stepped together, each member bitwise equal to its own run) and, with a
direction-transport hook, the coupled driver of :mod:`.transport`.

The advective substep differentiates ``g_i(r)`` spectrally (2/3-rule dealiased
by default) and advances with a midpoint Runge-Kutta stage, except when every
flux component is an unmodulated constant (degree 0): then the whole step is
one product with the cached heat-times-shift multiplier.  Either way the zero
mode of the spectrum is only ever multiplied by one, so the field mean is
conserved to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .errors import SolverError
from .flux import FluxSpec, _check_axes, advective_speed_bound, eval_g
from .grid import DirectionField, PeriodicGrid, ScalarField, _reflect, mean

__all__ = [
    "SolveConfig",
    "DiagRow",
    "Trajectory",
    "heat_propagate",
    "galilean_shift",
    "step",
    "evolve",
    "advective_speed_bound",
    "max_stable_dt",
]

MAX_PRINCIPLE_SLACK = 1e-8
CFL_NUMBER = 0.5


@dataclass(frozen=True)
class SolveConfig:
    """Time-integration parameters.

    ``dt`` must respect the advective stability bound (checked at the start of
    :func:`evolve` against the initial data); ``record_every`` is the snapshot
    stride in steps.
    """

    dt: float
    t_end: float
    dealias: bool = True
    record_every: int = 1

    def __post_init__(self) -> None:
        if not (self.dt > 0.0):
            raise ValueError("dt must be positive")
        if not (self.t_end > 0.0):
            raise ValueError("t_end must be positive")
        if not (math.isfinite(self.dt) and math.isfinite(self.t_end)):
            raise ValueError("dt and t_end must be finite")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass(frozen=True)
class DiagRow:
    t: float
    mean: float
    sup: float
    min: float
    l1: float
    sphere_dev: float


@dataclass
class Trajectory:
    """Recorded run: snapshot fields plus per-snapshot diagnostics."""

    grid: PeriodicGrid
    spec: FluxSpec
    times: list[float] = dc_field(default_factory=list)
    snapshots: list[ScalarField] = dc_field(default_factory=list)
    directions: list = dc_field(default_factory=list)  # DirectionField when coupled
    diagnostics: list[DiagRow] = dc_field(default_factory=list)
    flags: list[str] = dc_field(default_factory=list)

    def index_at(self, t: float, tol: float = 1e-9) -> int:
        for i, ti in enumerate(self.times):
            if abs(ti - t) <= tol:
                return i
        raise KeyError(f"no snapshot at t={t}")

    @property
    def final(self) -> ScalarField:
        return self.snapshots[-1]


def _rfft(grid: PeriodicGrid, vals: np.ndarray) -> np.ndarray:
    """Unnormalised real FFT of grid values onto the half mode lattice.

    ``rfftn`` over the grid axes, as its own sequence of calls: ``rfft`` on
    the last grid axis, then ``fft`` on each leading axis, last to first.
    """
    last = grid.m - 1
    hat = np.fft.rfft(vals, axis=last)
    for axis in range(last - 1, -1, -1):
        hat = np.fft.fft(hat, axis=axis)
    return hat


def _irfft(grid: PeriodicGrid, hat: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_rfft`: ``ifft`` on the leading axes, then ``irfft``."""
    last = grid.m - 1
    for axis in range(last):
        hat = np.fft.ifft(hat, axis=axis)
    return np.fft.irfft(hat, grid.resolution[-1], axis=last)


def _real_symbol(grid: PeriodicGrid, full: np.ndarray) -> np.ndarray:
    """Restrict a full-lattice multiplier ``M`` to the rfft half lattice.

    A real field sees only the Hermitian part ``(M(k) + conj M(-k)) / 2``:
    ``Re ifftn(M fftn u)`` equals ``irfftn`` of that part times ``rfftn u``.
    The two differ only on Nyquist planes, where ``-k`` aliases to ``k``.
    """
    full = np.broadcast_to(full, grid.shape)
    herm = 0.5 * (full + np.conj(_reflect(full)))
    out = np.ascontiguousarray(herm[..., : grid.resolution[-1] // 2 + 1])
    out.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def _laplacian_half(grid: PeriodicGrid) -> np.ndarray:
    """``|kappa|^2`` on the half lattice."""
    return _real_symbol(grid, grid.laplacian_symbol())


@lru_cache(maxsize=32)
def _derivative_symbols(grid: PeriodicGrid, dealias: bool) -> tuple[np.ndarray, ...]:
    """Per axis, the half-lattice symbol of ``-d/dtheta_i``, 2/3-masked if ``dealias``."""
    mask = grid.dealias_mask() if dealias else True
    return tuple(
        _real_symbol(grid, np.where(mask, -1j * k, 0.0)) for k in grid.kappa_grids()
    )


def _shift_symbol(grid: PeriodicGrid, speeds, t: float) -> np.ndarray:
    """Half-lattice multiplier of the translation ``f(theta) -> f(theta - c t)``."""
    phase = sum(c * t * k for c, k in zip(speeds, grid.kappa_grids()))
    return _real_symbol(grid, np.exp(-1j * phase))


def heat_propagate(f: ScalarField, t: float) -> ScalarField:
    """Exact heat flow: every mode decays by ``exp(-|kappa|^2 t)``."""
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError(f"t must be non-negative and finite, got {t!r}")
    if t == 0.0:
        return f
    hat = _rfft(f.grid, f.values) * np.exp(-_laplacian_half(f.grid) * t)
    return ScalarField(grid=f.grid, values=_irfft(f.grid, hat))


def galilean_shift(f: ScalarField, speeds, t: float) -> ScalarField:
    """Sample ``f(theta - c t)`` via a spectral phase shift."""
    speeds = np.asarray(speeds, dtype=np.float64)
    if speeds.shape != (f.grid.m,):
        raise ValueError("one shift speed per grid axis required")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    hat = _rfft(f.grid, f.values) * _shift_symbol(f.grid, speeds, t)
    return ScalarField(grid=f.grid, values=_irfft(f.grid, hat))


class _Stepper:
    """Strang steps of size ``dt`` on one (grid, flux), acting on the rfft spectrum.

    The state is the unnormalised half-lattice spectrum ``rfftn(values)``:
    :meth:`advance` maps it to the spectrum one step later, and the drivers
    transform back (:meth:`values`) only where they need grid samples.  The
    symbols are built once: the half-step heat multiplier and, for a general
    flux, one masked derivative symbol per axis; for an unmodulated constant
    flux, the whole step (``H^2`` times the shift) and the map to the
    midpoint values (``H`` times the half shift).  A general step computes
    the midpoint values on its way; a constant-flux step computes them only
    when ``mid_values`` is set, as they cost an inverse transform that the
    step itself does not need.

    With ``members`` set, the state carries a trailing member axis: the
    symbols and modulations gain a unit axis that broadcasts over it, and
    every member sees the same elementwise arithmetic and the same
    per-line transforms as when it is stepped alone.
    """

    def __init__(
        self,
        grid: PeriodicGrid,
        spec: FluxSpec,
        dt: float,
        dealias: bool,
        mid_values: bool = True,
        members: bool = False,
    ):
        _check_axes(grid, spec)
        self.grid = grid
        self.spec = spec
        self.dt = dt

        def lift(a):
            return a if a is None or not members else a[..., None]

        half_heat = np.exp(-_laplacian_half(grid) * (dt / 2.0))
        self.half_heat = lift(half_heat)
        self.exact_step = None
        self.exact_mid = None
        if spec.is_constant:
            speeds = spec.constant_speeds
            self.exact_step = lift(half_heat * half_heat * _shift_symbol(grid, speeds, dt))
            if mid_values:
                self.exact_mid = lift(half_heat * _shift_symbol(grid, speeds, dt / 2.0))
        else:
            self.derivs = [lift(d) for d in _derivative_symbols(grid, dealias)]
            self.modulations = [lift(spec.modulation_values(grid, i)) for i in range(spec.m)]

    def spectrum(self, vals: np.ndarray) -> np.ndarray:
        return _rfft(self.grid, vals)

    def values(self, hat: np.ndarray) -> np.ndarray:
        return _irfft(self.grid, hat)

    def _divergence_hat(self, vals: np.ndarray) -> np.ndarray:
        """Spectrum of ``-sum_i d/dtheta_i g_i(vals)`` (modulated, dealiased)."""
        out = 0.0
        for i, (deriv, mod) in enumerate(zip(self.derivs, self.modulations)):
            gi = eval_g(self.spec, i, vals)
            if mod is not None:
                gi = gi * mod
            out = out + deriv * self.spectrum(gi)
        return out

    def advance(self, hat: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """One full step; returns (new_spectrum, half_time_values).

        The half-time values are None for a constant-flux stepper built
        without ``mid_values``.
        """
        if self.exact_step is not None:
            mid = None if self.exact_mid is None else self.values(hat * self.exact_mid)
            new = hat * self.exact_step
        else:
            hh = hat * self.half_heat
            half = self.values(hh)
            mid = half + (self.dt / 2.0) * self.values(self._divergence_hat(half))
            new = (hh + self.dt * self._divergence_hat(mid)) * self.half_heat
        if not np.isfinite(new.view(np.float64)).all():
            raise SolverError("non-finite field after step")
        return new, mid


def step(r: ScalarField, spec: FluxSpec, dt: float, dealias: bool = True) -> ScalarField:
    """Advance one Strang step of size ``dt``.

    Raises ``ValueError`` unless ``dt`` is positive and finite: a negative
    step would run the heat flow backward and amplify the top modes.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    stepper = _Stepper(r.grid, spec, dt, dealias, mid_values=False)
    new, _ = stepper.advance(stepper.spectrum(r.values))
    return ScalarField(grid=r.grid, values=stepper.values(new))


def max_stable_dt(grid: PeriodicGrid, spec: FluxSpec, field_bound: float) -> float:
    """Advective CFL bound; diffusion is integrated exactly and imposes none."""
    h_min = min(grid.spacings)
    return CFL_NUMBER * h_min / (1.0 + advective_speed_bound(spec, field_bound))


def _append_record(
    traj: Trajectory, t: float, vals: np.ndarray, mean0: float, sup0: float, min0: float
) -> None:
    sup = float(np.abs(vals).max())
    mn = float(vals.min())
    row = DiagRow(
        t=t,
        mean=float(vals.mean()),
        sup=sup,
        min=mn,
        l1=float(np.abs(vals).mean()) * traj.grid.volume,
        sphere_dev=float(np.abs(vals - mean0).max()),
    )
    traj.times.append(t)
    traj.snapshots.append(ScalarField(grid=traj.grid, values=vals))
    traj.diagnostics.append(row)
    if sup > sup0 + MAX_PRINCIPLE_SLACK:
        traj.flags.append(f"max-principle violation at t={t:.6g}: sup {sup:.12g} > {sup0:.12g}")
    if min0 > 0.0 and mn <= 0.0:
        traj.flags.append(f"positivity loss at t={t:.6g}: min {mn:.12g}")


def _schedule(
    grid: PeriodicGrid, spec: FluxSpec, cfg: SolveConfig, sup0: float
) -> tuple[int, float]:
    """Check ``cfg.dt`` against the stability bound; return (full steps, tail step).

    The tail step covers what ``t_end`` leaves after the full steps; it is 0
    when that is roundoff.
    """
    dt_max = max_stable_dt(grid, spec, sup0)
    if cfg.dt > dt_max * (1.0 + 1e-12):
        raise SolverError(
            f"dt={cfg.dt:.3e} violates advective stability bound {dt_max:.3e}"
        )
    n_full = int(np.floor(cfg.t_end / cfg.dt + 1e-12))
    remainder = cfg.t_end - n_full * cfg.dt
    if remainder < 1e-12 * max(1.0, cfg.t_end):
        remainder = 0.0
    return n_full, remainder


def _march(
    r0s: list[ScalarField], spec: FluxSpec, cfg: SolveConfig, direction=None
) -> list[Trajectory]:
    """The time loop of :func:`evolve`, :func:`_evolve_members` and the coupled driver.

    ``r0s`` holds the initial radii of the members, all on one grid; returns
    one trajectory per member.  A single member is stepped as it is; several
    are stacked on a trailing member axis and stepped together.  ``cfg.dt``
    is checked once, against the largest initial sup norm; each member keeps
    its own mean, sup and min references, diagnostics and flags.

    Records fall every ``record_every`` steps and at ``t_end``, which a
    shorter tail step reaches when ``dt`` does not divide it.  ``direction``,
    when given (one member only), is ``(vectors0, transport)``: after each
    radius step, which must leave the radius positive,
    ``transport(vectors, radii, dt)`` carries the direction vectors (a plain
    array) over the step given the radius values ``radii`` at its start,
    half time and end.  Only records wrap the vectors in a
    :class:`DirectionField`.  A failing step raises naming its index and time.
    """
    grid = r0s[0].grid
    members = len(r0s) > 1
    sup0s = [float(np.abs(r.values).max()) for r in r0s]
    mean0s = [mean(r) for r in r0s]
    min0s = [float(r.values.min()) for r in r0s]
    n_full, remainder = _schedule(grid, spec, cfg, max(sup0s))
    n_steps = n_full + (remainder > 0.0)
    coupled = direction is not None
    stepper = _Stepper(grid, spec, cfg.dt, cfg.dealias, mid_values=coupled, members=members)
    trajs = [Trajectory(grid=grid, spec=spec) for _ in r0s]

    def record(t: float, vals: np.ndarray) -> None:
        split = [np.ascontiguousarray(vals[..., j]) for j in range(len(r0s))] if members else [vals]
        for traj, v, mean0, sup0, min0 in zip(trajs, split, mean0s, sup0s, min0s):
            _append_record(traj, t, v, mean0, sup0, min0)
        if coupled:
            trajs[0].directions.append(DirectionField(grid=grid, vectors=p))

    vals = np.stack([r.values for r in r0s], axis=-1) if members else r0s[0].values
    hat = stepper.spectrum(vals)
    if coupled:
        p, transport = direction
    record(0.0, vals)
    for k in range(1, n_steps + 1):
        t = k * cfg.dt
        if k > n_full:
            stepper = _Stepper(
                grid, spec, remainder, cfg.dealias, mid_values=coupled, members=members
            )
            t = cfg.t_end
        try:
            hat, mid = stepper.advance(hat)
            if coupled:
                start, vals = vals, stepper.values(hat)
                if not (vals.min() > 0.0):
                    raise SolverError(
                        f"positivity lost (min {vals.min():.3e}); "
                        "geometric evolution is no longer well defined"
                    )
                p = transport(p, (start, mid, vals), stepper.dt)
        except SolverError as exc:
            raise SolverError(f"step {k} (t={t:.6g}): {exc}") from exc
        if k % cfg.record_every == 0 or k == n_steps:
            if not coupled:
                vals = stepper.values(hat)
            record(t, vals)
    return trajs


def evolve(r0: ScalarField, spec: FluxSpec, cfg: SolveConfig) -> Trajectory:
    """Integrate from ``t=0`` to ``cfg.t_end``, recording every ``record_every`` steps.

    Raises :class:`SolverError` when ``cfg.dt`` exceeds the advective stability
    bound for the initial data or when the state stops being finite; runs that
    merely breach the sup-norm bound or positivity are flagged, not aborted.
    The state between records stays a spectrum (see :class:`_Stepper`).
    """
    return _march([r0], spec, cfg)[0]


def _evolve_members(r0s, spec: FluxSpec, cfg: SolveConfig) -> list[Trajectory]:
    """:func:`evolve` of several initial radii on one grid, stepped as one batch.

    Returns one trajectory per member, each bitwise equal to :func:`evolve`
    of that member alone.  ``cfg.dt`` is checked against the largest initial
    sup norm, so the batch raises the :class:`SolverError` its largest
    member would.  Stepping the members together spreads the fixed cost of
    each transform call over the batch.
    """
    r0s = list(r0s)
    if any(r.grid != r0s[0].grid for r in r0s):
        raise ValueError("ensemble members live on different grids")
    return _march(r0s, spec, cfg)

"""Quantitative checks over trajectories: L1 contraction and mode decay.

Everything here is a pure, deterministic function: identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import PeriodicGrid
from .spectral import Trajectory, _half_axes, _rfft

__all__ = [
    "l1_contraction_series",
    "ModeDecayRow",
    "mode_decay_report",
]

NOISE_FLOOR = 1e-14
FIT_FLOOR = 1e-12
L1_SLACK = 1e-8  # rise of an L1 distance between records that counts as an increase


def l1_contraction_series(traj1: Trajectory, traj2: Trajectory) -> list[tuple[float, float]]:
    """Series ``(t, ||u1(t) - u2(t)||_1)`` for two runs of the same flux.

    Appends a flag to both trajectories if the series ever increases by more
    than ``L1_SLACK`` between consecutive records.
    """
    if traj1.grid != traj2.grid:
        raise ValueError("trajectories live on different grids")
    if traj1.spec != traj2.spec:
        raise ValueError("trajectories were run with different fluxes")
    if len(traj1.times) != len(traj2.times) or not np.allclose(
        traj1.times, traj2.times, atol=1e-12, rtol=0.0
    ):
        raise ValueError("trajectories have different time stamps")
    cell = traj1.grid.volume / traj1.grid.num_nodes
    dist = np.abs(traj1.radii - traj2.radii).sum(axis=traj1._grid_axes) * cell
    series = list(zip(traj1.times.tolist(), dist.tolist()))
    for (t0, d0), (t1, d1) in zip(series, series[1:]):
        if d1 > d0 + L1_SLACK:
            msg = f"L1 distance increased by {d1 - d0:.3e} over [{t0:.6g}, {t1:.6g}]"
            traj1.flags.append(msg)
            traj2.flags.append(msg)
    return series


@dataclass(frozen=True)
class ModeDecayRow:
    index: tuple[int, ...]
    fitted_rate: float
    theoretical_rate: float
    rel_error: float


def _record_moduli(grid: PeriodicGrid, radii: np.ndarray) -> np.ndarray:
    """Half-lattice amplitude moduli of ``(records, *grid.shape)`` radii, records first.

    ``hypot(re, im)`` is bitwise Python's ``abs``; ``np.abs`` of a complex array is not.
    """
    z = _rfft(grid, radii)
    z /= grid.num_nodes
    return np.hypot(z.real, z.imag)


def _leader(index: list[np.ndarray]) -> np.ndarray:
    """First nonzero component of each multi-index (0 for the zero index)."""
    lead = 0
    for k in index:
        lead = np.where(lead == 0, k, lead)
    return lead


def _canonical_modes(
    grid: PeriodicGrid, moduli: np.ndarray
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Modes above the noise floor at the first snapshot, one per +/- pair.

    ``moduli`` holds half-lattice amplitude moduli with a leading snapshot
    axis.  An index is kept when its first nonzero component is positive, so
    a pair led by ``-N/2`` has none.  The half lattice stores the partner of
    an index whose last component lies in ``(-N/2, 0)``: such an entry, with a
    negative leader, is reported under its negated index.  Returns the sorted
    indices and their amplitude rows.
    """
    axes = _half_axes(grid)
    index = [mode for mode, _, _ in axes]
    negated = [np.where(nyquist, mode, -mode) for mode, _, nyquist in axes]
    direct = _leader(index) >= 0
    partner = (_leader(negated) > 0) & (index[-1] > 0)
    keep = (direct | partner) & (moduli[0] > NOISE_FLOOR)
    reported = [np.where(direct, k, neg)[keep] for k, neg in zip(index, negated)]
    order = np.lexsort(reported[::-1])
    modes = [tuple(int(k[i]) for k in reported) for i in order]
    return modes, moduli[..., keep].T[order]


def mode_decay_report(traj: Trajectory) -> list[ModeDecayRow]:
    """Least-squares decay rate per surviving mode vs the heat-flow rate.

    Fits the slope of ``log |amplitude|`` over the window where the amplitude
    stays above 1e-12 (avoiding noise-floor bias) and compares with
    ``sum_i kappa_i^2``, the exact rate for flux-free runs.  Needs at least
    three snapshots; modes starting below the noise floor are skipped.
    """
    if len(traj.times) < 3:
        raise ValueError("mode decay fit needs at least 3 snapshots")
    grid, times = traj.grid, traj.times
    rows = []
    for index, amps in zip(*_canonical_modes(grid, _record_moduli(grid, traj.radii))):
        window = amps > FIT_FLOOR
        mean_mode = not any(index)  # conserved: its rate is the drift, reported as is
        fitted = 0.0
        if window.sum() >= 3 and (window[0] or not mean_mode):
            slope, _ = np.polyfit(times[window], np.log(amps[window]), 1)
            fitted = -float(slope)
        elif not mean_mode:
            continue
        theo = sum((2.0 * np.pi * k / L) ** 2 for k, L in zip(index, grid.lengths))
        rel = abs(fitted - theo) / theo if theo else abs(fitted)
        rows.append(ModeDecayRow(index, fitted, theo, rel))
    return rows

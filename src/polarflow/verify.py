"""Named verification suites behind the ``verify`` CLI subcommand.

Each suite runs a battery of quantitative checks at desk scale and returns
:class:`CheckResult` rows; the CLI renders them as a pass/fail table plus a
JSON summary.  Suites: ``heat``, ``duhamel``, ``conservation``,
``contraction``, ``cell``, ``geometry``, and ``all``.  The suites share no
state, so ``all`` runs them in forked worker processes when it may use more
than one core.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import islice

import numpy as np

from ._fdcell import fd_cell_solve
from .cell import monotonicity_check, solve_cell
from .diagnostics import L1_SLACK, l1_contraction_series, mode_decay_report
from .duhamel import (
    contraction_horizon,
    heat_kernel_convolve,
    kernel_gradient_l1,
    picard_solve,
)
from .errors import PolarflowError
from .flux import Modulation, burgers_flux, constant_flux, with_modulation, zero_flux
from .geometry import decompose, ellipse_initial, perturbed_sphere_initial, reconstruct
from .grid import make_field, make_grid, mean
from .spectral import SolveConfig, _march, evolve, heat_propagate, step
from .transport import evolve_coupled

__all__ = ["CheckResult", "SUITES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, value: float, bound: float) -> CheckResult:
    # a Python bool: numpy scalars (np.bool_) are not JSON-serializable
    return CheckResult(name, bool(value <= bound), f"{value:.3e} <= {bound:.3e}")


def _grid1(n: int = 128):
    return make_grid(1, [1.0], [n])


def suite_heat() -> list[CheckResult]:
    out = []
    grid = _grid1()
    theta = grid.axis_coords(0)
    f = make_field(grid, np.cos(2.0 * np.pi * theta))
    traj = evolve(f, zero_flux(1), SolveConfig(dt=1e-4, t_end=0.05, record_every=50))
    exact = np.exp(-4.0 * np.pi**2 * traj.times)[:, None] * np.cos(2.0 * np.pi * theta)
    sup_err = float(np.abs(traj.radii - exact).max())
    out.append(_check("heat.closed_form_sup_error", sup_err, 1e-8))
    rows = [r for r in mode_decay_report(traj) if r.index == (1,)]
    out.append(_check("heat.mode1_rate_rel_error", rows[0].rel_error, 0.01))

    const = make_field(grid, np.full(grid.shape, 3.0))
    drift = float(np.abs(heat_propagate(const, 0.3).values - 3.0).max())
    out.append(_check("heat.constant_invariant", drift, 1e-13))

    g2 = make_grid(2, [1.0, 1.0], [32, 32])
    c1, c2 = g2.coords()
    f2 = make_field(g2, np.sin(2 * np.pi * c1) * np.cos(4 * np.pi * c2))
    t = 0.01
    factor = np.exp(-(4 * np.pi**2 + 16 * np.pi**2) * t)
    err2 = float(np.abs(heat_propagate(f2, t).values - factor * f2.values).max())
    out.append(_check("heat.product_eigenfunction", err2, 1e-12))
    return out


def suite_duhamel() -> list[CheckResult]:
    out = []
    horizon_err = abs(contraction_horizon(1.0, 2.0, 1) - np.pi / 64.0)
    out.append(_check("duhamel.horizon_formula", horizon_err, 1e-12))
    l1_err = abs(kernel_gradient_l1(1.0) * np.sqrt(np.pi) - 1.0)
    out.append(_check("duhamel.kernel_gradient_l1", l1_err, 1e-8))

    grid = _grid1()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        hat = np.zeros(128, dtype=complex)
        for k in range(1, 9):
            c = (rng.normal() + 1j * rng.normal()) / (1 + k * k)
            hat[k], hat[-k] = c, np.conj(c)
        f = make_field(grid, np.fft.ifft(hat * 128).real + 1.0)
        t = rng.uniform(0.01, 0.5)
        d = np.abs(heat_kernel_convolve(f, t).values - heat_propagate(f, t).values).max()
        worst = max(worst, float(d))
    out.append(_check("duhamel.semigroup_crosscheck", worst, 1e-10))

    theta = grid.axis_coords(0)
    r0 = make_field(grid, 1.0 + 0.2 * np.sin(2.0 * np.pi * theta))
    rep = picard_solve(r0, burgers_flux(1))
    ratios = rep.delta_ratios()[2:]
    out.append(_check("duhamel.contraction_ratio", max(ratios) if ratios else 0.0, 0.55))
    ref = evolve(
        r0, burgers_flux(1), SolveConfig(dt=rep.horizon / 1024, t_end=rep.horizon, record_every=1 << 20)
    )
    diff = float(np.abs(ref.final.values - rep.final.values).max())
    out.append(_check("duhamel.vs_spectral", diff, 1e-4))
    return out


def suite_conservation() -> list[CheckResult]:
    out = []
    grid = _grid1()
    theta = grid.axis_coords(0)
    r0 = make_field(grid, 1.0 + 0.1 * np.sin(2.0 * np.pi * theta))
    for label, spec in (
        ("zero", zero_flux(1)),
        ("constant", constant_flux([1.0])),
        ("burgers", burgers_flux(1)),
    ):
        traj = evolve(r0, spec, SolveConfig(dt=1e-4, t_end=1.0, record_every=1000))
        drift = float(np.abs(traj.mean - mean(r0)).max())
        out.append(_check(f"conservation.mean_drift_{label}", drift, 1e-12))
        sup_exc = float(traj.sup.max() - traj.sup[0])  # record 0 is r0
        out.append(_check(f"conservation.max_principle_{label}", sup_exc, 1e-8))
        low = float(traj.min.min())
        out.append(
            CheckResult(f"conservation.positivity_{label}", low > 0.0, f"min {low:.6f} > 0")
        )
    return out


def suite_contraction() -> list[CheckResult]:
    grid = _grid1()
    theta = grid.axis_coords(0)
    spec = burgers_flux(1)
    cfg = SolveConfig(dt=1e-4, t_end=0.5, record_every=250)
    wave = 0.1 * np.sin(2 * np.pi * theta)
    up, dn = _march([make_field(grid, 1.0 + wave), make_field(grid, 1.0 - wave)], spec, cfg)
    series = l1_contraction_series(up, dn)
    worst = max((d1 - d0) for (_, d0), (_, d1) in zip(series, series[1:]))
    return [_check("contraction.l1_nonincreasing", worst, 1e-8)]


def suite_cell() -> list[CheckResult]:
    out = []
    grid = make_grid(1, [1.0], [64])
    sol = solve_cell(burgers_flux(1), grid, 1.3)
    out.append(_check("cell.degenerate_residual", sol.residual, 1e-10))
    out.append(
        _check("cell.degenerate_is_constant", float(np.abs(sol.v.values - 1.3).max()), 1e-13)
    )

    spec = with_modulation(constant_flux([1.0]), 0, Modulation(const=0.0, sin_amps=(1.0,)))
    for p in (1.0, 0.0):
        s = solve_cell(spec, grid, p)
        ref = fd_cell_solve(spec, 512, 1.0, p)
        diff = float(np.abs(s.v.values - ref[:: 512 // 64]).max())
        out.append(_check(f"cell.modulated_vs_fd_p{p:g}", diff, 1e-8))
        out.append(_check(f"cell.mean_pinned_p{p:g}", abs(mean(s.v) - p), 1e-13))

    rng = np.random.default_rng(11)
    ok = True
    for _ in range(10):
        q, p = np.sort(rng.uniform(-1.0, 1.5, size=2))
        if p - q < 1e-3:
            p = q + 1e-3
        ok &= monotonicity_check(spec, grid, float(p), float(q))
    out.append(CheckResult("cell.monotonicity_random_pairs", bool(ok), "10 pairs"))

    s1 = solve_cell(spec, grid, 1.0)
    drift = float(np.abs(step(s1.v, spec, 1e-5).values - s1.v.values).max())
    out.append(_check("cell.stationary_under_step", drift, 1e-9))

    # the attractor: a solution of mean 1 approaches s1 to Strang's O(dt^2) floor
    r0 = make_field(grid, 1.0 + 0.2 * np.sin(2.0 * np.pi * grid.axis_coords(0)))
    traj = evolve(r0, spec, SolveConfig(dt=5e-4, t_end=0.5, record_every=50))
    gap = np.abs(traj.radii - s1.v.values)
    out.append(_check("cell.attractor_sup_distance", float(gap[-1].max()), 1e-5))
    l1 = gap.mean(axis=1) * grid.volume
    out.append(_check("cell.attractor_l1_nonincreasing", float(np.diff(l1).max()), L1_SLACK))
    return out


def suite_geometry() -> list[CheckResult]:
    out = []
    grid = _grid1()
    r0, p0 = ellipse_initial(grid, 2.0, 1.0)
    out.append(_check("geometry.ellipse_r_at_0", abs(r0.values[0] - 2.0), 1e-13))
    out.append(_check("geometry.ellipse_r_at_quarter", abs(r0.values[32] - 1.0), 1e-13))
    x = reconstruct(r0, p0)
    r2, p2 = decompose(grid, x)
    round_trip = max(
        float(np.abs(r2.values - r0.values).max()),
        float(np.abs(p2.vectors - p0.vectors).max()),
    )
    out.append(_check("geometry.decompose_reconstruct", round_trip, 1e-14))

    rs, _ = perturbed_sphere_initial(grid, 1.0, 0.3, [1])
    out.append(_check("geometry.perturbed_sphere_min", abs(rs.values.min() - 0.7), 1e-12))

    traj = evolve_coupled(r0, p0, burgers_flux(1), SolveConfig(dt=5e-4, t_end=0.5, record_every=100))
    rbar = mean(r0)
    dev = float(traj.sphere_dev[-1])
    out.append(_check("geometry.sphere_convergence", dev, 1e-6 * rbar))
    radii = np.sqrt(((traj.radii[-1][..., None] * traj.directions[-1]) ** 2).sum(-1))
    out.append(_check("geometry.points_on_sphere", float(np.abs(radii - rbar).max()), 1e-6 * rbar))
    return out


SUITES = {
    "heat": suite_heat,
    "duhamel": suite_duhamel,
    "conservation": suite_conservation,
    "contraction": suite_contraction,
    "cell": suite_cell,
    "geometry": suite_geometry,
}


# longest first, so that no worker idles while another runs a long suite
_COST_ORDER = ("conservation", "contraction", "geometry", "duhamel", "cell", "heat")


def _run_named(name: str) -> list[CheckResult]:
    """Worker entry: a suite travels by name, so a forked worker runs the parent's ``SUITES``."""
    return SUITES[name]()


def _run_pooled(workers: int) -> list[CheckResult]:
    """Every suite in ``workers`` forked processes; rows come back in ``SUITES`` order.

    Suites start in ``_COST_ORDER``, each only when a worker is free: the
    executor hands submitted calls to its workers ahead of time, out of reach
    of ``cancel``, so a suite that raises would otherwise wait for every later
    suite.
    """
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    queued = iter(_COST_ORDER)
    rows: dict[str, list[CheckResult]] = {}
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        running = {pool.submit(_run_named, name): name for name in islice(queued, workers)}
        while running:
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                rows[running.pop(future)] = future.result()
                name = next(queued, None)
                if name is not None:
                    running[pool.submit(_run_named, name)] = name
    except BrokenProcessPool as exc:
        raise PolarflowError(f"a verify worker process died ({exc})") from None
    finally:
        pool.shutdown()
    return [r for name in SUITES for r in rows[name]]


def _pool_workers() -> int:
    """Workers for ``all``: one per core this process may use, up to one per suite.

    0 on one core, where a pool only adds cost, or where ``fork`` is unavailable.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return min(cores, len(SUITES)) if cores >= 2 and hasattr(os, "fork") else 0


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite (or every suite for ``all``).

    ``all`` runs its suites in forked workers (:func:`_pool_workers`), or in
    turn in this process where there are none.  The rows are the same either way.
    """
    if name != "all":
        if name not in SUITES:
            raise KeyError(name)
        return SUITES[name]()
    workers = _pool_workers()
    if workers:
        return _run_pooled(workers)
    return [r for fn in SUITES.values() for r in fn()]

"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are fixed here and match the package's documented
guarantees; grids stay at desk scale (N <= 256, m <= 2).
"""

import numpy as np
import pytest

from polarflow import (
    DirectionField,
    Modulation,
    SolveConfig,
    burgers_flux,
    constant_flux,
    contraction_horizon,
    ellipse_initial,
    evolve,
    evolve_coupled,
    galilean_shift,
    kernel_gradient_l1,
    l1_contraction_series,
    make_field,
    make_grid,
    mean,
    mode_decay_report,
    monotonicity_check,
    perturbed_sphere_initial,
    picard_solve,
    polynomial_flux,
    reconstruct,
    solve_cell,
    with_modulation,
    zero_flux,
)
from polarflow._fdcell import fd_cell_solve
from polarflow.cli import run_evolve
from polarflow.verify import run_suite


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def grid():
    return make_grid(1, [1.0], [128])


@pytest.fixture(scope="module")
def registry_runs(grid):
    """Named runs with positive initial data, reused by criteria 3 and 4."""
    theta = grid.axis_coords(0)
    wave = make_field(grid, 1.0 + 0.1 * np.sin(2.0 * np.pi * theta))
    cfg = SolveConfig(dt=1e-4, t_end=1.0, record_every=500)  # 10^4 steps
    runs = {
        "zero": evolve(wave, zero_flux(1), cfg),
        "constant": evolve(wave, constant_flux([1.0]), cfg),
        "burgers": evolve(wave, burgers_flux(1), cfg),
        "poly": evolve(
            wave, polynomial_flux([1.0, 0.3]), SolveConfig(dt=1e-4, t_end=0.5, record_every=500)
        ),
    }
    r0, p0 = perturbed_sphere_initial(grid, 1.0, 0.3, [1])
    runs["perturbed_sphere"] = evolve(r0, burgers_flux(1), SolveConfig(dt=1e-4, t_end=0.5, record_every=500))
    return {"initial": wave, "runs": runs}


@pytest.fixture(scope="module")
def ellipse_traj(grid):
    r0, p0 = ellipse_initial(grid, 2.0, 1.0)
    cfg = SolveConfig(dt=2e-4, t_end=2.0, record_every=500)
    return r0, p0, evolve_coupled(r0, p0, burgers_flux(1), cfg)


def test_01_heat_decay_oracle(grid):
    theta = grid.axis_coords(0)
    r0 = make_field(grid, np.cos(2.0 * np.pi * theta))
    traj = evolve(r0, zero_flux(1), SolveConfig(dt=1e-4, t_end=0.05, record_every=50))
    sup_err = 0.0
    for t, r in zip(traj.times, traj.radii):
        exact = np.exp(-4.0 * np.pi**2 * t) * np.cos(2.0 * np.pi * theta)
        sup_err = max(sup_err, float(np.abs(r - exact).max()))
    row = next(r for r in mode_decay_report(traj) if r.index == (1,))
    ok = row.rel_error < 0.01 and sup_err < 1e-8
    report(
        1,
        "heat-decay",
        ok,
        f"rate rel err {row.rel_error:.2e} < 1e-2, sup err {sup_err:.2e} < 1e-8",
    )


def test_02_galilean_equivalence(grid):
    theta = grid.axis_coords(0)
    r0 = make_field(grid, 1.0 + 0.3 * np.cos(2.0 * np.pi * theta))
    cfg = SolveConfig(dt=1e-3, t_end=0.25, record_every=50)
    moving = evolve(r0, constant_flux([1.0]), cfg)
    frozen = evolve(r0, zero_flux(1), cfg)
    worst = 0.0
    for t, a, b in zip(moving.times, moving.radii, frozen.radii):
        shifted = galilean_shift(make_field(grid, b), [1.0], t)
        worst = max(worst, float(np.abs(a - shifted.values).max()))
    report(2, "galilean-equivalence", worst < 1e-10, f"sup diff {worst:.2e} < 1e-10")


def test_03_mean_conservation(registry_runs):
    m0 = mean(registry_runs["initial"])
    worst = 0.0
    for label in ("zero", "constant", "burgers"):
        traj = registry_runs["runs"][label]
        worst = max(worst, max(abs(row_mean - m0) for row_mean in traj.mean))
    report(3, "mean-conservation", worst < 1e-12, f"max drift {worst:.2e} < 1e-12 over 1e4 steps")


def test_04_max_principle_and_positivity(registry_runs, ellipse_traj):
    failures = []
    for label, traj in registry_runs["runs"].items():
        sup, low = traj.sup, traj.min
        if any(s > sup[0] + 1e-8 for s in sup):
            failures.append(f"{label}: sup bound")
        if low[0] > 0 and any(mn <= 0 for mn in low):
            failures.append(f"{label}: positivity")
    _, _, traj = ellipse_traj
    sup, low = traj.sup, traj.min
    if any(s > sup[0] + 1e-8 for s in sup):
        failures.append("ellipse: sup bound")
    if any(mn <= 0 for mn in low):
        failures.append("ellipse: positivity")
    report(4, "max-principle+positivity", not failures, f"violations: {failures or 'none'}")


def test_05_l1_contraction(grid):
    theta = grid.axis_coords(0)
    cfg = SolveConfig(dt=1e-4, t_end=0.5, record_every=250)
    spec = burgers_flux(1)
    up = evolve(make_field(grid, 1.0 + 0.1 * np.sin(2.0 * np.pi * theta)), spec, cfg)
    dn = evolve(make_field(grid, 1.0 - 0.1 * np.sin(2.0 * np.pi * theta)), spec, cfg)
    series = l1_contraction_series(up, dn)
    worst = max(d1 - d0 for (_, d0), (_, d1) in zip(series, series[1:]))
    report(5, "l1-contraction", worst <= 1e-8, f"max increase {worst:.2e} <= 1e-8")


def test_06_duhamel_cross_validation(grid):
    horizon_err = abs(contraction_horizon(1.0, 2.0, 1) - np.pi / 64.0)
    kernel_err = abs(kernel_gradient_l1(1.0) - np.pi**-0.5)
    theta = grid.axis_coords(0)
    r0 = make_field(grid, 1.0 + 0.2 * np.sin(2.0 * np.pi * theta))
    spec = burgers_flux(1)
    rep = picard_solve(r0, spec)
    ratios = rep.delta_ratios()[2:]
    ratio_ok = all(r <= 0.55 for r in ratios)
    ref = evolve(
        r0, spec, SolveConfig(dt=rep.horizon / 2048, t_end=rep.horizon, record_every=1 << 20)
    )
    diff = float(np.abs(rep.final.values - ref.final.values).max())
    ok = horizon_err < 1e-12 and kernel_err < 1e-8 and ratio_ok and diff < 1e-4
    report(
        6,
        "duhamel-cross-validation",
        ok,
        f"horizon err {horizon_err:.1e} < 1e-12, kernel L1 err {kernel_err:.1e} < 1e-8, "
        f"max ratio {max(ratios):.3f} <= 0.55, vs spectral {diff:.2e} < 1e-4",
    )


def test_07_sphere_convergence(ellipse_traj):
    r0, _, traj = ellipse_traj
    rbar = mean(r0)
    tol = 1e-6 * rbar
    devs = traj.sphere_dev.tolist()
    skip = max(1, len(devs) // 10)  # initial transient
    monotone = all(b <= a + 1e-9 for a, b in zip(devs[skip:], devs[skip + 1 :]))
    hit = next((t for t, d in zip(traj.times, devs) if d < tol), None)
    pts = reconstruct(traj.final, DirectionField(grid=traj.grid, vectors=traj.directions[-1]))
    radius_err = float(np.abs(np.sqrt((pts**2).sum(-1)) - rbar).max())
    ok = monotone and hit is not None and hit <= 2.0 and radius_err < tol
    report(
        7,
        "sphere-convergence",
        ok,
        f"monotone after transient: {monotone}, below tol at t={hit}, "
        f"reconstructed radius err {radius_err:.2e} < {tol:.2e}",
    )


def test_08_transport_correctness(grid, ellipse_traj):
    from polarflow import transport_step
    from polarflow.geometry import sphere_directions

    r = make_field(grid, np.full(grid.shape, 2.0))
    p0 = sphere_directions(grid, 2)
    c, dt, steps = 1.0, 1e-3, 500
    p = p0
    for _ in range(steps):
        p = transport_step(p, r, constant_flux([c]), dt)
    t = steps * dt
    worst = 0.0
    for j in range(2):
        oracle = galilean_shift(make_field(grid, p0.component(j)), [c], t)
        worst = max(worst, float(np.abs(p.component(j) - oracle.values).max()))
    drift = float(np.abs(np.sqrt((p.vectors**2).sum(-1)) - 1.0).max())
    _, _, traj = ellipse_traj
    for pd in traj.directions:
        drift = max(drift, float(np.abs(np.sqrt((pd**2).sum(-1)) - 1.0).max()))
    ok = worst < 1e-8 and drift <= 1e-12
    report(
        8,
        "transport-correctness",
        ok,
        f"translation err {worst:.2e} < 1e-8 (N=128, dt=1e-3), unit-norm drift {drift:.1e} <= 1e-12",
    )


def test_09_cell_problem():
    grid = make_grid(1, [1.0], [64])
    degenerate = solve_cell(burgers_flux(1), grid, 1.3)
    const_ok = degenerate.residual < 1e-10 and np.abs(degenerate.v.values - 1.3).max() < 1e-12

    spec = with_modulation(constant_flux([1.0]), 0, Modulation(const=0.0, sin_amps=(1.0,)))
    sol = solve_cell(spec, grid, 1.0)
    ref = fd_cell_solve(spec, 512, 1.0, 1.0)
    oracle_diff = float(np.abs(sol.v.values - ref[:: 512 // 64]).max())

    rng = np.random.default_rng(23)
    mono_ok = True
    for _ in range(10):
        q, p = np.sort(rng.uniform(-1.0, 1.5, size=2))
        mono_ok &= monotonicity_check(spec, grid, float(p + 1e-3), float(q))

    ok = const_ok and oracle_diff < 1e-8 and mono_ok
    report(
        9,
        "cell-problem",
        ok,
        f"degenerate residual {degenerate.residual:.1e} < 1e-10, "
        f"oracle diff {oracle_diff:.2e} < 1e-8, monotone on 10 pairs: {mono_ok}",
    )


def test_10_attractor():
    # verify's cell suite evolves 1 + 0.2 sin(2 pi theta) under a modulated flux
    rows = [r for r in run_suite("cell") if r.name.startswith("cell.attractor_")]
    ok = len(rows) == 2 and all(r.passed for r in rows)
    report(10, "attractor", ok, "; ".join(f"{r.name} {r.detail}" for r in rows))


def test_11_determinism(tmp_path):
    out = tmp_path / "artifacts"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "grid.m = 1\ngrid.lengths = 1.0\ngrid.resolution = 64\n"
        "flux.kind = burgers\nsolver.dt = 1e-3\nsolver.t_end = 0.05\n"
        "initial.preset = trig_random\ninitial.params = 11, 3, 0.4\n"
        f"output.dir = {out}\noutput.record_every = 10\nseed = 11\n"
    )
    assert run_evolve(cfg) == 0
    names = ("diagnostics.csv", "trajectory.csv", "snapshot_final.csv")
    first = {n: (out / n).read_bytes() for n in names}
    assert run_evolve(cfg) == 0
    identical = all((out / n).read_bytes() == first[n] for n in names)
    report(11, "determinism", identical, "byte-identical CSV artifacts on re-run")

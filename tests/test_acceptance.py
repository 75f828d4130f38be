"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  ``polarflow
verify all`` checks the paper's claims once: criteria 1-10 read its rows by
name and fail on a row that is missing or failed.  Criterion 8 adds a
translation run of its own, and 11 runs the CLI twice.
"""

import numpy as np
import pytest

from polarflow import (
    constant_flux,
    galilean_shift,
    make_field,
    make_grid,
    sphere_directions,
    transport_step,
)
from polarflow.cli import run_evolve
from polarflow.verify import run_suite

FLUXES = ("zero", "constant", "burgers")


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def battery():
    return {row.name: row for row in run_suite("all")}


def read_rows(battery, num, name, names, extra=()):
    """Report criterion ``num`` from the named rows of the battery and ``extra`` (ok, detail) pairs."""
    rows = [battery.get(n) for n in names]
    parts = [f"{r.name} {r.detail}" if r else f"{n} missing" for n, r in zip(names, rows)]
    ok = all(r is not None and r.passed for r in rows) and all(good for good, _ in extra)
    report(num, name, ok, "; ".join(parts + [detail for _, detail in extra]))


def test_01_heat_decay_oracle(battery):
    read_rows(battery, 1, "heat-decay", ["heat.closed_form_sup_error", "heat.mode1_rate_rel_error"])


def test_02_galilean_equivalence(battery):
    read_rows(battery, 2, "galilean-equivalence", ["conservation.galilean_constant"])


def test_03_mean_conservation(battery):
    read_rows(battery, 3, "mean-conservation", [f"conservation.mean_drift_{f}" for f in FLUXES])


def test_04_max_principle_and_positivity(battery):
    names = [f"conservation.{c}_{f}" for c in ("max_principle", "positivity") for f in FLUXES]
    read_rows(battery, 4, "max-principle+positivity", names + ["geometry.max_principle"])


def test_05_l1_contraction(battery):
    read_rows(battery, 5, "l1-contraction", ["contraction.l1_nonincreasing"])


def test_06_duhamel_cross_validation(battery):
    names = ["horizon_formula", "kernel_gradient_l1", "contraction_ratio", "vs_spectral"]
    read_rows(battery, 6, "duhamel-cross-validation", [f"duhamel.{n}" for n in names])


def test_07_sphere_convergence(battery):
    names = ["sphere_convergence", "points_on_sphere", "sphere_dev_nonincreasing"]
    read_rows(battery, 7, "sphere-convergence", [f"geometry.{n}" for n in names])


def test_08_transport_correctness(battery):
    grid = make_grid(1, [1.0], [128])
    r = make_field(grid, np.full(grid.shape, 2.0))
    p0 = sphere_directions(grid)
    c, dt, steps = 1.0, 1e-3, 500
    p = p0
    for _ in range(steps):
        p = transport_step(p, r, constant_flux([c]), dt)
    worst = 0.0
    for j in range(2):
        oracle = galilean_shift(make_field(grid, p0.vectors[..., j]), [c], steps * dt)
        worst = max(worst, float(np.abs(p.vectors[..., j] - oracle.values).max()))
    drift = float(np.abs(np.sqrt((p.vectors**2).sum(-1)) - 1.0).max())
    extra = [
        (worst < 1e-8, f"translation err {worst:.2e} < 1e-8 (N=128, dt=1e-3)"),
        (drift <= 1e-12, f"unit-norm drift {drift:.1e} <= 1e-12"),
    ]
    read_rows(battery, 8, "transport-correctness", ["geometry.unit_norm"], extra)


def test_09_cell_problem(battery):
    names = ["cell.degenerate_residual", "cell.degenerate_is_constant"]
    names += [f"cell.{kind}_p{p}" for p in (1, 0) for kind in ("modulated_vs_fd", "mean_pinned")]
    read_rows(battery, 9, "cell-problem", names + ["cell.monotonicity_random_pairs"])


def test_10_attractor(battery):
    names = ["cell.attractor_sup_distance", "cell.attractor_l1_nonincreasing"]
    read_rows(battery, 10, "attractor", names)


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

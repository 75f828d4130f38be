import dataclasses

import numpy as np
import pytest

from polarflow import (
    SolveConfig,
    Trajectory,
    burgers_flux,
    ellipse_initial,
    evolve,
    l1_contraction_series,
    make_field,
    make_grid,
    mean,
    mode_decay_report,
    zero_flux,
)
from polarflow.diagnostics import NOISE_FLOOR
from conftest import smooth_field


def columns(f):
    """A one-record trajectory of ``f``: its columns hold the norms of ``f``."""
    return Trajectory(f.grid, zero_flux(f.grid.m), np.zeros(1), f.values[None])


class TestNorms:
    def test_constant(self, grid64):
        rec = columns(make_field(grid64, np.full(64, 2.0)))
        assert rec.sup[0] == 2.0
        assert rec.l1[0] == pytest.approx(2.0)
        assert rec.min[0] == 2.0

    def test_cosine(self, grid128):
        theta = grid128.axis_coords(0)
        rec = columns(make_field(grid128, np.cos(2 * np.pi * theta)))
        assert rec.sup[0] == pytest.approx(1.0, abs=1e-4)  # node offset h^2 slack
        # closed form: integral of |cos(2 pi x)| over one period = 2/pi;
        # |cos| is only piecewise smooth, so the trapezoid rule is O(h^2) here
        assert rec.l1[0] == pytest.approx(2.0 / np.pi, abs=5e-4)

    def test_l1_converges_second_order_on_kinked_integrand(self):
        errs = []
        for n in (128, 256):
            g = make_grid(1, [1.0], [n])
            rec = columns(make_field(g, np.cos(2 * np.pi * g.axis_coords(0))))
            errs.append(abs(rec.l1[0] - 2.0 / np.pi))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_negation_symmetry(self, grid64):
        f = smooth_field(grid64, seed=50, offset=0.5)
        neg = columns(make_field(grid64, -f.values))
        assert neg.sup[0] == columns(f).sup[0]
        assert neg.min[0] == -float(f.values.max())

    def test_l1_uses_volume(self):
        g = make_grid(1, [2.0], [64])
        rec = columns(make_field(g, np.full(64, 3.0)))
        assert rec.l1[0] == pytest.approx(6.0)  # 3 over a period of length 2


class TestSphereDeviation:
    def test_exact_sphere(self, grid64):
        assert columns(make_field(grid64, np.full(64, 1.5))).sphere_dev[0] == 0.0

    def test_ellipse_initial_deviation(self, grid128):
        r0, _ = ellipse_initial(grid128, 2.0, 1.0)
        rbar = mean(r0)
        dev = columns(r0).sphere_dev[0]
        assert dev == pytest.approx(max(2.0 - rbar, rbar - 1.0), abs=1e-12)

    def test_monotone_decrease_zero_flux(self, grid64):
        theta = grid64.axis_coords(0)
        r0 = make_field(grid64, 1.0 + 0.4 * np.cos(2 * np.pi * theta))
        traj = evolve(r0, zero_flux(1), SolveConfig(dt=1e-3, t_end=0.2, record_every=20))
        devs = traj.sphere_dev.tolist()
        assert all(b < a for a, b in zip(devs, devs[1:]))


class TestL1Contraction:
    def test_identical_runs_zero(self, grid64):
        theta = grid64.axis_coords(0)
        cfg = SolveConfig(dt=1e-3, t_end=0.1, record_every=20)
        spec = burgers_flux(1)
        t1 = evolve(make_field(grid64, 1.0 + 0.1 * np.sin(2 * np.pi * theta)), spec, cfg)
        t2 = evolve(make_field(grid64, 1.0 + 0.1 * np.sin(2 * np.pi * theta)), spec, cfg)
        series = l1_contraction_series(t1, t2)
        assert all(d == 0.0 for _, d in series)

    def test_trajectory_against_itself_exactly_zero(self, grid64):
        theta = grid64.axis_coords(0)
        cfg = SolveConfig(dt=1e-3, t_end=0.05, record_every=10)
        traj = evolve(make_field(grid64, 1.0 + 0.1 * np.sin(2 * np.pi * theta)), burgers_flux(1), cfg)
        assert all(d == 0.0 for _, d in l1_contraction_series(traj, traj))

    def test_distance_to_stationary_mean(self, grid64):
        theta = grid64.axis_coords(0)
        cfg = SolveConfig(dt=1e-3, t_end=0.2, record_every=20)
        spec = burgers_flux(1)
        t1 = evolve(make_field(grid64, 1.0 + 0.2 * np.sin(2 * np.pi * theta)), spec, cfg)
        t2 = evolve(make_field(grid64, np.full(64, 1.0)), spec, cfg)
        series = l1_contraction_series(t1, t2)
        for (_, d0), (_, d1) in zip(series, series[1:]):
            assert d1 <= d0 + 1e-8
        assert series[-1][1] < series[0][1]

    def test_mismatched_fluxes_rejected(self, grid64):
        cfg = SolveConfig(dt=1e-3, t_end=0.01, record_every=5)
        f = make_field(grid64, np.full(64, 1.0))
        t1 = evolve(f, burgers_flux(1), cfg)
        t2 = evolve(f, zero_flux(1), cfg)
        with pytest.raises(ValueError, match="fluxes"):
            l1_contraction_series(t1, t2)

    def test_increase_flagged(self, grid64):
        cfg = SolveConfig(dt=1e-3, t_end=0.01, record_every=5)
        spec = zero_flux(1)
        t1 = evolve(make_field(grid64, np.full(64, 1.0)), spec, cfg)
        t2 = evolve(make_field(grid64, np.full(64, 1.0)), spec, cfg)
        # doctor one record to force an increase
        radii = t2.radii.copy()
        radii[-1] += 0.5
        t2 = dataclasses.replace(t2, radii=radii)
        l1_contraction_series(t1, t2)
        assert any("increased" in flag for flag in t1.flags)


class TestModeDecay:
    def test_rates_and_zero_mode(self, grid64):
        theta = grid64.axis_coords(0)
        r0 = make_field(grid64, 1.0 + 0.5 * np.cos(2 * np.pi * theta))
        traj = evolve(r0, zero_flux(1), SolveConfig(dt=1e-4, t_end=0.05, record_every=100))
        rows = {row.index: row for row in mode_decay_report(traj)}
        assert rows[(0,)].fitted_rate == 0.0  # conserved mean
        assert rows[(1,)].theoretical_rate == pytest.approx(4 * np.pi**2)
        assert rows[(1,)].rel_error < 1e-10

    def test_2d_diagonal_mode(self, grid2d):
        # the half lattice stores (1, -1) and (2, -3) as their conjugate partners
        c1, c2 = grid2d.coords()
        for mode in [(1, 1), (1, -1), (2, -3)]:
            r0 = make_field(grid2d, 1.0 + 0.3 * np.cos(2 * np.pi * (mode[0] * c1 + mode[1] * c2)))
            traj = evolve(r0, zero_flux(2), SolveConfig(dt=1e-4, t_end=0.02, record_every=40))
            rows = {row.index: row for row in mode_decay_report(traj)}
            assert sorted(rows) == [(0, 0), mode]
            rate = 4 * np.pi**2 * (mode[0] ** 2 + mode[1] ** 2)
            assert rows[mode].theoretical_rate == pytest.approx(rate)
            assert rows[mode].rel_error < 1e-8

    @pytest.mark.parametrize("resolution", [(16,), (8, 16), (16, 8), (8, 8, 8)])
    def test_white_noise_index_set_matches_full_lattice_loop(self, resolution):
        m = len(resolution)
        grid = make_grid(m, [1.0] * m, resolution)
        r0 = make_field(grid, np.random.default_rng(sum(resolution)).normal(size=grid.shape))
        traj = evolve(r0, zero_flux(m), SolveConfig(dt=1e-5, t_end=3e-5, record_every=1))
        amps = np.fft.fftn(r0.values) / grid.num_nodes
        expected = []  # one index per +/- pair, led by a positive component
        for raw in np.ndindex(*grid.shape):
            signed = tuple(k if k < n // 2 else k - n for k, n in zip(raw, grid.resolution))
            first = next((s for s in signed if s != 0), 0)
            if first >= 0 and abs(amps[raw]) > NOISE_FLOOR:
                expected.append(signed)
        assert [row.index for row in mode_decay_report(traj)] == sorted(expected)

    def test_noise_floor_skipped(self, grid64):
        theta = grid64.axis_coords(0)
        r0 = make_field(grid64, 1.0 + 0.5 * np.cos(2 * np.pi * theta))
        traj = evolve(r0, zero_flux(1), SolveConfig(dt=1e-4, t_end=0.05, record_every=100))
        indices = [row.index for row in mode_decay_report(traj)]
        assert (5,) not in indices  # never excited

    def test_needs_three_snapshots(self, grid64):
        r0 = make_field(grid64, np.full(64, 1.0))
        traj = evolve(r0, zero_flux(1), SolveConfig(dt=1e-3, t_end=1e-3, record_every=1))
        with pytest.raises(ValueError, match="3 snapshots"):
            mode_decay_report(traj)

    def test_determinism(self, grid64):
        theta = grid64.axis_coords(0)
        r0 = make_field(grid64, 1.0 + 0.5 * np.cos(2 * np.pi * theta))
        cfg = SolveConfig(dt=1e-3, t_end=0.05, record_every=10)
        a = mode_decay_report(evolve(r0, zero_flux(1), cfg))
        b = mode_decay_report(evolve(r0, zero_flux(1), cfg))
        assert a == b

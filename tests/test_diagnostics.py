import dataclasses

import numpy as np
import pytest

from polarflow import (
    SolveConfig,
    burgers_flux,
    evolve,
    harnack_ratio,
    harnack_report,
    l1_contraction_series,
    l1_norm,
    make_field,
    make_grid,
    min_value,
    mode_decay_report,
    sphere_deviation,
    sup_norm,
    zero_flux,
)
from polarflow.diagnostics import NOISE_FLOOR
from conftest import smooth_field


class TestNorms:
    def test_constant(self, grid64):
        f = make_field(grid64, np.full(64, 2.0))
        assert sup_norm(f) == 2.0
        assert l1_norm(f) == pytest.approx(2.0)
        assert min_value(f) == 2.0

    def test_cosine(self, grid128):
        theta = grid128.axis_coords(0)
        f = make_field(grid128, np.cos(2 * np.pi * theta))
        assert sup_norm(f) == pytest.approx(1.0, abs=1e-4)  # node offset h^2 slack
        # closed form: integral of |cos(2 pi x)| over one period = 2/pi;
        # |cos| is only piecewise smooth, so the trapezoid rule is O(h^2) here
        assert l1_norm(f) == pytest.approx(2.0 / np.pi, abs=5e-4)

    def test_l1_converges_second_order_on_kinked_integrand(self):
        from polarflow import make_grid

        errs = []
        for n in (128, 256):
            g = make_grid(1, [1.0], [n])
            f = make_field(g, np.cos(2 * np.pi * g.axis_coords(0)))
            errs.append(abs(l1_norm(f) - 2.0 / np.pi))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_negation_symmetry(self, grid64):
        f = smooth_field(grid64, seed=50, offset=0.5)
        neg = make_field(grid64, -f.values)
        assert sup_norm(neg) == sup_norm(f)
        assert min_value(neg) == -float(f.values.max())

    def test_l1_uses_volume(self):
        from polarflow import make_grid

        g = make_grid(1, [2.0], [64])
        f = make_field(g, np.full(64, 3.0))
        assert l1_norm(f) == pytest.approx(6.0)  # 3 over a period of length 2


class TestSphereDeviation:
    def test_exact_sphere(self, grid64):
        f = make_field(grid64, np.full(64, 1.5))
        assert sphere_deviation(f, 1.5) == 0.0

    def test_ellipse_initial_deviation(self, grid128):
        from polarflow import ellipse_initial, mean

        r0, _ = ellipse_initial(grid128, 2.0, 1.0)
        rbar = mean(r0)
        dev = sphere_deviation(r0, rbar)
        assert dev == pytest.approx(max(2.0 - rbar, rbar - 1.0), abs=1e-12)

    def test_monotone_decrease_zero_flux(self, grid64):
        theta = grid64.axis_coords(0)
        r0 = make_field(grid64, 1.0 + 0.4 * np.cos(2 * np.pi * theta))
        traj = evolve(r0, zero_flux(1), SolveConfig(dt=1e-3, t_end=0.2, record_every=20))
        devs = traj.sphere_dev.tolist()
        assert all(b < a for a, b in zip(devs, devs[1:]))


class TestHarnack:
    def run(self, grid, values, t_end=1.0):
        return evolve(
            make_field(grid, values), zero_flux(1), SolveConfig(dt=1e-3, t_end=t_end, record_every=100)
        )

    def test_constant_solution_ratio_one(self, grid64):
        traj = self.run(grid64, np.full(64, 3.0))
        assert harnack_ratio(traj, 0.5, 0.2) == pytest.approx(1.0)

    def test_bounded_over_window(self, grid64):
        theta = grid64.axis_coords(0)
        traj = self.run(grid64, 1.0 + 0.5 * np.cos(2 * np.pi * theta))
        series, cmax = harnack_report(traj, 0.1)
        assert all(np.isfinite(r) for _, r in series)
        assert cmax < 10.0

    def test_scale_invariance(self, grid64):
        theta = grid64.axis_coords(0)
        base = 1.0 + 0.5 * np.cos(2 * np.pi * theta)
        r1 = harnack_ratio(self.run(grid64, base), 0.5, 0.2)
        r2 = harnack_ratio(self.run(grid64, 2.0 * base), 0.5, 0.2)
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_missing_snapshot_rejected(self, grid64):
        traj = self.run(grid64, np.full(64, 1.0))
        with pytest.raises(KeyError):
            harnack_ratio(traj, 0.5, 0.123)

    def test_non_positive_rejected(self, grid64):
        theta = grid64.axis_coords(0)
        traj = self.run(grid64, np.cos(2 * np.pi * theta))
        with pytest.raises(ValueError, match="positive"):
            harnack_ratio(traj, 0.5, 0.2)


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

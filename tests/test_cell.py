import warnings

import numpy as np
import pytest

from polarflow import (
    Modulation,
    SolveConfig,
    burgers_flux,
    constant_flux,
    evolve,
    make_field,
    make_grid,
    mean,
    monotonicity_check,
    polynomial_flux,
    solve_cell,
    step,
    with_modulation,
    zero_flux,
)
from polarflow._fdcell import fd_cell_solve, fd_derivative_matrix, fd_laplacian_matrix
from polarflow.cell import _CellOperator
from polarflow.errors import ConvergenceError
from polarflow.flux import eval_g, eval_g_prime
from conftest import full_lattice

MODULATED_LINEAR = with_modulation(
    constant_flux([1.0]), 0, Modulation(const=0.0, sin_amps=(1.0,))
)


class ReferenceCellOperator:
    """Reference: the stationary operator on complex FFTs of the full mode lattice.

    Flux spectra are multiplied by ``i kappa``; every product returns to the
    grid through ``ifftn(...).real``, which drops the Nyquist derivatives.
    """

    def __init__(self, grid, spec):
        self.spec = spec
        self.shape = grid.shape
        kappas, self.lap = full_lattice(grid)
        inv = np.zeros(grid.shape)
        nz = self.lap > 0.0
        inv[nz] = 1.0 / self.lap[nz]
        self.lap_inv = inv
        self.ik = [1j * k for k in kappas]
        self.mods = [spec.modulation_values(grid, i) for i in range(spec.m)]

    def residual(self, v):
        out_hat = np.fft.fftn(v) * self.lap
        for i in range(self.spec.m):
            gi = eval_g(self.spec, i, v)
            if self.mods[i] is not None:
                gi = gi * self.mods[i]
            out_hat += self.ik[i] * np.fft.fftn(gi)
        return np.fft.ifftn(out_hat).real

    def jacobian_flux_part(self, v, delta):
        out_hat = np.zeros(self.shape, dtype=np.complex128)
        for i in range(self.spec.m):
            coeff = eval_g_prime(self.spec, i, v)
            if self.mods[i] is not None:
                coeff = coeff * self.mods[i]
            out_hat += self.ik[i] * np.fft.fftn(coeff * delta)
        return np.fft.ifftn(out_hat).real

    def precondition(self, rhs):
        return np.fft.ifftn(np.fft.fftn(rhs) * self.lap_inv).real


def modulated_poly(m):
    mod0 = Modulation(const=0.4, cos_amps=(0.0, 0.3), sin_amps=(0.8,))
    spec = with_modulation(polynomial_flux([0.3, -0.5, 0.2], m), 0, mod0)
    return spec if m == 1 else with_modulation(spec, 1, Modulation(const=0.2, cos_amps=(0.5,)))


class TestCellOperatorOracle:
    """The real-FFT operator against the complex full-lattice reference."""

    # worst relative difference measured over these cases: 5.0e-16
    TOL = 2e-15

    @pytest.mark.parametrize("m, resolution", [(1, [32]), (1, [64]), (2, [16, 8]), (2, [32, 32])])
    def test_rough_data(self, m, resolution):
        grid = make_grid(m, [1.0, 2.0][:m], resolution)
        spec = modulated_poly(m)
        op, ref = _CellOperator(grid, spec), ReferenceCellOperator(grid, spec)
        rng = np.random.default_rng(sum(resolution) + 1)
        v = 1.0 + rng.standard_normal(grid.shape)
        delta = rng.standard_normal(grid.shape)
        for got, want in (
            (op.residual(v), ref.residual(v)),
            (op.jacobian_flux_part(v, delta), ref.jacobian_flux_part(v, delta)),
            (op.precondition(delta), ref.precondition(delta)),
        ):
            assert np.abs(got - want).max() <= self.TOL * np.abs(want).max()


class TestFdOracle:
    """Self-checks of the dense finite-difference reference route."""

    def test_derivative_matrix_on_harmonics(self):
        n = 256
        d1 = fd_derivative_matrix(n, 1.0)
        theta = np.arange(n) / n
        for k in (1, 2, 5):
            f = np.sin(2 * np.pi * k * theta)
            kappa = 2 * np.pi * k
            exact = kappa * np.cos(2 * np.pi * k * theta)
            # 6th-order truncation: |error| ~ kappa (kappa h)^6 / 140
            assert np.abs(d1 @ f - exact).max() < 10 * kappa * (kappa / n) ** 6 / 140

    def test_laplacian_matrix_on_harmonics(self):
        n = 256
        d2 = fd_laplacian_matrix(n, 1.0)
        theta = np.arange(n) / n
        f = np.cos(4 * np.pi * theta)
        exact = -((4 * np.pi) ** 2) * f
        assert np.abs(d2 @ f - exact).max() < 1e-6

    def test_oracle_residual_is_small(self):
        v = fd_cell_solve(MODULATED_LINEAR, 512, 1.0, 1.0)
        assert abs(v.mean() - 1.0) < 1e-13


class TestSolveCell:
    @pytest.mark.parametrize("spec", [zero_flux(1), constant_flux([2.0]), burgers_flux(1), polynomial_flux([1.0, 0.5])])
    def test_theta_independent_gives_constant(self, grid64, spec):
        sol = solve_cell(spec, grid64, 1.3)
        assert sol.newton_iters == 0
        assert sol.residual < 1e-10
        assert np.abs(sol.v.values - 1.3).max() < 1e-13

    def test_modulated_linear_vs_fd_oracle(self, grid64):
        sol = solve_cell(MODULATED_LINEAR, grid64, 1.0)
        ref = fd_cell_solve(MODULATED_LINEAR, 512, 1.0, 1.0)
        assert np.abs(sol.v.values - ref[:: 512 // 64]).max() < 1e-8
        assert sol.residual < 1e-10

    def test_modulated_linear_p_zero(self, grid64):
        sol = solve_cell(MODULATED_LINEAR, grid64, 0.0)
        ref = fd_cell_solve(MODULATED_LINEAR, 512, 1.0, 0.0)
        assert abs(mean(sol.v)) < 1e-13
        assert sol.residual < 1e-10
        assert np.abs(sol.v.values - ref[:: 512 // 64]).max() < 1e-8

    def test_modulated_nonlinear_vs_fd_oracle(self, grid64):
        spec = with_modulation(burgers_flux(1), 0, Modulation(const=0.0, sin_amps=(0.8,)))
        sol = solve_cell(spec, grid64, 1.0)
        ref = fd_cell_solve(spec, 512, 1.0, 1.0)
        assert np.abs(sol.v.values - ref[:: 512 // 64]).max() < 1e-8

    def test_mean_pinned_exactly(self, grid64):
        for p in (-0.7, 0.0, 1.0, 2.3):
            sol = solve_cell(MODULATED_LINEAR, grid64, p)
            assert abs(mean(sol.v) - p) < 1e-13

    def test_two_axis_modulated(self):
        grid = make_grid(2, [1.0, 2.0], [32, 16])
        spec = with_modulation(burgers_flux(2), 0, Modulation(const=0.0, sin_amps=(0.8,)))
        spec = with_modulation(spec, 1, Modulation(const=0.2, cos_amps=(0.5,)))
        ref = ReferenceCellOperator(grid, spec)
        for p in (1.0, -0.4):
            sol = solve_cell(spec, grid, p)
            assert sol.newton_iters > 0 and np.ptp(sol.v.values) > 0.04
            assert abs(mean(sol.v) - p) < 1e-13
            assert sol.residual < 1e-10
            assert np.abs(ref.residual(sol.v.values)).max() < 1e-10

    def test_stationary_under_solver_step(self, grid64):
        sol = solve_cell(MODULATED_LINEAR, grid64, 1.0)
        moved = step(sol.v, MODULATED_LINEAR, 1e-5)
        assert np.abs(moved.values - sol.v.values).max() < 1e-9


class TestSolveCellInputs:
    @pytest.mark.parametrize("p", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_p_rejected_naming_p(self, grid64, p):
        with pytest.raises(ValueError, match="p must be finite"):
            solve_cell(MODULATED_LINEAR, grid64, p)

    def test_non_finite_residual_is_not_converged(self, grid64):
        # g(1e200) overflows, so the residual is NaN, which never exceeds tol
        with np.errstate(all="ignore"), pytest.raises(ConvergenceError, match="not finite"):
            solve_cell(burgers_flux(1), grid64, 1e200)


    def test_diverging_inner_solve_raises_without_warnings(self):
        spec = with_modulation(constant_flux([1.0]), 0, Modulation(const=0.0, sin_amps=(100.0,)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="inner linear solve diverged"):
                solve_cell(spec, make_grid(1, [1.0], [32]), 1.0)


class TestMonotonicity:
    def test_theta_independent_constants(self, grid64):
        assert monotonicity_check(burgers_flux(1), grid64, 1.0, 0.0)

    def test_modulated_linear(self, grid64):
        assert monotonicity_check(MODULATED_LINEAR, grid64, 0.5, -0.5)

    def test_equal_means_rejected(self, grid64):
        with pytest.raises(ValueError, match="p > q"):
            monotonicity_check(MODULATED_LINEAR, grid64, 1.0, 1.0)

    def test_random_pairs(self, grid64):
        rng = np.random.default_rng(41)
        for _ in range(10):
            q, p = np.sort(rng.uniform(-1.0, 1.5, size=2))
            assert monotonicity_check(MODULATED_LINEAR, grid64, float(p + 1e-3), float(q))


class TestAttractor:
    """Runs approach the stationary state of their mean, read off the record arrays."""

    def test_burgers_reaches_constant(self, grid128):
        # every constant is stationary, so the attractor is the mean
        theta = grid128.axis_coords(0)
        r0 = make_field(grid128, 1.0 + 0.3 * np.cos(2 * np.pi * theta))
        traj = evolve(r0, burgers_flux(1), SolveConfig(dt=1e-3, t_end=1.0, record_every=5))
        assert traj.sphere_dev[-1] < 1e-6
        l1 = np.abs(traj.radii - mean(r0)).mean(axis=1).tolist()
        assert all(b <= a + 1e-8 for a, b in zip(l1, l1[1:]))

    def test_zero_flux_single_mode_rate(self, grid64):
        theta = grid64.axis_coords(0)
        r0 = make_field(grid64, 1.0 + 0.5 * np.cos(2 * np.pi * theta))
        traj = evolve(r0, zero_flux(1), SolveConfig(dt=1e-3, t_end=0.25, record_every=25))
        # distance to the constant attractor decays at the slowest heat rate
        fit = np.polyfit(traj.times, np.log(traj.sphere_dev), 1)[0]
        assert -fit == pytest.approx(4 * np.pi**2, rel=0.01)

    def test_stationary_initial_data_stays(self, grid64):
        # the split integrator's own fixed point sits O(dt^2) from the
        # stationary state, so the drift floor scales down with dt
        sol = solve_cell(MODULATED_LINEAR, grid64, 1.0)
        traj = evolve(sol.v, MODULATED_LINEAR, SolveConfig(dt=1e-6, t_end=5e-4, record_every=50))
        assert np.abs(traj.radii - sol.v.values).max() < 1e-10

    def test_modulated_run_stays_in_envelope(self, grid64):
        # stationary states below and above the data stay below and above the run
        theta = grid64.axis_coords(0)
        r0 = make_field(grid64, 1.0 + 0.2 * np.sin(2 * np.pi * theta))
        low, high = (solve_cell(MODULATED_LINEAR, grid64, p).v.values for p in (0.5, 1.5))
        assert (low <= r0.values).all() and (r0.values <= high).all()
        traj = evolve(r0, MODULATED_LINEAR, SolveConfig(dt=2e-4, t_end=0.3))
        assert (low <= traj.radii).all() and (traj.radii <= high).all()
        v1 = solve_cell(MODULATED_LINEAR, grid64, 1.0).v.values
        assert np.abs(traj.radii[-1] - v1).max() < 1e-5

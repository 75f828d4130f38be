import tracemalloc
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
    with_modulation,
    zero_flux,
)
from polarflow import _fdcell
from polarflow._fdcell import _D1, _D2, _newton_update, _residual, fd_cell_solve, fd_derivative, fd_laplacian
from polarflow.cell import GROWTH_RUN, _branch_pairs, _CellOperator
from polarflow.errors import ConvergenceError
from polarflow.flux import eval_g, eval_g_prime
from conftest import full_lattice, one_step

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
        kappas, self.lap = full_lattice(grid)
        inv = np.zeros(grid.shape)
        nz = self.lap > 0.0
        inv[nz] = 1.0 / self.lap[nz]
        self.lap_inv = inv
        self.ik = [1j * k for k in kappas]
        self.mods = spec.resolve(grid)

    def residual(self, v):
        out_hat = np.fft.fftn(v) * self.lap
        for i in range(self.spec.m):
            gi = eval_g(self.spec, i, v)
            if self.mods[i] is not None:
                gi = gi * self.mods[i]
            out_hat += self.ik[i] * np.fft.fftn(gi)
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
            (op.precondition(delta), ref.precondition(delta)),
        ):
            assert np.abs(got - want).max() <= self.TOL * np.abs(want).max()


def dense_stencil_matrix(n, stencil, scale):
    """Reference: a periodic stencil as a dense ``n x n`` matrix."""
    mat = np.zeros((n, n))
    idx = np.arange(n)
    for off, c in stencil:
        mat[idx, (idx + off) % n] += c * scale
    return mat


def reference_newton_update(c, res, length):
    """Reference: the Newton step from the dense bordered system ``[J 1; 1^T/n 0]``."""
    n = res.size
    d1 = dense_stencil_matrix(n, _D1, n / length)
    d2 = dense_stencil_matrix(n, _D2, (n / length) ** 2)
    system = np.zeros((n + 1, n + 1))
    system[:n, :n] = -d2 + d1 * c  # d1 @ diag(c) as a column scaling
    system[:n, n] = 1.0
    system[n, :n] = 1.0 / n
    rhs = np.zeros(n + 1)
    rhs[:n] = -res
    return np.linalg.solve(system, rhs)[:n]


def reference_fd_cell_solve(spec, n, length, p):
    """Reference: :func:`fd_cell_solve` on dense stencil matrices and a dense bordered solve."""
    d1 = dense_stencil_matrix(n, _D1, n / length)
    d2 = dense_stencil_matrix(n, _D2, (n / length) ** 2)
    mod = spec.components[0].modulation
    a = mod.evaluate(np.arange(n) * (length / n), length)
    v = np.full(n, float(p))
    for _ in range(60):
        res = -d2 @ v + d1 @ (a * eval_g(spec, 0, v))
        if np.abs(res).max() <= 100.0 * np.finfo(float).eps * (n / length) ** 2 * max(1.0, abs(p)):
            break
        dv = reference_newton_update(a * eval_g_prime(spec, 0, v), res, length)
        v = v + dv
        v = v - v.mean() + p
    return v


FD_SPECS = {
    "constant": MODULATED_LINEAR,
    "burgers": with_modulation(burgers_flux(1), 0, Modulation(const=0.0, sin_amps=(0.8,))),
    "cubic": with_modulation(polynomial_flux([0.2, 0.0, 0.0, 0.3]), 0, Modulation(const=0.3, cos_amps=(0.6,))),
}


class TestFdOracle:
    """Self-checks of the banded finite-difference reference route."""

    def test_derivative_matrix_on_harmonics(self):
        n = 256
        theta = np.arange(n) / n
        for k in (1, 2, 5):
            f = np.sin(2 * np.pi * k * theta)
            kappa = 2 * np.pi * k
            exact = kappa * np.cos(2 * np.pi * k * theta)
            # 6th-order truncation: |error| ~ kappa (kappa h)^6 / 140
            assert np.abs(fd_derivative(f, 1.0) - exact).max() < 10 * kappa * (kappa / n) ** 6 / 140

    def test_laplacian_matrix_on_harmonics(self):
        n = 256
        theta = np.arange(n) / n
        f = np.cos(4 * np.pi * theta)
        exact = -((4 * np.pi) ** 2) * f
        assert np.abs(fd_laplacian(f, 1.0) - exact).max() < 1e-6

    @pytest.mark.parametrize("n", [7, 16, 512])  # n = 7: every row wraps
    def test_operators_equal_dense_products(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        for got, stencil, scale in ((fd_derivative(x, 2.0), _D1, n / 2.0),
                                    (fd_laplacian(x, 2.0), _D2, (n / 2.0) ** 2)):
            want = dense_stencil_matrix(n, stencil, scale) @ x
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n", [64, 512])
    @pytest.mark.parametrize("flux", sorted(FD_SPECS))
    def test_newton_update_equals_dense_bordered_solve(self, flux, n):
        # measured worst relative difference: 2.0e-13 (cubic, n = 512)
        spec = FD_SPECS[flux]
        theta = np.arange(n) / n
        v = 1.0 + 0.3 * np.sin(2 * np.pi * theta) + 0.01 * np.random.default_rng(n).standard_normal(n)
        a = spec.components[0].modulation.evaluate(theta, 1.0)
        c = a * eval_g_prime(spec, 0, v)
        res = _residual(spec, a, v, 1.0)
        got, want = _newton_update(c, res, 1.0), reference_newton_update(c, res, 1.0)
        assert abs(got.mean()) <= 1e-14 * np.abs(got).max()
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("flux", sorted(FD_SPECS))
    def test_solve_equals_dense_route(self, flux):
        got = fd_cell_solve(FD_SPECS[flux], 512, 1.0, 1.0)
        want = reference_fd_cell_solve(FD_SPECS[flux], 512, 1.0, 1.0)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_oracle_residual_is_small(self):
        v = fd_cell_solve(MODULATED_LINEAR, 512, 1.0, 1.0)
        assert abs(v.mean() - 1.0) < 1e-13

    def test_solve_traces_under_one_megabyte(self):
        # the dense route's 512 x 512 matrices peak at 10 MB
        fd_cell_solve(MODULATED_LINEAR, 64, 1.0, 1.0)  # warm up imports and caches
        tracemalloc.start()
        try:
            fd_cell_solve(MODULATED_LINEAR, 512, 1.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestFdCellSolveInputs:
    @pytest.mark.parametrize("p", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_p_rejected(self, p):
        with pytest.raises(ValueError, match="p must be finite"):
            fd_cell_solve(MODULATED_LINEAR, 64, 1.0, p)

    @pytest.mark.parametrize("n", [0, 4], ids=["empty", "below_stencil"])
    def test_too_few_nodes_rejected(self, n):
        with pytest.raises(ValueError, match="at least 7 nodes"):
            fd_cell_solve(MODULATED_LINEAR, n, 1.0, 1.0)

    @pytest.mark.parametrize("length", [0.0, -1.0], ids=["zero", "negative"])
    def test_non_positive_length_rejected(self, length):
        with pytest.raises(ValueError, match="length must be positive and finite"):
            fd_cell_solve(MODULATED_LINEAR, 64, length, 1.0)

    def test_non_finite_residual_is_not_converged(self):
        # -D2 v overflows at v = 1e305 while c = a g'(v) stays finite, so every
        # pivot is finite and only a residual check can see the NaN
        with np.errstate(all="ignore"), pytest.raises(ConvergenceError, match="residual nan"):
            fd_cell_solve(MODULATED_LINEAR, 64, 1.0, 1e305)

    def test_non_finite_residual_takes_no_newton_step(self, monkeypatch):
        # the solve once ran all 60 steps on NaN state before its final check
        calls = []
        original = _fdcell._newton_update

        def counting(c, res, length):
            calls.append(1)
            return original(c, res, length)

        monkeypatch.setattr(_fdcell, "_newton_update", counting)
        with np.errstate(all="ignore"), pytest.raises(ConvergenceError, match="residual nan"):
            fd_cell_solve(MODULATED_LINEAR, 64, 1.0, 1e305)
        assert calls == []

    def test_non_finite_pivot_is_not_converged(self):
        # the residual (1e240) is finite at v = 1e60, but the first elimination,
        # with a g'(v) ~ 1e120, overflows its second pivot
        with np.errstate(all="ignore"), pytest.raises(ConvergenceError, match="pivot"):
            fd_cell_solve(FD_SPECS["cubic"], 64, 1.0, 1e60)


class TestSolveCell:
    @pytest.mark.parametrize("spec", [zero_flux(1), constant_flux([2.0]), burgers_flux(1), polynomial_flux([1.0, 0.5])])
    def test_theta_independent_gives_constant(self, grid64, spec):
        sol = solve_cell(spec, grid64, 1.3)
        assert sol.iterations == 0
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

    # measured gaps: 2.6e-13, 9.3e-14, 4.7e-13 and 6.1e-12; the squared flux at
    # sin_amps 5 takes 206 iterations and ends 2.8e-7 off with its residual at
    # the roundoff floor (damped Newton stagnated on it at residual 3.1e+01)
    @pytest.mark.parametrize(
        "base, amp, p, bound",
        [
            (burgers_flux(1), 2.0, 1.0, 1e-8),
            (polynomial_flux([0.0, 0.0, 1.0]), 2.0, 0.5, 1e-8),
            (constant_flux([1.0]), 5.0, 0.5, 1e-8),
            (burgers_flux(1), 8.0, 1.0, 1e-8),
            (polynomial_flux([0.0, 0.0, 1.0]), 5.0, 1.0, 1e-6),
        ],
        ids=["burgers-2", "square-2", "constant-5", "burgers-8", "square-5"],
    )
    def test_strong_modulation_vs_fd_oracle(self, grid64, base, amp, p, bound):
        spec = with_modulation(base, 0, Modulation(const=0.0, sin_amps=(amp,)))
        sol = solve_cell(spec, grid64, p)
        ref = fd_cell_solve(spec, 512, 1.0, p)
        assert np.abs(sol.v.values - ref[:: 512 // 64]).max() < bound

    def test_mean_pinned_exactly(self, grid64):
        # the re-pinned mean may round an ulp away from p; on these solves it lands on p
        for p in (-0.7, 0.0, 1.0, 2.3):
            sol = solve_cell(MODULATED_LINEAR, grid64, p)
            assert mean(sol.v) == p

    def test_two_axis_modulated(self):
        grid = make_grid(2, [1.0, 2.0], [32, 16])
        spec = with_modulation(burgers_flux(2), 0, Modulation(const=0.0, sin_amps=(0.8,)))
        spec = with_modulation(spec, 1, Modulation(const=0.2, cos_amps=(0.5,)))
        ref = ReferenceCellOperator(grid, spec)
        for p in (1.0, -0.4):
            sol = solve_cell(spec, grid, p)
            assert sol.iterations > 0 and np.ptp(sol.v.values) > 0.04
            assert abs(mean(sol.v) - p) < 1e-13
            assert sol.residual < 1e-10
            assert np.abs(ref.residual(sol.v.values)).max() < 1e-10

    def test_stationary_under_solver_step(self, grid64):
        sol = solve_cell(MODULATED_LINEAR, grid64, 1.0)
        moved = one_step(sol.v, MODULATED_LINEAR, 1e-5)
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
            with pytest.raises(ConvergenceError, match="fixed-point iteration diverged"):
                solve_cell(spec, make_grid(1, [1.0], [32]), 1.0)

    def test_growing_inner_solve_stops_within_ten_iterations(self, monkeypatch):
        # the residual grows 5-16x an iteration from the first, so the growth
        # run ends the solve long before the flux overflows
        spec = with_modulation(constant_flux([1.0]), 0, Modulation(const=0.0, sin_amps=(100.0,)))
        calls = []
        original = _CellOperator.residual

        def counting(self, v):
            calls.append(1)
            return original(self, v)

        monkeypatch.setattr(_CellOperator, "residual", counting)
        with pytest.raises(ConvergenceError, match=f"diverged at iteration {GROWTH_RUN}$"):
            solve_cell(spec, make_grid(1, [1.0], [32]), 1.0)
        assert len(calls) == GROWTH_RUN + 1 <= 10


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

    # at 1e16 floats lie 2 apart: a drawn pair can coincide, and q + 1e-3 rounds back to q
    @pytest.mark.parametrize("low, high", [(-1.0, 1.5), (1e16 - 1.0, 1e16 + 1.0)])
    def test_branch_pairs(self, grid64, low, high):
        pairs = _branch_pairs(MODULATED_LINEAR, grid64, low, high, 4, 7)
        assert len(pairs) == 4
        for p, q, holds in pairs:
            assert p > q and (p - q >= 1e-3 or p == np.nextafter(q, np.inf))
            assert holds == monotonicity_check(MODULATED_LINEAR, grid64, p, q)
        if low > 1e15:
            assert any(p == np.nextafter(q, np.inf) for p, q, _ in pairs)


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

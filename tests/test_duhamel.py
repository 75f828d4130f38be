import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from polarflow import (
    ConvergenceError,
    Modulation,
    SolveConfig,
    burgers_flux,
    constant_flux,
    contraction_horizon,
    evolve,
    galilean_shift,
    heat_kernel_convolve,
    heat_propagate,
    kernel_gradient_l1,
    make_field,
    make_grid,
    picard_extend,
    picard_solve,
    polynomial_flux,
    with_modulation,
    zero_flux,
)
from polarflow import duhamel
from polarflow.duhamel import (
    _convolve_nodes,
    _convolve_sum_last,
    _fd_derivative,
    _heat_flow,
    _lagrange4_weights,
    _plain_row,
    _Window,
)
from polarflow.flux import eval_g
from conftest import smooth_field


def dense_circulant(row, arr, axis=0):
    """``out[j] = sum_l row[(j - l) % N] arr[l]`` along ``axis``, as a dense N x N product."""
    n = row.shape[0]
    matrix = row[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n]
    return np.moveaxis(np.tensordot(matrix, arr, axes=(1, axis)), 0, axis)


def padded_convolve_nodes(rows, batch, axis):
    """:func:`_convolve_nodes` on a batch wrap-padded by ``np.pad``: must agree bitwise."""
    n = rows.shape[-1]
    pad = [(0, 0)] * batch.ndim
    pad[axis] = (n - 1, 0)
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(batch, pad, mode="wrap"), n, axis=axis)
    return np.einsum("qk,q...k->q...", rows, windows)


def rolled_fd_derivative(vals, axis, h):
    """:func:`_fd_derivative` with every shift an ``np.roll`` copy: must agree bitwise."""
    out = np.zeros_like(vals)
    for k, c in enumerate(duhamel._FD8, start=1):
        out += c * (np.roll(vals, -k, axis=axis) - np.roll(vals, k, axis=axis))
    return out / h


def run_python(script, timeout, **env):
    """Run ``script`` in a fresh interpreter with extra environment variables; its stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **env}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=timeout)
    assert done.returncode == 0, done.stderr
    return done.stdout


def reference_heat_convolve(f, t):
    """``K(t) * f`` with one :func:`dense_circulant` per axis."""
    out = f.values
    for ax in range(f.grid.m):
        row = _plain_row(f.grid.resolution[ax], f.grid.lengths[ax], t)
        out = dense_circulant(row, out, axis=ax)
    return out


def reference_sweep(window, base, iterate, n_gauss):
    """The fixed-point map one (target, node) pair at a time.

    Interpolates the node field with its own 4-point stencil, applies the
    flux divergence with the FD8 derivative, then convolves with the plain
    kernel row per axis through :func:`dense_circulant`; nothing is folded
    or batched, so it checks :meth:`_Window.sweep` independently.
    """
    grid, spec, mesh = window.grid, window.spec, window.mesh
    n_time, dt = len(mesh), mesh[1] - mesh[0]
    nodes, weights = np.polynomial.legendre.leggauss(n_gauss)
    new = base.copy()
    for i in range(1, n_time):
        half = 0.5 * np.sqrt(mesh[i])
        acc = np.zeros(grid.shape)
        for x, w in zip(nodes, weights):
            sigma = half * (x + 1.0)
            tau = sigma * sigma
            u = (mesh[i] - tau) / dt
            j0 = int(np.clip(np.floor(u), 1, n_time - 3))
            lagrange = _lagrange4_weights(u - j0)
            field = np.tensordot(lagrange, iterate[j0 - 1 : j0 + 3], axes=(0, 0))
            conv = np.zeros(grid.shape)
            for j in range(spec.m):
                gj = eval_g(spec, j, field)
                mod = spec.resolve(grid)[j]
                if mod is not None:
                    gj = gj * mod
                conv += _fd_derivative(gj, axis=j, h=grid.spacings[j])
            for ax in range(grid.m):
                row = _plain_row(grid.resolution[ax], grid.lengths[ax], tau)
                conv = dense_circulant(row, conv, axis=ax)
            acc += 2.0 * sigma * half * w * conv
        new[i] -= acc
    return new


class TestContractionHorizon:
    def test_hand_evaluated_case_one(self):
        # min{(sqrt(pi)/4)^2, (sqrt(pi)/8)^2} = pi/64
        assert contraction_horizon(1.0, 2.0, 1) == pytest.approx(np.pi / 64, abs=1e-12)

    def test_hand_evaluated_case_two(self):
        # min{pi, pi/64} = pi/64
        assert contraction_horizon(2.0, 1.0, 2) == pytest.approx(np.pi / 64, abs=1e-12)

    def test_zero_flux_bound_returns_cap(self):
        assert contraction_horizon(1.0, 0.0, 1) == 1.0

    def test_zero_field_bound_returns_cap(self):
        # zero data is a fixed point, since every flux has g(0) = 0
        assert contraction_horizon(0.0, 1.0, 1) == 1.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            contraction_horizon(-1.0, 1.0, 1)
        with pytest.raises(ValueError):
            contraction_horizon(1.0, 1.0, 0)


class TestHeatKernelConvolve:
    def test_matches_spectral_propagator(self, grid128):
        f = smooth_field(grid128, seed=30, offset=1.0)
        t = 0.01
        diff = np.abs(
            heat_kernel_convolve(f, t).values - heat_propagate(f, t).values
        ).max()
        assert diff < 1e-10

    def test_constant_field_unchanged(self, grid64):
        f = make_field(grid64, np.full(64, 2.0))
        out = heat_kernel_convolve(f, 0.05)
        assert np.abs(out.values - 2.0).max() < 1e-13  # unit kernel mass

    def test_small_time_limit_is_identity(self, grid64):
        f = smooth_field(grid64, seed=31)
        out = heat_kernel_convolve(f, 1e-12)
        assert np.abs(out.values - f.values).max() < 1e-10

    def test_2d_matches_spectral(self, grid2d):
        f = smooth_field(grid2d, seed=32, n_modes=5, offset=0.5)
        t = 0.02
        diff = np.abs(
            heat_kernel_convolve(f, t).values - heat_propagate(f, t).values
        ).max()
        assert diff < 1e-10

    def test_semigroup_crosscheck_random(self, grid64):
        rng = np.random.default_rng(33)
        worst = 0.0
        for k in range(100):
            f = smooth_field(grid64, seed=1000 + k)
            t = float(rng.uniform(0.005, 0.5))
            d = np.abs(
                heat_kernel_convolve(f, t).values - heat_propagate(f, t).values
            ).max()
            worst = max(worst, float(d))
        assert worst < 1e-10

    def test_non_positive_time_rejected(self, grid64):
        with pytest.raises(ValueError):
            heat_kernel_convolve(make_field(grid64, np.ones(64)), 0.0)

    def test_matches_dense_reference(self, grid2d):
        f = smooth_field(grid2d, seed=42, n_modes=5)
        out = heat_kernel_convolve(f, 0.003).values
        assert np.abs(out - reference_heat_convolve(f, 0.003)).max() < 1e-14

    def test_batched_base_matches_per_time_calls(self, grid2d):
        # the base of a picard_solve window: every mesh time in one batch
        f = smooth_field(grid2d, seed=43, n_modes=5, offset=1.0)
        taus = np.linspace(0.0, 2e-3, 33)[1:]
        batched = _heat_flow(grid2d, f.values, taus)
        single = np.stack([heat_kernel_convolve(f, t).values for t in taus])
        assert np.abs(batched - single).max() < 1e-14

    def test_huge_time_returns_the_mean(self):
        # a sum over 14 sqrt(t) / L images would not end at t = 1e300
        script = (
            "import time\n"
            "import numpy as np\n"
            "from polarflow import heat_kernel_convolve, make_field, make_grid\n"
            "grid = make_grid(2, [1.0, 2.5], [16, 32])\n"
            "f = make_field(grid, np.random.default_rng(46).normal(size=(16, 32)))\n"
            "t0 = time.perf_counter()\n"
            "with np.errstate(all='raise'):\n"
            "    out = heat_kernel_convolve(f, 1e300).values\n"
            "print(time.perf_counter() - t0, np.abs(out - f.values.mean()).max())\n"
        )
        seconds, gap = map(float, run_python(script, timeout=60).split())
        assert gap < 1e-15
        assert seconds < 1.0

    def test_flat_from_one_period_squared(self):
        # the first Fourier mode is 2 exp(-4 pi^2) ~ 1.4e-17 of the mean at tau = L^2
        row = _plain_row(64, 2.0, np.array([1e-3, 4.0, 1e12]))
        assert np.array_equal(row[1:], np.full((2, 64), 1.0 / 64))
        assert np.array_equal(row[0], _plain_row(64, 2.0, 1e-3))
        assert np.abs(_plain_row(64, 2.0, 3.99) * 64 - 1.0).max() < 1e-15

    def test_memory_stays_linear_in_n(self):
        # an N x N gather table alone would take 32 MiB at N=2048
        grid = make_grid(1, [1.0], [2048])
        f = smooth_field(grid, seed=44, offset=1.0)
        tracemalloc.start()
        try:
            heat_kernel_convolve(f, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestConvolveNodes:
    @pytest.mark.parametrize("axis", [1, 2], ids=["axis1", "axis2"])
    def test_matches_dense_reference(self, axis):
        rng = np.random.default_rng(77)
        batch = rng.normal(size=(5, 12, 16))
        rows = rng.normal(size=(5, batch.shape[axis]))  # a distinct row per node
        out = _convolve_nodes(rows[:, ::-1], batch, axis=axis)
        ref = np.stack([dense_circulant(rows[q], batch[q], axis=axis - 1) for q in range(5)])
        assert np.abs(out - ref).max() < 1e-12

    def test_identity_row(self):
        batch = np.random.default_rng(78).normal(size=(3, 16, 2))
        rows = np.zeros((3, 16))
        rows[:, 0] = 1.0
        assert np.abs(_convolve_nodes(rows[:, ::-1], batch, axis=1) - batch).max() < 1e-15

    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_bitwise_equal_to_np_pad(self, axis):
        rng = np.random.default_rng(79)
        batch = rng.normal(size=(4, 6, 8, 10))
        rows = rng.normal(size=(4, batch.shape[axis]))
        out = _convolve_nodes(rows, batch, axis=axis)
        assert np.array_equal(out, padded_convolve_nodes(rows, batch, axis=axis))


class TestConvolveSumLast:
    @pytest.mark.parametrize(
        "shape, axis",
        [((16,), 0), ((12, 16), 0), ((12, 16), 1), ((6, 8, 10), 0), ((6, 8, 10), 1), ((6, 8, 10), 2)],
        ids=["1d", "2d_axis0", "2d_axis1", "3d_axis0", "3d_axis1", "3d_axis2"],
    )
    def test_matches_node_sum_and_dense_reference(self, shape, axis):
        rng = np.random.default_rng(80)
        n_nodes = 7
        batch = rng.normal(size=(n_nodes,) + shape)
        rows = rng.normal(size=(n_nodes, shape[axis]))  # a distinct row per node
        # the contracted axis moved last, and the result moved back
        moved = np.moveaxis(batch, axis + 1, -1)
        out = np.moveaxis(_convolve_sum_last(rows[:, ::-1], moved), -1, axis)
        per_node = _convolve_nodes(rows[:, ::-1], batch, axis=axis + 1).sum(axis=0)
        dense = sum(dense_circulant(rows[q], batch[q], axis=axis) for q in range(n_nodes))
        assert out.shape == shape
        assert np.abs(out - per_node).max() < 1e-13
        assert np.abs(out - dense).max() < 1e-13


class TestKernelGradientL1:
    def test_t_equals_one(self):
        assert kernel_gradient_l1(1.0) == pytest.approx(np.pi**-0.5, rel=1e-8)

    def test_t_equals_quarter(self):
        assert kernel_gradient_l1(0.25) == pytest.approx((np.pi * 0.25) ** -0.5, rel=1e-8)

    def test_scaling_law(self):
        # value(4t) = value(t) / 2
        t = 0.13
        assert kernel_gradient_l1(4 * t) == pytest.approx(kernel_gradient_l1(t) / 2, rel=1e-8)

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            kernel_gradient_l1(0.0)


class TestPicardSolve:
    def test_zero_flux_one_iteration(self, grid64):
        f = smooth_field(grid64, seed=34, offset=1.0)
        rep = picard_solve(f, zero_flux(1))
        assert len(rep.sup_deltas) == 1
        assert rep.sup_deltas == [0.0]
        oracle = heat_propagate(f, rep.horizon)
        assert np.abs(rep.final.values - oracle.values).max() < 1e-10

    def test_burgers_contraction_and_spectral_agreement(self, grid128):
        theta = grid128.axis_coords(0)
        r0 = make_field(grid128, 1.0 + 0.2 * np.sin(2 * np.pi * theta))
        spec = burgers_flux(1)
        rep = picard_solve(r0, spec)
        # geometric deltas, ratio comfortably below the halving bound
        for ratio in rep.delta_ratios()[2:]:
            assert ratio <= 0.55
        # discrete sweeps respect the halving envelope once resolved
        for k, delta in enumerate(rep.sup_deltas):
            assert delta <= 1.1 * 0.5 ** (k + 1)
        ref = evolve(
            r0, spec, SolveConfig(dt=rep.horizon / 2048, t_end=rep.horizon, record_every=1 << 20)
        )
        assert np.abs(rep.final.values - ref.final.values).max() < 1e-4

    def test_burgers_2d_spectral_agreement(self, grid2d):
        x = grid2d.axis_coords(0)[:, None]
        y = grid2d.axis_coords(1)[None, :]
        r0 = make_field(grid2d, 1.0 + 0.2 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
        spec = burgers_flux(2)
        rep = picard_solve(r0, spec)
        ref = evolve(
            r0, spec, SolveConfig(dt=rep.horizon / 2048, t_end=rep.horizon, record_every=1 << 20)
        )
        # measured 9.4e-7 at 32^2
        assert np.abs(rep.final.values - ref.final.values).max() < 1e-5

    def test_constant_flux_matches_galilean_oracle(self, grid128):
        f = smooth_field(grid128, seed=35, offset=1.0)
        c = 1.0
        rep = picard_solve(f, constant_flux([c]))
        oracle = galilean_shift(heat_propagate(f, rep.horizon), [c], rep.horizon)
        assert np.abs(rep.final.values - oracle.values).max() < 1e-6

    def test_iterate_sup_bound(self, grid64):
        theta = grid64.axis_coords(0)
        r0 = make_field(grid64, 1.0 + 0.3 * np.sin(2 * np.pi * theta))
        rep = picard_solve(r0, burgers_flux(1))
        assert rep.max_iterate_sup <= 2.0 * rep.field_bound  # (m+1) M with m=1

    def test_horizon_uses_flux_envelope(self, grid64):
        theta = grid64.axis_coords(0)
        r0 = make_field(grid64, 1.0 + 0.2 * np.sin(2 * np.pi * theta))
        rep = picard_solve(r0, burgers_flux(1))
        m_bound = 1.2
        h_bound = max((2 * m_bound) ** 2 / 2.0, 2 * m_bound)
        expect = min(
            (m_bound * np.sqrt(np.pi) / (2 * h_bound)) ** 2,
            (np.sqrt(np.pi) / (4 * h_bound)) ** 2,
        )
        assert rep.horizon == pytest.approx(expect, rel=1e-12)

    def test_non_convergence_raises_with_history(self, grid64, monkeypatch):
        theta = grid64.axis_coords(0)
        r0 = make_field(grid64, 1.0 + 0.2 * np.sin(2 * np.pi * theta))
        monkeypatch.setattr(duhamel, "_MAX_SWEEPS", 2)
        with pytest.raises(ConvergenceError) as err:
            picard_solve(r0, burgers_flux(1))
        assert len(err.value.history) == 2

    def test_t_final_shortens_window(self, grid64):
        theta = grid64.axis_coords(0)
        r0 = make_field(grid64, 1.0 + 0.2 * np.sin(2 * np.pi * theta))
        rep = picard_solve(r0, burgers_flux(1), t_final=1e-3)
        assert rep.horizon == pytest.approx(1e-3)

    def test_zero_field_is_a_fixed_point(self, grid64):
        # g'(0) != 0, so the flux bound is positive while the data vanish
        rep = picard_solve(make_field(grid64, np.zeros(64)), constant_flux([1.0]))
        assert rep.horizon == duhamel.DEFAULT_HORIZON_CAP
        assert rep.sup_deltas == [0.0]
        assert not rep.final.values.any()

    @pytest.mark.parametrize("call", [
        lambda wave: picard_solve(wave(1e-200), constant_flux([1.0])),
        lambda wave: picard_extend(wave(1e-200), constant_flux([1.0]), 0.1),
        lambda wave: picard_solve(wave(1e-160), constant_flux([1.0])),
        lambda wave: picard_extend(wave(1e-160), constant_flux([1.0]), 0.1),
        lambda wave: picard_solve(wave(1.0), constant_flux([1.0]), t_final=5e-324),
    ], ids=["solve_zero", "extend_zero", "solve_subnormal", "extend_subnormal", "t_final_subnormal"])
    def test_underflowing_window_is_a_convergence_error(self, grid64, call):
        def wave(amplitude):
            return make_field(grid64, amplitude * np.sin(2 * np.pi * grid64.axis_coords(0)))

        with pytest.raises(ConvergenceError, match="underflows"):
            call(wave)


class TestBatchedSweep:
    @pytest.mark.parametrize(
        "m, n, spec",
        [
            (1, 128, burgers_flux(1)),
            (
                1,
                64,
                with_modulation(
                    polynomial_flux([1.0, 0.3]), 0, Modulation(const=1.0, sin_amps=(0.5,))
                ),
            ),
            (2, 16, burgers_flux(2)),
            (
                2,
                8,
                with_modulation(
                    polynomial_flux([1.0, 0.3], m=2), 0, Modulation(const=1.0, cos_amps=(0.4,))
                ),
            ),
            (3, 8, burgers_flux(3)),
        ],
        ids=["burgers_1d", "modulated_poly_1d", "burgers_2d", "modulated_poly_2d", "burgers_3d"],
    )
    def test_matches_reference_sweep(self, m, n, spec):
        grid = make_grid(m, [1.0] * m, [n] * m)
        r0 = smooth_field(grid, seed=38, n_modes=4, offset=1.0)
        n_time, n_gauss = 9, 8
        window = _Window(grid, spec, 2e-3, n_time, n_gauss)
        base = np.stack([r0.values] * n_time)
        # distinct, non-smooth data on every time level
        rng = np.random.default_rng(39)
        iterate = base + 0.05 * rng.standard_normal(base.shape)
        fast = window.sweep(base, iterate)
        slow = reference_sweep(window, base, iterate, n_gauss)
        # same arithmetic summed in another order (folded rows, batched nodes)
        assert np.abs(fast - slow).max() < 1e-13
        assert np.abs(fast - base).max() > 1e-3  # the flux term is not trivial

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_fd_derivative_bitwise_equal_to_rolls(self, axis):
        vals = np.random.default_rng(40).normal(size=(9, 10, 11))
        assert np.array_equal(_fd_derivative(vals, axis, 0.1), rolled_fd_derivative(vals, axis, 0.1))

    def test_window_rows_bitwise_equal_to_rolled_stencil(self):
        grid = make_grid(2, [1.0, 1.5], [16, 8])
        n_time, n_gauss = 5, 8
        window = _Window(grid, burgers_flux(2), 2e-3, n_time, n_gauss)
        nodes, weights = np.polynomial.legendre.leggauss(n_gauss)
        for i in range(1, n_time):
            half = 0.5 * np.sqrt(window.mesh[i])
            sigma = half * (nodes + 1.0)
            wq = (2.0 * sigma * half * weights)[:, None]
            for ax in range(grid.m):
                rows = _plain_row(grid.resolution[ax], grid.lengths[ax], sigma * sigma)
                grad = rolled_fd_derivative(rows, axis=1, h=grid.spacings[ax])
                assert np.array_equal(window.gradients[ax][i], wq * grad[:, ::-1])
                assert np.array_equal(window.kernels[ax][i], rows[:, ::-1])


class TestDeterminism:
    def test_picard_extend_bitwise_equal_across_blas_threads(self):
        # the sweep contracts the Gauss nodes through dgemm
        script = (
            "import numpy as np\n"
            "from polarflow import burgers_flux, make_field, make_grid, picard_extend\n"
            "grid = make_grid(1, [1.0], [128])\n"
            "theta = grid.axis_coords(0)\n"
            "r0 = make_field(grid, 1.0 + 0.2 * np.sin(2 * np.pi * theta) + 0.05 * np.cos(6 * np.pi * theta))\n"
            "print(picard_extend(r0, burgers_flux(1), 0.1).values.tobytes().hex())\n"
        )
        one, two = (run_python(script, timeout=120, OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
        assert len(one.strip()) == 2 * 8 * 128  # 128 doubles in hex
        assert one == two


class TestTimeOrder:
    def test_strang_is_second_order_through_the_oracle(self, grid128):
        # measured ratios 4.20 and 4.38: errors 1.43e-8, 3.40e-9 and 7.76e-10
        r0 = make_field(grid128, 1.0 + 0.2 * np.sin(2 * np.pi * grid128.axis_coords(0)))
        spec = burgers_flux(1)
        rep = picard_solve(r0, spec)
        horizon = rep.horizon
        errors = []
        for steps in (64, 128, 256):
            cfg = SolveConfig(dt=horizon / steps, t_end=horizon, record_every=1 << 20)
            run = evolve(r0, spec, cfg)
            errors.append(float(np.abs(run.final.values - rep.final.values).max()))
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert all(3.5 < r < 5.0 for r in ratios), (errors, ratios)


class TestNonFiniteTimes:
    @pytest.mark.parametrize("t", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda f, t: picard_extend(f, burgers_flux(1), t), "t_end"),
            (lambda f, t: picard_solve(f, burgers_flux(1), t_final=t), "t_final"),
            (lambda f, t: contraction_horizon(t, 1.0, 1), "field_bound"),
            (lambda f, t: contraction_horizon(1.0, t, 1), "flux_bound"),
            (lambda f, t: kernel_gradient_l1(t), "t"),
            (lambda f, t: heat_kernel_convolve(f, t), "t"),
            (lambda f, t: heat_propagate(f, t), "t"),
            (lambda f, t: galilean_shift(f, [1.0], t), "t"),
        ],
        ids=[
            "picard_extend",
            "picard_solve",
            "horizon_field_bound",
            "horizon_flux_bound",
            "kernel_gradient_l1",
            "heat_kernel_convolve",
            "heat_propagate",
            "galilean_shift",
        ],
    )
    def test_rejected_naming_the_parameter(self, grid64, call, name, t):
        f = smooth_field(grid64, seed=45, offset=1.0)
        with np.errstate(all="raise"), pytest.raises(ValueError, match=f"^{name} must be"):
            call(f, t)


class TestPicardExtend:
    def test_zero_flux_heat(self, grid64):
        f = smooth_field(grid64, seed=36, offset=1.0)
        out = picard_extend(f, zero_flux(1), 2.5)
        oracle = heat_propagate(f, 2.5)
        assert np.abs(out.values - oracle.values).max() < 1e-9

    def test_burgers_three_horizons_vs_spectral(self, grid64):
        theta = grid64.axis_coords(0)
        r0 = make_field(grid64, 1.0 + 0.2 * np.sin(2 * np.pi * theta))
        spec = burgers_flux(1)
        first = picard_solve(r0, spec)
        t_end = 3 * first.horizon
        out = picard_extend(r0, spec, t_end)
        ref = evolve(r0, spec, SolveConfig(dt=t_end / 8192, t_end=t_end, record_every=1 << 20))
        assert np.abs(out.values - ref.final.values).max() < 1e-3

    def test_constant_flux_vs_galilean(self, grid64):
        f = smooth_field(grid64, seed=37, offset=1.0)
        c, t_end = 0.8, 0.12
        out = picard_extend(f, constant_flux([c]), t_end)
        oracle = galilean_shift(heat_propagate(f, t_end), [c], t_end)
        assert np.abs(out.values - oracle.values).max() < 1e-6

    def test_zero_field_stays_zero(self, grid64):
        out = picard_extend(make_field(grid64, np.zeros(64)), constant_flux([1.0]), 2.5)
        assert not out.values.any()

    def test_window_budget_is_checked_before_any_window(self, grid64, monkeypatch):
        # the windows are 1.6e-5 long, so t_end = 1 needs about 61600 of them
        r0 = make_field(grid64, 1.0 + 0.1 * np.sin(2 * np.pi * grid64.axis_coords(0)))
        built = []
        real_init = duhamel._Window.__init__

        def counted(self, *args):
            built.append(args[2])
            if len(built) > 3:
                raise RuntimeError("the window budget was not checked up front")
            real_init(self, *args)

        monkeypatch.setattr(duhamel._Window, "__init__", counted)
        with pytest.raises(ConvergenceError, match="more than the budget"):
            picard_extend(r0, constant_flux([50.0]), 1.0)
        assert built == []

import numpy as np
import pytest

from polarflow import (
    SolveConfig,
    SolverError,
    burgers_flux,
    constant_flux,
    evolve,
    evolve_coupled,
    galilean_shift,
    make_field,
    make_grid,
    perturbed_sphere_initial,
    reconstruct,
    sphere_directions,
    transport_step,
    zero_flux,
)
from polarflow.flux import eval_f
from polarflow.grid import DirectionField, RadialField


def circle_field(grid):
    return sphere_directions(grid, 2)


class TestTransportStep:
    def test_zero_flux_freezes(self, grid64):
        p0 = circle_field(grid64)
        r = make_field(grid64, np.full(64, 1.5))
        p1 = transport_step(p0, r, zero_flux(1), 1e-3)
        assert np.abs(p1.vectors - p0.vectors).max() < 1e-13

    def test_constant_vector_field_unchanged(self, grid64):
        vecs = np.tile(np.array([0.6, 0.8]), (64, 1))
        p0 = DirectionField(grid=grid64, vectors=vecs)
        r = make_field(grid64, np.full(64, 2.0))
        p1 = transport_step(p0, r, burgers_flux(1), 1e-3)
        assert np.abs(p1.vectors - p0.vectors).max() < 1e-13

    @pytest.mark.parametrize("interp,tol,steps", [("spectral", 1e-12, 500), ("cubic", 1e-4, 50)])
    def test_constant_r_exact_translation(self, grid128, interp, tol, steps):
        # oracle: componentwise spectral shift by c * t
        p0 = circle_field(grid128)
        r = make_field(grid128, np.full(128, 2.0))
        c, dt = 1.0, 1e-3
        p = p0
        for _ in range(steps):
            p = transport_step(p, r, constant_flux([c]), dt, interp=interp)
        t = steps * dt
        for j in range(2):
            oracle = galilean_shift(make_field(grid128, p0.component(j)), [c], t)
            assert np.abs(p.component(j) - oracle.values).max() < tol

    def test_unit_norm_enforced(self, grid64):
        p0 = circle_field(grid64)
        theta = grid64.axis_coords(0)
        r = make_field(grid64, 1.0 + 0.4 * np.sin(2 * np.pi * theta))
        p = p0
        for _ in range(50):
            p = transport_step(p, r, burgers_flux(1), 1e-3)
        norms = np.sqrt((p.vectors**2).sum(-1))
        assert np.abs(norms - 1.0).max() <= 1e-12

    def test_grid_mismatch_rejected(self, grid64, grid128):
        p0 = circle_field(grid64)
        r = make_field(grid128, np.full(128, 1.0))
        with pytest.raises(ValueError, match="different grids"):
            transport_step(p0, r, zero_flux(1), 1e-3)

    def test_2d_translation(self, grid2d):
        p0 = sphere_directions(grid2d, 3)
        r = make_field(grid2d, np.full(grid2d.shape, 1.0))
        c = [0.5, -0.25]
        dt = 1e-2
        p = p0
        for _ in range(10):
            p = transport_step(p, r, constant_flux(c), dt)
        t = 10 * dt
        for j in range(3):
            oracle = galilean_shift(make_field(grid2d, p0.component(j)), c, t)
            assert np.abs(p.component(j) - oracle.values).max() < 1e-10


class TestEvolveCoupled:
    def test_constant_radius_rigid_translation(self, grid64):
        rbar = 1.7
        r0 = RadialField(grid=grid64, values=np.full(64, rbar))
        p0 = circle_field(grid64)
        spec = constant_flux([0.9])
        cfg = SolveConfig(dt=1e-3, t_end=0.2, record_every=50)
        traj = evolve_coupled(r0, p0, spec, cfg)
        assert np.abs(traj.final.values - rbar).max() < 1e-13
        speed = eval_f(spec, 0, rbar)
        for j in range(2):
            oracle = galilean_shift(make_field(grid64, p0.component(j)), [speed], 0.2)
            assert np.abs(traj.directions[-1].component(j) - oracle.values).max() < 1e-10

    def test_zero_flux_p_frozen_r_heat(self, grid64):
        from polarflow import heat_propagate

        theta = grid64.axis_coords(0)
        r0 = RadialField(grid=grid64, values=1.0 + 0.3 * np.cos(2 * np.pi * theta))
        p0 = circle_field(grid64)
        cfg = SolveConfig(dt=1e-3, t_end=0.1, record_every=100)
        traj = evolve_coupled(r0, p0, zero_flux(1), cfg)
        assert np.abs(traj.directions[-1].vectors - p0.vectors).max() < 1e-12
        oracle = heat_propagate(r0, 0.1)
        assert np.abs(traj.final.values - oracle.values).max() < 1e-12

    def test_positivity_required(self, grid64):
        theta = grid64.axis_coords(0)
        r0 = make_field(grid64, 0.5 + np.sin(2 * np.pi * theta))  # dips negative
        p0 = circle_field(grid64)
        with pytest.raises(SolverError, match="positive"):
            evolve_coupled(r0, p0, zero_flux(1), SolveConfig(dt=1e-3, t_end=0.01))

    def test_unit_norm_along_run(self, grid64):
        r0, p0 = perturbed_sphere_initial(grid64, 1.0, 0.3, [1])
        traj = evolve_coupled(r0, p0, burgers_flux(1), SolveConfig(dt=5e-4, t_end=0.2, record_every=50))
        for p in traj.directions:
            norms = np.sqrt((p.vectors**2).sum(-1))
            assert np.abs(norms - 1.0).max() <= 1e-12


    @pytest.mark.parametrize(
        "t_end, last_steps",
        [(0.0105, [4, 8]), (0.0125, [4, 8, 12]), (0.011, [4, 8, 11])],
    )
    def test_record_times_shared_with_evolve(self, grid64, t_end, last_steps):
        # every 4th step, the last full step, and a tail step to t_end if dt leaves one
        dt = 1e-3
        r0, p0 = perturbed_sphere_initial(grid64, 1.0, 0.3, [1])
        cfg = SolveConfig(dt=dt, t_end=t_end, record_every=4)
        coupled = evolve_coupled(r0, p0, burgers_flux(1), cfg)
        radius = evolve(r0, burgers_flux(1), cfg)
        times = [0.0] + [k * dt for k in last_steps]
        if t_end - last_steps[-1] * dt > 1e-9:
            times.append(t_end)
        assert coupled.times == radius.times == times
        assert len(coupled.directions) == len(times)
        for a, b in zip(coupled.snapshots, radius.snapshots):
            assert np.array_equal(a.values, b.values)

    def test_failing_step_is_named(self, grid64, monkeypatch):
        from polarflow import spectral

        calls = {"n": 0}
        original = spectral._Stepper.advance

        def failing(self, hat):
            calls["n"] += 1
            if calls["n"] == 3:
                raise SolverError("non-finite field after step")
            return original(self, hat)

        monkeypatch.setattr(spectral._Stepper, "advance", failing)
        r0, p0 = perturbed_sphere_initial(grid64, 1.0, 0.3, [1])
        with pytest.raises(SolverError, match=r"step 3 \(t=0\.003\): non-finite"):
            evolve_coupled(r0, p0, burgers_flux(1), SolveConfig(dt=1e-3, t_end=0.01))


    def test_positivity_checked_on_unrecorded_steps(self, grid64, monkeypatch):
        from polarflow import spectral

        calls = {"n": 0}
        original = spectral._Stepper.advance

        def sinking(self, hat):
            calls["n"] += 1
            new, mid = original(self, hat)
            if calls["n"] == 3:
                new = new.copy()
                new[0] -= 10.0 * grid64.num_nodes  # lower the mean by 10
            return new, mid

        monkeypatch.setattr(spectral._Stepper, "advance", sinking)
        r0, p0 = perturbed_sphere_initial(grid64, 1.0, 0.3, [1])
        cfg = SolveConfig(dt=1e-3, t_end=0.01, record_every=100)
        with pytest.raises(SolverError, match=r"step 3 \(t=0\.003\): positivity lost"):
            evolve_coupled(r0, p0, burgers_flux(1), cfg)

class TestFlowResidual:
    """The reconstructed embedding satisfies the original evolution equation."""

    def residual(self, n, dt):
        grid = make_grid(1, [1.0], [n])
        r0, p0 = perturbed_sphere_initial(grid, 1.0, 0.2, [1])
        spec = burgers_flux(1)
        cfg = SolveConfig(dt=dt, t_end=20 * dt, record_every=1)
        traj = evolve_coupled(r0, p0, spec, cfg)

        kap = grid.kappa_grids()[0]
        i = len(traj.times) // 2
        xs = [reconstruct(traj.snapshots[j], traj.directions[j]) for j in (i - 1, i, i + 1)]
        x_t = (xs[2] - xs[0]) / (2 * dt)
        r = traj.snapshots[i].values
        x = xs[1]
        resid = np.zeros_like(x)
        for j in range(2):
            flux_term = np.fft.ifft(1j * kap * np.fft.fft(eval_f(spec, 0, r) * x[:, j])).real
            lap_r = np.fft.ifft(-(kap**2) * np.fft.fft(r)).real
            resid[:, j] = x_t[:, j] + flux_term - (x[:, j] / r) * lap_r
        return float(np.abs(resid).max())

    def test_discrete_flow_residual_small(self):
        assert self.residual(128, 1e-4) < 5e-3

    def test_residual_second_order_in_dt(self):
        r1 = self.residual(128, 2e-4)
        r2 = self.residual(128, 1e-4)
        assert r1 / r2 == pytest.approx(4.0, rel=0.5)

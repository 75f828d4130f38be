import math
import warnings

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
    make_initial,
    perturbed_sphere_initial,
    polynomial_flux,
    reconstruct,
    sphere_directions,
    transport_step,
    with_modulation,
    zero_flux,
)
from polarflow import transport
from polarflow.flux import Modulation, eval_f
from polarflow.grid import DirectionField, RadialField, ScalarField
from polarflow.spectral import _derivative_symbols, _march, _shift_symbol, max_stable_dt
from conftest import full_lattice


def circle_field(grid):
    return sphere_directions(grid, 2)


def reference_transport_step(grid, vectors, radii, spec, dt):
    """Reference: one integrating-factor RK4 step on complex full-lattice FFTs.

    The midrange speed ``c_i`` is shifted out exactly by ``exp(-i c.kappa h)``
    and RK4 integrates ``-(f_i - c_i) dP/dtheta_i`` with the derivative
    ``-i kappa_i``; every stage returns to grid values through
    ``ifftn(...).real``.  ``radii`` holds the radius at the start, the middle
    and the end of the step; substeps take their speeds from the quadratic
    through the three.  The substep count follows the same rule as the
    package, with the top kept mode of each axis counted here: ``N/2 - 1``
    (a real field's Nyquist derivative is zero).  Returns (renormalized
    vectors, substeps).
    """
    axes = tuple(range(grid.m))
    kappas, _ = full_lattice(grid)

    def speeds(r):
        out = []
        for i in range(spec.m):
            mod = spec.modulation_values(grid, i)
            out.append(eval_f(spec, i, r) * (1.0 if mod is None else mod))
        return out

    stages = [speeds(r) for r in radii]
    lo = [min(s[i].min() for s in stages) for i in range(grid.m)]
    hi = [max(s[i].max() for s in stages) for i in range(grid.m)]
    centre = [(a + b) / 2.0 for a, b in zip(lo, hi)]
    top = [2.0 * math.pi / length * (n // 2 - 1) for length, n in zip(grid.lengths, grid.resolution)]
    reach = dt * sum((b - a) / 2.0 * k for a, b, k in zip(lo, hi, top))
    n_sub = math.ceil(reach / 2.8)

    def apply(symbol, u):
        return np.fft.ifftn(symbol[..., None] * np.fft.fftn(u, axes=axes), axes=axes).real

    def shift(u, t):
        return apply(np.exp(-1j * t * sum(c * k for c, k in zip(centre, kappas))), u)

    def rate(tau, u):
        l0, lm, l1 = 2 * (tau - 0.5) * (tau - 1), 4 * tau * (1 - tau), 2 * tau * (tau - 0.5)
        out = np.zeros_like(u)
        for i, k in enumerate(kappas):
            w = l0 * stages[0][i] + lm * stages[1][i] + l1 * stages[2][i] - centre[i]
            out += w[..., None] * apply(-1j * k, u)
        return out

    u = np.array(vectors, dtype=np.float64)
    if n_sub == 0:
        u = shift(u, dt)
    h = dt / max(n_sub, 1)
    for j in range(n_sub):
        t0, tm, t1 = j / n_sub, (j + 0.5) / n_sub, (j + 1) / n_sub
        k1 = rate(t0, u)
        k2 = rate(tm, shift(u + h / 2 * k1, h / 2))
        k3 = rate(tm, shift(u, h / 2) + h / 2 * k2)
        k4 = rate(t1, shift(u, h) + h * shift(k3, h / 2))
        u = shift(u + h / 6 * k1, h) + h / 6 * (2 * shift(k2 + k3, h / 2) + k4)
    return u / np.sqrt((u**2).sum(axis=-1))[..., None], n_sub


def reference_real_carry(vectors, grid, speeds, dt):
    """Reference: ``transport._carry`` as out-of-place arithmetic on ``rfftn``/``irfftn``.

    Every stage is a new array and every sum starts from ``0.0``; the
    products keep their operand order.  Returns the renormalized vectors.
    """
    axes = tuple(range(grid.m))

    def rfft(v):
        return np.fft.rfftn(v, axes=axes)

    def irfft(hat):
        return np.fft.irfftn(hat, s=grid.shape, axes=axes)

    lo = [min(float(s[i].min()) for s in speeds) for i in range(grid.m)]
    hi = [max(float(s[i].max()) for s in speeds) for i in range(grid.m)]
    centre = [0.5 * (a + b) for a, b in zip(lo, hi)]
    derivs = _derivative_symbols(grid)
    reach = abs(dt) * sum(
        0.5 * (b - a) * float(np.abs(d).max()) for a, b, d in zip(lo, hi, derivs)
    )
    n_sub = math.ceil(reach / 2.8)
    hat = rfft(vectors)
    if n_sub == 0:
        hat = hat * _shift_symbol(grid, centre, dt)[..., None]
    else:
        h = dt / n_sub
        shift = _shift_symbol(grid, centre, h)[..., None]
        shift_half = _shift_symbol(grid, centre, h / 2.0)[..., None]
        derivs = [d[..., None] for d in derivs]
        rests = [[v - c for v, c in zip(s, centre)] for s in speeds]

        def rest_at(tau):
            l0 = 2.0 * (tau - 0.5) * (tau - 1.0)
            lm = 4.0 * tau * (1.0 - tau)
            l1 = 2.0 * tau * (tau - 0.5)
            return [l0 * a + lm * b + l1 * c for a, b, c in zip(*rests)]

        def rate(rest, state):
            total = 0.0
            for w, deriv in zip(rest, derivs):
                total = total + w[..., None] * irfft(deriv * state)
            return rfft(total)

        for j in range(n_sub):
            w0, wm, w1 = (rest_at((j + x) / n_sub) for x in (0.0, 0.5, 1.0))
            k1 = rate(w0, hat)
            k2 = rate(wm, shift_half * (hat + (h / 2.0) * k1))
            k3 = rate(wm, shift_half * hat + (h / 2.0) * k2)
            k4 = rate(w1, shift * hat + h * (shift_half * k3))
            hat = shift * (hat + (h / 6.0) * k1) + (h / 6.0) * (2.0 * shift_half * (k2 + k3) + k4)
    out = irfft(hat)
    return out / np.sqrt((out**2).sum(axis=-1))[..., None]


def characteristic_foot(coords, speeds, t, h=2.5e-4):
    """Foot points ``X(0)`` of the characteristics through ``coords`` at time ``t``.

    Integrates ``dX/ds = speeds(X)`` backwards with classic RK4 at step ``h``;
    ``speeds`` is a closed form, so this shares no code with the package.
    At ``h = 2.5e-4`` the feet agree with an ``h = 1e-5`` run to 2e-14.
    """
    x = [np.array(c, dtype=np.float64) for c in coords]

    def back(pts):
        return [-v for v in speeds(pts)]

    for _ in range(int(round(t / h))):
        k1 = back(x)
        k2 = back([a + 0.5 * h * k for a, k in zip(x, k1)])
        k3 = back([a + 0.5 * h * k for a, k in zip(x, k2)])
        k4 = back([a + h * k for a, k in zip(x, k3)])
        x = [a + h / 6.0 * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(x, k1, k2, k3, k4)]
    return x


def transported(p, r, spec, dt, t):
    for _ in range(int(round(t / dt))):
        p = transport_step(p, r, spec, dt)
    return p


class TestVariableSpeedOracle:
    """Burgers transport through a frozen, varying radius against exact characteristics.

    ``P(theta, t) = P0(X(theta))`` with ``X`` the foot of the characteristic
    of ``dX/ds = r(X)/2``.
    """

    @staticmethod
    def radius_1d(theta):
        return 1.5 + 0.4 * np.sin(2 * np.pi * theta)

    @staticmethod
    def radius_2d(x, y):
        return 1.5 + 0.4 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)

    def error_1d(self, dt, t=0.5):
        grid = make_grid(1, [1.0], [128])
        theta = grid.axis_coords(0)
        r = make_field(grid, self.radius_1d(theta))
        p = transported(circle_field(grid), r, burgers_flux(1), dt, t)
        (foot,) = characteristic_foot([theta], lambda x: [0.5 * self.radius_1d(x[0])], t)
        exact = np.stack([np.cos(2 * np.pi * foot), np.sin(2 * np.pi * foot)], axis=-1)
        return float(np.abs(p.vectors - exact).max())

    def test_one_axis(self):
        # semi-Lagrangian midpoint scheme: 2.37e-6; IF-RK4: 6.3e-12; bound ~3x the latter
        assert self.error_1d(2e-3) < 2e-11

    def test_one_axis_fourth_order(self):
        # IF-RK4 measures 1.00e-10 -> 6.26e-12, a ratio of 16
        assert self.error_1d(4e-3) / self.error_1d(2e-3) >= 12.0

    def test_two_axes(self, grid2d):
        x, y = grid2d.coords()
        r = make_field(grid2d, self.radius_2d(x, y))
        t = 0.25
        p = transported(sphere_directions(grid2d, 3), r, burgers_flux(2), 5e-3, t)
        fx, fy = characteristic_foot([x, y], lambda pts: [0.5 * self.radius_2d(*pts)] * 2, t)
        a, b = 2 * np.pi * fx, 2 * np.pi * fy
        exact = np.stack([np.cos(a), np.sin(a) * np.cos(b), np.sin(a) * np.sin(b)], axis=-1)
        # semi-Lagrangian midpoint scheme: 1.56e-5; IF-RK4 under the 2/3 mask:
        # 3.02e-8, the mask's truncation at 32^2; unmasked IF-RK4: 5.60e-10;
        # bound ~3x the latter
        assert np.abs(p.vectors - exact).max() < 2e-9


def radius_samples(grid, t):
    """A radius that moves with time, sampled on the grid."""
    coords = grid.coords()
    wave = np.sin(2 * np.pi * (coords[0] - t))
    for c in coords[1:]:
        wave = wave * np.cos(2 * np.pi * c)
    return 1.0 + 0.3 * wave


def modulated_flux(m, coeffs):
    spec = polynomial_flux(coeffs, m=m)
    spec = with_modulation(spec, 0, Modulation(const=0.0, sin_amps=(1.0,)))
    if m > 1:
        spec = with_modulation(spec, 1, Modulation(const=0.0, cos_amps=(1.0,)))
    return spec


def carry_steps(p0, spec, dt, steps):
    """``steps`` transport steps through the moving radius, speeds at each step's start, middle and end."""
    grid = p0.grid
    mods = [spec.modulation_values(grid, i) for i in range(spec.m)]
    v = p0.vectors
    for k in range(steps):
        t = k * dt
        radii = [radius_samples(grid, s) for s in (t, t + dt / 2, t + dt)]
        v = transport._carry(v, grid, [transport._speeds(spec, mods, r) for r in radii], dt)
    return v


class TestAgainstReference:
    """The real-FFT step against the complex full-lattice reference, same inputs."""

    CASES = [
        (1, constant_flux([0.7]), 1e-3),
        (1, burgers_flux(1), 2e-3),
        (1, modulated_flux(1, [0.4, 0.5]), 2e-3),
        (2, constant_flux([0.5, -0.25]), 5e-3),
        (2, burgers_flux(2), 5e-3),
        (2, modulated_flux(2, [0.4, 0.5]), 5e-3),
    ]

    @pytest.mark.parametrize("m, spec, dt", CASES)
    def test_frozen_radius(self, m, spec, dt):
        grid = make_grid(m, [1.0] * m, [64] if m == 1 else [32, 32])
        p = sphere_directions(grid, m + 1)
        r = make_field(grid, radius_samples(grid, 0.0))
        got = transport_step(p, r, spec, dt).vectors
        want, n_sub = reference_transport_step(grid, p.vectors, [r.values] * 3, spec, dt)
        assert n_sub == (0 if spec.is_constant else 1)
        assert np.abs(got - want).max() < 5e-15  # measured at most 5.6e-16

    @pytest.mark.parametrize("m, spec, dt", CASES)
    def test_moving_radius(self, m, spec, dt):
        grid = make_grid(m, [1.0] * m, [64] if m == 1 else [32, 32])
        p = sphere_directions(grid, m + 1)
        radii = [radius_samples(grid, t) for t in (0.0, dt / 2, dt)]
        got = carry_steps(p, spec, dt, 1)
        want, _ = reference_transport_step(grid, p.vectors, radii, spec, dt)
        assert np.abs(got - want).max() < 5e-15  # measured at most 6.7e-16


class TestSubsteps:
    """A step whose RK4 argument exceeds 2.8 splits into substeps."""

    def test_split_step_agrees_with_quarter_steps(self, grid2d, monkeypatch):
        # speeds near 60 make the RK4 argument at max_stable_dt 2.87
        spec = modulated_flux(2, [60.0, 0.5])
        dt = max_stable_dt(grid2d, spec, 1.3)
        p0 = sphere_directions(grid2d, 3)
        seen = []
        original = transport._substeps

        def spy(*args):
            seen.append(original(*args))
            return seen[-1]

        monkeypatch.setattr(transport, "_substeps", spy)
        coarse = carry_steps(p0, spec, dt, 10)
        assert set(seen) == {2}
        seen.clear()
        fine = carry_steps(p0, spec, dt / 4, 40)
        assert set(seen) == {1}
        want, n_sub = reference_transport_step(
            grid2d, p0.vectors, [radius_samples(grid2d, t) for t in (0.0, dt / 2, dt)], spec, dt
        )
        assert n_sub == 2
        assert np.abs(carry_steps(p0, spec, dt, 1) - want).max() < 5e-15
        assert np.isfinite(coarse).all()
        assert np.abs(np.sqrt((coarse**2).sum(-1)) - 1.0).max() <= 1e-12
        # measured 2.56e-6; bound ~4x
        assert np.abs(coarse - fine).max() < 1e-5


class TestInPlaceCarry:
    """``_carry`` combines its RK4 stages in place: bitwise the out-of-place step, no shared memory."""

    CASES = {
        "constant_1": (1, constant_flux([0.7]), 1e-3, 0),
        "modulated_1": (1, modulated_flux(1, [60.0, 0.5]), 5e-4, 3),
        "burgers_2": (2, burgers_flux(2), 5e-3, 1),
        "modulated_2": (2, modulated_flux(2, [60.0, 0.5]), 3e-4, 2),
    }

    @staticmethod
    def inputs(m, spec, dt):
        grid = make_grid(m, [1.0] * m, [64] if m == 1 else [32, 32])
        mods = [spec.modulation_values(grid, i) for i in range(spec.m)]
        radii = [radius_samples(grid, t) for t in (0.0, dt / 2, dt)]
        speeds = [transport._speeds(spec, mods, r) for r in radii]
        return grid, sphere_directions(grid, m + 1).vectors, speeds

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_out_of_place_bitwise(self, case, monkeypatch):
        m, spec, dt, n_sub = self.CASES[case]
        grid, v, speeds = self.inputs(m, spec, dt)
        seen = []
        original = transport._substeps

        def spy(*args):
            seen.append(original(*args))
            return seen[-1]

        monkeypatch.setattr(transport, "_substeps", spy)
        ref = v
        for _ in range(20):
            v = transport._carry(v, grid, speeds, dt)
            ref = reference_real_carry(ref, grid, speeds, dt)
            assert np.array_equal(v, ref)
        assert set(seen) == {n_sub}

    @pytest.mark.parametrize("case", list(CASES))
    def test_inputs_unchanged_and_output_new(self, case):
        m, spec, dt, _ = self.CASES[case]
        grid, v, speeds = self.inputs(m, spec, dt)
        inputs = [v] + [s for stage in speeds for s in stage]
        before = [a.copy() for a in inputs]
        out = transport._carry(v, grid, speeds, dt)
        again = transport._carry(out, grid, speeds, dt)  # a caller may hold the previous result
        assert all(np.array_equal(a, b) for a, b in zip(inputs, before))
        for a in inputs:
            assert not np.shares_memory(out, a) and not np.shares_memory(again, a)
        assert not np.shares_memory(out, again)


class TestExactStageSpeeds:
    """At a step fraction of 0, 1/2 or 1 the stage speeds are a stage's own: bitwise the quadratic's."""

    CASES = {
        "burgers_1": (1, burgers_flux(1), 2e-3, [0.0, 0.5, 1.0]),
        # three substeps: (j + x) / 3 for x in 0, 1/2, 1
        "modulated_1": (
            1, modulated_flux(1, [60.0, 0.5]), 5e-4, [k / 6 for k in (0, 1, 2, 2, 3, 4, 4, 5, 6)]
        ),
        "modulated_2": (2, modulated_flux(2, [60.0, 0.5]), 3e-4, [0.0, 0.25, 0.5, 0.5, 0.75, 1.0]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_bitwise_the_quadratic(self, case, monkeypatch):
        m, spec, dt, taus = self.CASES[case]
        grid, v, speeds = TestInPlaceCarry.inputs(m, spec, dt)
        seen = []
        original = transport._rest_at

        def spy(rests, tau):
            out = original(rests, tau)
            l0, lm, l1 = 2.0 * (tau - 0.5) * (tau - 1.0), 4.0 * tau * (1.0 - tau), 2.0 * tau * (tau - 0.5)
            for w, a, b, c in zip(out, *rests):
                assert w.tobytes() == (l0 * a + lm * b + l1 * c).tobytes()
            seen.append(tau)
            return out

        monkeypatch.setattr(transport, "_rest_at", spy)
        transport._carry(v, grid, speeds, dt)
        assert seen == taus


class TestReusedSpeeds:
    """A coupled step evaluates ``f(r)`` at its middle and end: its start is the last step's end.

    ``r0``'s speeds are evaluated on the hook's first call: one more than two per step.
    """

    CASES = {
        "burgers_1": (1, burgers_flux, 1e-3, 2),
        "constant_1": (1, lambda m: constant_flux([0.7]), 1e-3, 1),  # the end stands in for the middle
        "burgers_2": (2, burgers_flux, 1e-3, 2),
        # at the CFL bound: two RK4 substeps a full step
        "modulated_2": (2, lambda m: modulated_flux(m, [60.0, 0.5]), None, 2),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_evaluations_per_step_and_bits(self, case, monkeypatch):
        m, make_spec, dt, per_step = self.CASES[case]
        grid = make_grid(m, [1.0] * m, [64] if m == 1 else [32, 32])
        spec = make_spec(m)
        r0, p0 = perturbed_sphere_initial(grid, 1.0, 0.3, [[1] * m])
        dt = dt or max_stable_dt(grid, spec, float(r0.values.max()))
        cfg = SolveConfig(dt=dt, t_end=10.5 * dt, record_every=4)  # ten steps and a tail step
        evaluated = self.count_speeds(monkeypatch)
        traj = evolve_coupled(r0, p0, spec, cfg)
        assert len(evaluated) == 1 + per_step * 11
        monkeypatch.undo()

        mods = [spec.modulation_values(grid, i) for i in range(m)]
        start = [r0.values]

        def recomputed(vectors, mid, end, h):
            # f(r) and its extrema taken afresh at all three stages
            radii = (start[0], end if mid is None else mid, end)
            start[0] = end
            return transport._carry(vectors, grid, [transport._speeds(spec, mods, r) for r in radii], h)

        want = _march([r0], spec, cfg, (p0.vectors, recomputed))[0]
        assert np.array_equal(traj.radii, want.radii)
        assert traj.directions.tobytes() == want.directions.tobytes()

    @staticmethod
    def count_speeds(monkeypatch) -> list:
        """Patch ``transport._speeds`` to record one entry per call; return the record."""
        evaluated = []
        original = transport._speeds

        def counting(*args):
            evaluated.append(1)
            return original(*args)

        monkeypatch.setattr(transport, "_speeds", counting)
        return evaluated

    def test_rejected_dt_evaluates_no_speeds(self, grid64, monkeypatch):
        r0, p0 = perturbed_sphere_initial(grid64, 1.0, 0.3, [[1]])
        dt = 2.0 * max_stable_dt(grid64, burgers_flux(1), float(r0.values.max()))
        evaluated = self.count_speeds(monkeypatch)
        with pytest.raises(SolverError, match="violates advective stability bound"):
            evolve_coupled(r0, p0, burgers_flux(1), SolveConfig(dt=dt, t_end=10 * dt))
        assert evaluated == []


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

    def test_constant_r_exact_translation(self, grid128):
        # oracle: componentwise spectral shift by c * t
        p0 = circle_field(grid128)
        r = make_field(grid128, np.full(128, 2.0))
        c, dt, steps = 1.0, 1e-3, 500
        p = p0
        for _ in range(steps):
            p = transport_step(p, r, constant_flux([c]), dt)
        t = steps * dt
        for j in range(2):
            oracle = galilean_shift(make_field(grid128, p0.component(j)), [c], t)
            assert np.abs(p.component(j) - oracle.values).max() < 1e-12

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

    @pytest.mark.parametrize("axes, flux_axes", [(2, 1), (2, 3), (1, 2)])
    def test_flux_axis_count_checked(self, axes, flux_axes):
        grid = make_grid(axes, [1.0] * axes, [16] * axes)
        p = sphere_directions(grid, 3)
        r = make_field(grid, np.full(grid.shape, 1.5))
        with pytest.raises(ValueError, match=f"flux has {flux_axes} components but grid has {axes} axes"):
            transport_step(p, r, burgers_flux(flux_axes), 1e-3)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf])
    def test_non_finite_dt_rejected(self, grid64, dt):
        p = circle_field(grid64)
        r = make_field(grid64, np.full(64, 1.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="dt must be finite"):
                transport_step(p, r, burgers_flux(1), dt)

    def test_negative_dt_runs_backward(self, grid64):
        p0 = circle_field(grid64)
        r = make_field(grid64, 1.5 + 0.4 * np.sin(2 * np.pi * grid64.axis_coords(0)))
        there = transport_step(p0, r, burgers_flux(1), 2e-3)
        back = transport_step(there, r, burgers_flux(1), -2e-3)
        assert np.abs(there.vectors - p0.vectors).max() > 1e-3
        assert np.abs(back.vectors - p0.vectors).max() < 1e-12  # measured 4.4e-16

    def test_collapse_is_a_solver_error(self, grid64, monkeypatch):
        p = circle_field(grid64)
        r = make_field(grid64, np.full(64, 1.5))
        monkeypatch.setattr(transport, "_irfft", lambda grid, hat: np.zeros(hat.shape[:-grid.m] + grid.shape))
        with pytest.raises(SolverError, match="collapsed"):
            transport_step(p, r, burgers_flux(1), 1e-3)

    def test_2d_keeps_layout_and_bits_for_strided_vectors(self, grid2d):
        p = sphere_directions(grid2d, 3)
        # the same vectors with the components outermost in memory
        strided = np.moveaxis(np.moveaxis(p.vectors, -1, 0).copy(), 0, -1)
        q = DirectionField(grid=grid2d, vectors=strided)
        assert not q.vectors.flags.c_contiguous
        r = make_field(grid2d, radius_samples(grid2d, 0.0))
        out, out_strided = (transport_step(v, r, burgers_flux(2), 2e-3) for v in (p, q))
        assert out.vectors.shape == out_strided.vectors.shape == grid2d.shape + (3,)
        assert np.abs(out.vectors - p.vectors).max() > 1e-3  # the step moved the vectors
        a, b = (np.ascontiguousarray(v.vectors).tobytes() for v in (out, out_strided))
        assert a == b

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
            assert np.abs(traj.directions[-1][..., j] - oracle.values).max() < 1e-10

    def test_zero_flux_p_frozen_r_heat(self, grid64):
        from polarflow import heat_propagate

        theta = grid64.axis_coords(0)
        r0 = RadialField(grid=grid64, values=1.0 + 0.3 * np.cos(2 * np.pi * theta))
        p0 = circle_field(grid64)
        cfg = SolveConfig(dt=1e-3, t_end=0.1, record_every=100)
        traj = evolve_coupled(r0, p0, zero_flux(1), cfg)
        assert np.abs(traj.directions[-1] - p0.vectors).max() < 1e-12
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
            norms = np.sqrt((p**2).sum(-1))
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
        assert coupled.times.tolist() == radius.times.tolist() == times
        assert len(coupled.directions) == len(times)
        assert np.array_equal(coupled.radii, radius.radii)

    def test_fields_built_only_at_records(self, grid64, monkeypatch):
        built = {"direction": 0, "scalar": 0}

        def counting(cls, key):
            original = cls.__post_init__

            def post_init(self):
                built[key] += 1
                original(self)

            monkeypatch.setattr(cls, "__post_init__", post_init)

        counting(DirectionField, "direction")
        counting(ScalarField, "scalar")
        r0, p0 = perturbed_sphere_initial(grid64, 1.0, 0.3, [1])
        built.update(direction=0, scalar=0)
        traj = evolve_coupled(r0, p0, burgers_flux(1), SolveConfig(dt=1e-3, t_end=0.02, record_every=5))
        assert len(traj.times) == 5
        # records are copied into the trajectory's arrays: no field is built, not even there
        assert built == {"direction": 0, "scalar": 0}

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


class TestRotationalInvariance:
    """The paper's title property: rotating the initial directions rotates the whole run.

    The radius equation does not see ``P``, and the transport is linear and
    acts on each component alone, so ``evolve_coupled(r0, Q P0)`` is ``Q``
    applied to ``evolve_coupled(r0, P0)`` for every orthogonal ``Q``.
    """

    CASES = {
        "ellipse": ((128,), "ellipse", [2.5, 1.0], None, 5e-4, 0.2),
        "trig_random_32x32": ((32, 32), "trig_random", [5, 3, 0.2], 3, 1e-3, 0.1),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rotated_start_gives_rotated_run(self, case):
        shape, preset, params, d, dt, t_end = self.CASES[case]
        grid = make_grid(len(shape), [1.0] * len(shape), list(shape))
        r0, p0 = make_initial(grid, preset, params, d=d)
        rng = np.random.default_rng(sum(shape))
        q, _ = np.linalg.qr(rng.standard_normal((p0.d, p0.d)))
        rotated = DirectionField(grid=grid, vectors=p0.vectors @ q.T)
        cfg = SolveConfig(dt=dt, t_end=t_end, record_every=50)
        plain = evolve_coupled(r0, p0, burgers_flux(grid.m), cfg)
        turned = evolve_coupled(r0, rotated, burgers_flux(grid.m), cfg)
        assert np.array_equal(turned.times, plain.times)
        assert np.array_equal(turned.radii, plain.radii)
        # measured 9.0e-15 on the ellipse and 6.2e-15 on the 32^2 surface
        assert np.abs(turned.directions - plain.directions @ q.T).max() < 1e-13


class TestFlowResidual:
    """The reconstructed embedding satisfies the original evolution equation."""

    def residual(self, n, dt):
        grid = make_grid(1, [1.0], [n])
        r0, p0 = perturbed_sphere_initial(grid, 1.0, 0.2, [1])
        spec = burgers_flux(1)
        cfg = SolveConfig(dt=dt, t_end=20 * dt, record_every=1)
        traj = evolve_coupled(r0, p0, spec, cfg)

        kap = grid.wavenumbers(0)
        i = len(traj.times) // 2
        xs = [traj.radii[j][..., None] * traj.directions[j] for j in (i - 1, i, i + 1)]
        x_t = (xs[2] - xs[0]) / (2 * dt)
        r = traj.radii[i]
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

import warnings

import numpy as np
import pytest

from polarflow import (
    Modulation,
    SolveConfig,
    SolverError,
    burgers_flux,
    constant_flux,
    evolve,
    galilean_shift,
    heat_propagate,
    make_field,
    make_grid,
    max_stable_dt,
    mean,
    mode_decay_report,
    polynomial_flux,
    sphere_directions,
    step,
    with_modulation,
    zero_flux,
)
from polarflow.flux import eval_g
from polarflow.spectral import (
    _derivative_symbols,
    _half_axes,
    _irfft,
    _laplacian_half,
    _march,
    _rfft,
    _shift_symbol,
    _Stepper,
)
from conftest import full_lattice, smooth_field


def reference_advance(grid, spec, dt, vals):
    """Reference: one Strang step on complex FFTs of the full mode lattice.

    Heat half step, then the advective substep (an exact phase shift for an
    unmodulated constant flux, else a midpoint stage on the flux spectra),
    then heat half step; every stage returns to grid values through
    ``ifftn(...).real``.  Returns (new_values, mid_values).
    """
    kappas, lap = full_lattice(grid)
    half_heat = np.exp(-lap * (dt / 2.0))
    half = np.fft.ifftn(np.fft.fftn(vals) * half_heat).real
    if spec.is_constant:
        phase = sum(c * dt * k for c, k in zip(spec.constant_speeds, kappas))
        hat = np.fft.fftn(half)
        mid = np.fft.ifftn(hat * np.exp(-0.5j * phase)).real
        out = np.fft.ifftn(hat * np.exp(-1j * phase)).real
    else:

        def divergence_rhs(v):
            rhs_hat = np.zeros(grid.shape, dtype=np.complex128)
            for i, kap in enumerate(kappas):
                gi = eval_g(spec, i, v)
                mod = spec.modulation_values(grid, i)
                if mod is not None:
                    gi = gi * mod
                rhs_hat -= 1j * kap * np.fft.fftn(gi)
            return np.fft.ifftn(rhs_hat).real

        mid = half + (dt / 2.0) * divergence_rhs(half)
        out = half + dt * divergence_rhs(mid)
    return np.fft.ifftn(np.fft.fftn(out) * half_heat).real, mid


def reference_real_advance(grid, spec, dt, hat):
    """Reference: ``_Stepper.advance`` as out-of-place arithmetic on ``rfftn``/``irfftn``.

    A real heat multiplier, every stage a new array, every divergence sum
    started from ``0.0``; the products keep their operand order.  Returns
    (new_spectrum, mid_values), mid None for a constant flux.
    """
    axes = tuple(range(-grid.m, 0))
    half_heat = np.exp(-_laplacian_half(grid) * (dt / 2.0))
    if spec.is_constant:
        shift = _shift_symbol(grid, spec.constant_speeds, dt)
        return hat * (half_heat * half_heat * shift), None
    derivs = _derivative_symbols(grid)
    mods = [spec.modulation_values(grid, i) for i in range(spec.m)]

    def divergence(v):
        out = 0.0
        for i, (deriv, mod) in enumerate(zip(derivs, mods)):
            gi = eval_g(spec, i, v)
            gi = gi if mod is None else gi * mod
            out = out + deriv * np.fft.rfftn(gi, axes=axes)
        return out

    def irfft(h):
        return np.fft.irfftn(h, s=grid.shape, axes=axes)

    hh = hat * half_heat
    half = irfft(hh)
    mid = half + (dt / 2.0) * irfft(divergence(half))
    return (hh + dt * divergence(mid)) * half_heat, mid


def reference_shift_symbol(grid, speeds, t):
    """Reference: the shift symbol with its Nyquist split made by ``np.where`` on every call."""
    off = at = 0.0
    for c, (_, k, nyquist) in zip(speeds, _half_axes(grid)):
        phase = c * t * k
        off = off + np.where(nyquist, 0.0, phase)
        at = at + np.where(nyquist, phase, 0.0)
    return np.exp(-1j * off) * np.cos(at)


def _oracle_cases():
    rng = np.random.default_rng(5)
    g1 = make_grid(1, [1.0], [128])
    g64 = make_grid(1, [1.0], [64])
    g2 = make_grid(2, [1.0, 1.0], [32, 32])
    c1, c2 = g2.coords()
    smooth1 = 1.0 + 0.3 * np.sin(2 * np.pi * g1.axis_coords(0))
    modulated = with_modulation(
        polynomial_flux([1.0, 0.3]), 0, Modulation(const=1.0, sin_amps=(0.5,))
    )
    return {
        "burgers_128": (g1, burgers_flux(1), 1e-4, smooth1),
        "modulated_poly_64": (
            g64, modulated, 2e-4, 1.0 + 0.2 * np.cos(2 * np.pi * g64.axis_coords(0))
        ),
        "constant_128": (g1, constant_flux([1.0]), 1e-4, smooth1),
        "zero_128": (g1, zero_flux(1), 1e-4, smooth1),
        # white noise fills the Nyquist planes, where a shift symbol is not Hermitian
        "constant_32x32_rough": (
            g2, constant_flux([0.7, -0.3]), 1e-4, 1.0 + 0.1 * rng.normal(size=g2.shape)
        ),
        "burgers_32x32": (
            g2, burgers_flux(2), 1e-3, 1.0 + 0.2 * np.cos(2 * np.pi * c1) * np.sin(2 * np.pi * c2)
        ),
    }


ORACLE_CASES = _oracle_cases()


class TestHeatPropagate:
    def test_constant_unchanged(self, grid64):
        f = make_field(grid64, np.full(64, 4.2))
        out = heat_propagate(f, 0.37)
        assert np.abs(out.values - 4.2).max() < 1e-14

    def test_single_mode_decay_factor(self, grid128):
        theta = grid128.axis_coords(0)
        f = make_field(grid128, np.cos(2 * np.pi * theta))
        t = 0.01
        out = heat_propagate(f, t)
        factor = np.exp(-4 * np.pi**2 * t)
        assert abs(factor - 0.6738254512314336) < 1e-12  # frozen independent evaluation
        assert np.abs(out.values - factor * f.values).max() < 1e-12

    def test_2d_product_eigenfunction(self, grid2d):
        c1, c2 = grid2d.coords()
        f = make_field(grid2d, np.sin(2 * np.pi * c1) * np.cos(4 * np.pi * c2))
        t = 0.013
        out = heat_propagate(f, t)
        factor = np.exp(-(4 * np.pi**2 + 16 * np.pi**2) * t)
        assert np.abs(out.values - factor * f.values).max() < 1e-12

    def test_negative_time_rejected(self, grid64):
        with pytest.raises(ValueError):
            heat_propagate(make_field(grid64, np.ones(64)), -0.1)

    def test_mean_preserved(self, grid64):
        f = smooth_field(grid64, seed=20, offset=1.0)
        assert abs(mean(heat_propagate(f, 0.05)) - mean(f)) < 1e-14


class TestGalileanShift:
    def test_full_period_identity(self, grid64):
        f = smooth_field(grid64, seed=21)
        out = galilean_shift(f, [1.0], 1.0)
        assert np.abs(out.values - f.values).max() < 1e-12

    def test_quarter_period(self, grid64):
        theta = grid64.axis_coords(0)
        f = make_field(grid64, np.cos(2 * np.pi * theta))
        out = galilean_shift(f, [1.0], 0.25)
        assert np.abs(out.values - np.sin(2 * np.pi * theta)).max() < 1e-12

    def test_shift_inverse(self, grid64):
        f = smooth_field(grid64, seed=22)
        out = galilean_shift(galilean_shift(f, [0.731], 1.0), [-0.731], 1.0)
        assert np.abs(out.values - f.values).max() < 1e-12

    def test_2d_shift(self, grid2d):
        f = smooth_field(grid2d, seed=23, n_modes=5)
        out = galilean_shift(galilean_shift(f, [0.3, -0.4], 0.5), [-0.3, 0.4], 0.5)
        assert np.abs(out.values - f.values).max() < 1e-11

    @pytest.mark.parametrize(
        "resolution, lengths",
        [((32, 32), (1.0, 1.0)), ((16, 32), (1.0, 2.0)), ((16, 16, 16), (1.0,) * 3),
         ((8, 16, 8), (2.0, 1.0, 0.5))],
    )
    def test_white_noise_matches_full_lattice_phase(self, resolution, lengths):
        # white noise fills the Nyquist planes and corners, where the half-lattice
        # shift is the cosine of the summed phase, not a product of per-axis factors
        m = len(resolution)
        grid = make_grid(m, lengths, resolution)
        kappas, _ = full_lattice(grid)
        rng = np.random.default_rng(sum(resolution))
        eps = np.finfo(float).eps
        for t in (1e-3, 2e-3, 0.05, 0.37, 2.0, 11.0):
            u, speeds = rng.normal(size=grid.shape), rng.normal(size=m)
            phase = sum(c * t * k for c, k in zip(speeds, kappas))
            oracle = np.fft.ifftn(np.exp(-1j * phase) * np.fft.fftn(u)).real
            out = galilean_shift(make_field(grid, u), speeds, t).values
            bound = 2.0 * eps * (1.0 + np.abs(phase).max()) * np.abs(u).max()
            assert np.abs(out - oracle).max() <= bound

    @pytest.mark.parametrize("speed", [np.nan, np.inf, 1e308])
    def test_non_finite_shift_rejected_before_arithmetic(self, grid64, speed):
        f = smooth_field(grid64, seed=24)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^speeds must be finite"):
                galilean_shift(f, [speed], 10.0)


class TestShiftSymbol:
    @pytest.mark.parametrize("resolution, lengths", [((128,), (1.0,)), ((64, 64), (1.0, 1.0)),
                                                     ((32, 16), (1.0, 2.0))])
    def test_bitwise_equal_to_where_formula(self, resolution, lengths):
        m = len(resolution)
        grid = make_grid(m, lengths, resolution)
        rng = np.random.default_rng(len(resolution) * resolution[0])
        speeds = rng.normal(scale=2.0, size=(2000, m))
        times = rng.uniform(-1.0, 1.0, size=2000) * 10.0 ** rng.integers(-4, 2, size=2000)
        times[:3] = 0.0, -0.0, -1e-3  # zero of either sign, and a backward shift
        speeds[3] = 0.0  # a standing shift
        for c, t in zip(speeds, times):
            for cs in (list(c), c.tolist()):  # numpy scalars as transport passes, floats as step does
                got = _shift_symbol(grid, cs, float(t))
                assert got.tobytes() == reference_shift_symbol(grid, cs, float(t)).tobytes()


class TestStep:
    def test_zero_flux_is_heat(self, grid64):
        f = smooth_field(grid64, seed=24, offset=1.0)
        dt = 1e-3
        assert (
            np.abs(step(f, zero_flux(1), dt).values - heat_propagate(f, dt).values).max()
            < 1e-14
        )

    def test_constant_flux_is_shifted_heat(self, grid128):
        # galilean oracle: heat then coordinate shift by c*dt
        f = smooth_field(grid128, seed=25, offset=1.0)
        c, dt = 1.0, 1e-3
        out = step(f, constant_flux([c]), dt)
        oracle = galilean_shift(heat_propagate(f, dt), [c], dt)
        assert np.abs(out.values - oracle.values).max() < 1e-10

    def test_burgers_mean_conserved_1000_steps(self, grid64):
        theta = grid64.axis_coords(0)
        f = make_field(grid64, 1.0 + 0.1 * np.sin(2 * np.pi * theta))
        m0 = mean(f)
        for _ in range(1000):
            f = step(f, burgers_flux(1), 1e-3)
        assert abs(mean(f) - m0) < 1e-13


class TestStepDt:
    # a negative dt used to run the heat flow backward; NaN ended as a SolverError
    @pytest.mark.parametrize("dt", [-1e-4, 0.0, float("nan"), float("inf")])
    def test_bad_dt_rejected(self, grid64, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            step(make_field(grid64, np.ones(64)), burgers_flux(1), dt)


class TestPerAxisTransforms:
    """``_rfft``/``_irfft`` make the pocketfft calls of ``rfftn``/``irfftn``: bitwise equal."""

    @pytest.mark.parametrize(
        "resolution", [(128,), (8,), (32, 32), (16, 64), (64, 8), (8, 16, 32), (16, 8, 8)]
    )
    # the ids are the names these cases have always been reported under
    @pytest.mark.parametrize("batch", [(), (3,), (2,)], ids=["tail0", "tail1", "tail2"])
    def test_bitwise_equal_to_rfftn(self, resolution, batch):
        m = len(resolution)
        grid = make_grid(m, [1.0] * m, resolution)
        vals = np.random.default_rng(sum(resolution)).normal(size=batch + grid.shape)
        axes = tuple(range(-m, 0))
        hat = _rfft(grid, vals)
        ref = np.fft.rfftn(vals, axes=axes)
        assert hat.shape == ref.shape and np.array_equal(hat, ref)
        back = _irfft(grid, hat)
        assert np.array_equal(back, np.fft.irfftn(ref, s=grid.shape, axes=axes))
        # a leading axis holds independent fields: each equals its own transform
        for j in np.ndindex(*batch):
            assert np.array_equal(hat[j], np.fft.rfftn(vals[j]))

    @pytest.mark.parametrize("resolution", [(128,), (64, 64), (8, 16, 32)])
    def test_strided_input_gives_c_ordered_output(self, resolution):
        m = len(resolution)
        grid = make_grid(m, [1.0] * m, resolution)
        # components last in memory, first in shape: the view _carry transforms
        vals = np.moveaxis(np.random.default_rng(2).normal(size=grid.shape + (3,)), -1, 0)
        assert not vals.flags.c_contiguous
        hat = _rfft(grid, vals)
        assert hat.flags.c_contiguous
        assert hat.tobytes() == _rfft(grid, np.ascontiguousarray(vals)).tobytes()
        strided = np.moveaxis(np.moveaxis(hat, 0, -1).copy(), -1, 0)
        assert not strided.flags.c_contiguous
        back = _irfft(grid, strided)
        assert back.flags.c_contiguous
        assert back.tobytes() == _irfft(grid, hat).tobytes()


    @pytest.mark.parametrize("resolution", [(128,), (64, 64)])
    def test_outputs_are_new_arrays(self, resolution):
        m = len(resolution)
        grid = make_grid(m, [1.0] * m, resolution)
        vals = np.random.default_rng(3).normal(size=(1,) + grid.shape)
        hats = [_rfft(grid, vals) for _ in range(2)]
        backs = [_irfft(grid, hat) for hat in hats]
        arrays = [vals, *hats, *backs]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1 :]:
                assert not np.shares_memory(a, b)

def _square_wave(grid):
    """Steep positive data (0.01, 2.01, 4.01) whose Gibbs overshoot raises flags."""
    wave = np.prod([np.sin(2 * np.pi * c) for c in grid.coords()], axis=0)
    return make_field(grid, 2.0 * np.sign(wave) + 2.01)


ENSEMBLE_FLUXES = {
    "burgers": burgers_flux,
    "modulated": lambda m: with_modulation(
        polynomial_flux([0.3, 0.5, 0.2], m), 0, Modulation(const=0.2, sin_amps=(0.7,))
    ),
    "constant": lambda m: constant_flux([0.7, -0.4][:m]),
    "zero": zero_flux,
}


class TestEnsemble:
    """``_march`` batches: every member bitwise equal to its own ``evolve``."""

    @pytest.mark.parametrize("flux", list(ENSEMBLE_FLUXES))
    @pytest.mark.parametrize("resolution", [(64,), (16, 8)])
    def test_members_equal_unbatched_runs(self, flux, resolution):
        m = len(resolution)
        grid = make_grid(m, [1.0] * m, resolution)
        spec = ENSEMBLE_FLUXES[flux](m)
        r0s = [
            smooth_field(grid, seed=40, n_modes=3, offset=1.0),
            smooth_field(grid, seed=41, n_modes=3, offset=2.0),
            _square_wave(grid),
        ]
        bound = max_stable_dt(grid, spec, max(float(np.abs(r.values).max()) for r in r0s))
        # 13 full steps and a tail: records at steps 0, 4, 8, 12 and at t_end
        cfg = SolveConfig(dt=0.9 * bound, t_end=13.4 * 0.9 * bound, record_every=4)
        batch = _march(r0s, spec, cfg)
        assert len(batch) == len(r0s)
        for r0, traj in zip(r0s, batch):
            alone = evolve(r0, spec, cfg)
            assert np.array_equal(traj.times, alone.times) and len(alone.times) == 5
            for column in ("mean", "sup", "min", "l1", "sphere_dev"):
                assert np.array_equal(getattr(traj, column), getattr(alone, column))
            assert traj.flags == alone.flags
            assert np.array_equal(traj.radii, alone.radii)
        if flux == "modulated":
            # the square wave's own flags, and none leaked to the smooth members
            assert batch[2].flags and not batch[0].flags and not batch[1].flags

    def test_cfl_checked_against_largest_member(self, grid64):
        spec = burgers_flux(1)
        small = make_field(grid64, np.full(64, 1.0))
        large = smooth_field(grid64, seed=42, offset=3.0)
        dt = 0.5 * (
            max_stable_dt(grid64, spec, 1.0)
            + max_stable_dt(grid64, spec, float(np.abs(large.values).max()))
        )
        cfg = SolveConfig(dt=dt, t_end=10 * dt)
        with pytest.raises(SolverError) as alone:
            evolve(large, spec, cfg)
        with pytest.raises(SolverError) as batch:
            _march([small, large], spec, cfg)
        assert str(batch.value) == str(alone.value)
        assert len(_march([small, small], spec, cfg)) == 2

    def test_non_finite_member_names_step(self, grid64, monkeypatch):
        from polarflow import spectral

        calls = {"n": 0}
        original = spectral._Stepper.advance

        def poisoning(self, hat):
            calls["n"] += 1
            if calls["n"] == 3:
                hat = hat.copy()
                hat[..., 1] = np.nan
            return original(self, hat)

        monkeypatch.setattr(spectral._Stepper, "advance", poisoning)
        r0s = [smooth_field(grid64, seed=s, offset=1.0) for s in (43, 44)]
        with pytest.raises(SolverError, match="step 3 .*non-finite"):
            _march(r0s, burgers_flux(1), SolveConfig(dt=1e-4, t_end=1e-3))

    def test_constant_flux_hook_gets_end_radius_as_midpoint(self, grid64):
        # a constant speed does not read the radius, so no midpoint transform is made
        seen = []

        def hook(vectors, radii, dt):
            seen.append(radii)
            return vectors

        r0 = smooth_field(grid64, seed=45, offset=2.0)
        p0 = sphere_directions(grid64, 2).vectors
        cfg = SolveConfig(dt=1e-3, t_end=3e-3)
        traj = _march([r0], constant_flux([0.7]), cfg, (p0, hook))[0]
        assert len(seen) == 3
        for (start, mid, end), before, after in zip(seen, traj.radii, traj.radii[1:]):
            assert start.shape == mid.shape == end.shape == grid64.shape
            assert np.array_equal(start, before) and np.array_equal(end, after)
            assert np.array_equal(mid, end)

    def test_records_are_read_only_views_of_one_array(self, grid64):
        r0s = [smooth_field(grid64, seed=s, offset=2.0) for s in (46, 47)]
        cfg = SolveConfig(dt=1e-3, t_end=5e-3, record_every=2)
        first, second = _march(r0s, burgers_flux(1), cfg)
        assert first.radii.shape == (4, 64) and first.radii.base is second.radii.base
        p0 = sphere_directions(grid64, 2).vectors
        coupled = _march(r0s[:1], burgers_flux(1), cfg, (p0, lambda p, radii, dt: p))[0]
        assert coupled.directions.shape == (4, 64, 2) and first.directions is None
        for arr in (first.times, first.radii, coupled.times, coupled.radii, coupled.directions):
            assert not arr.flags.writeable

    def test_members_on_different_grids_rejected(self, grid64, grid128):
        r0s = [make_field(grid64, np.ones(64)), make_field(grid128, np.ones(128))]
        with pytest.raises(ValueError, match="different grids"):
            _march(r0s, zero_flux(1), SolveConfig(dt=1e-4, t_end=1e-3))


class TestRealStepper:
    """The rfft-spectrum stepper against the complex full-lattice step."""

    # measured worst over these cases: 6.0e-15 (zero_128, 300 steps)
    TOL = 2e-14

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_matches_reference_advance(self, case):
        grid, spec, dt, vals = ORACLE_CASES[case]
        assert dt <= max_stable_dt(grid, spec, float(np.abs(vals).max()))
        stepper = _Stepper(grid, spec, dt)
        # the state carries a leading member axis; this is a batch of one
        hat, ref = _rfft(grid, vals[None]), vals
        worst_mid = 0.0
        for _ in range(300):
            hat, mid = stepper.advance(hat)
            ref, ref_mid = reference_advance(grid, spec, dt, ref)
            if spec.is_constant:
                assert mid is None  # one product, no half-time stage
            else:
                worst_mid = max(worst_mid, float(np.abs(mid[0] - ref_mid).max()))
        assert worst_mid < self.TOL
        assert np.abs(_irfft(grid, hat)[0] - ref).max() < self.TOL



class TestInPlaceStep:
    """``advance`` combines its stages in place: bitwise the out-of-place step, no shared memory."""

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_matches_out_of_place_bitwise(self, case):
        grid, spec, dt, vals = ORACLE_CASES[case]
        stepper = _Stepper(grid, spec, dt)
        hat = ref = _rfft(grid, vals[None])
        for _ in range(300):
            hat, mid = stepper.advance(hat)
            ref, ref_mid = reference_real_advance(grid, spec, dt, ref)
            assert np.array_equal(hat, ref)
            assert (mid is None) == (ref_mid is None)
            assert mid is None or np.array_equal(mid, ref_mid)

    @pytest.mark.parametrize("flux", ["burgers", "modulated", "constant"])
    @pytest.mark.parametrize("resolution", [(64,), (16, 8)])
    def test_input_unchanged_and_outputs_new(self, flux, resolution):
        m = len(resolution)
        grid = make_grid(m, [1.0] * m, resolution)
        stepper = _Stepper(grid, ENSEMBLE_FLUXES[flux](m), 1e-4)
        hat = _rfft(grid, smooth_field(grid, seed=7, offset=1.0).values[None])
        before = hat.copy()
        new, mid = stepper.advance(hat)
        assert np.array_equal(hat, before)
        again, mid_again = stepper.advance(new)  # a caller may hold the previous results
        arrays = [a for a in (hat, new, mid, again, mid_again) if a is not None]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1 :]:
                assert not np.shares_memory(a, b)

class TestSolveConfig:
    @pytest.mark.parametrize("key", ["dt", "t_end"])
    def test_non_finite_time_rejected(self, key):
        kwargs = {"dt": 1e-3, "t_end": 0.1, key: float("inf")}
        with pytest.raises(ValueError, match="finite"):
            SolveConfig(**kwargs)

    # 2.5 recorded every 5 steps and NaN only at t_end
    @pytest.mark.parametrize("every", [2.5, float("nan"), 1.0, "3", True, 0, -2])
    def test_record_every_must_be_a_positive_integer(self, every):
        with pytest.raises(ValueError, match="record_every must be an integer >= 1"):
            SolveConfig(dt=1e-3, t_end=0.1, record_every=every)

    def test_numpy_integer_record_every_accepted(self):
        assert SolveConfig(dt=1e-3, t_end=0.1, record_every=np.int64(3)).record_every == 3


class TestEvolve:
    def test_zero_flux_matches_closed_form(self, grid128):
        theta = grid128.axis_coords(0)
        r0 = make_field(grid128, np.cos(2 * np.pi * theta))
        traj = evolve(r0, zero_flux(1), SolveConfig(dt=1e-4, t_end=0.05, record_every=100))
        for t, r in zip(traj.times, traj.radii):
            exact = np.exp(-4 * np.pi**2 * t)
            ratio = np.abs(r).max() / exact
            assert abs(ratio - 1.0) < 0.01

    def test_constant_initial_is_fixed_point(self, grid64):
        r0 = make_field(grid64, np.full(64, 1.3))
        traj = evolve(r0, burgers_flux(1), SolveConfig(dt=1e-3, t_end=0.1, record_every=10))
        for r in traj.radii:
            assert np.abs(r - 1.3).max() < 1e-13

    def test_burgers_attractor_and_fine_grid_reference(self):
        # same run at N=128 and N=256: both collapse to the initial mean
        from polarflow import make_grid

        for n in (128, 256):
            g = make_grid(1, [1.0], [n])
            theta = g.axis_coords(0)
            r0 = make_field(g, 1.0 + 0.3 * np.cos(2 * np.pi * theta))
            traj = evolve(r0, burgers_flux(1), SolveConfig(dt=2e-4, t_end=1.0, record_every=5000))
            assert np.abs(traj.final.values - mean(r0)).max() < 1e-6

    def test_cfl_violation_rejected(self, grid64):
        r0 = make_field(grid64, np.full(64, 2.0))
        bound = max_stable_dt(grid64, burgers_flux(1), 2.0)
        with pytest.raises(SolverError, match="stability"):
            evolve(r0, burgers_flux(1), SolveConfig(dt=2 * bound, t_end=0.1))

    # the record arrays of 1e300 steps failed numpy's shape check with an
    # untyped ValueError; a step count past the float range overflowed int()
    @pytest.mark.parametrize(
        "t_end, match",
        [(0.1, "cannot allocate 1e\\+299 records"), (1e10, "too many steps")],
        ids=["records", "step_count"],
    )
    def test_tiny_dt_is_a_solver_error(self, grid64, t_end, match):
        r0 = make_field(grid64, np.full(64, 1.0))
        with pytest.raises(SolverError, match=match):
            evolve(r0, burgers_flux(1), SolveConfig(dt=1e-300, t_end=t_end))

    def test_mass_conservation_all_fluxes(self, grid64):
        theta = grid64.axis_coords(0)
        r0 = make_field(grid64, 1.0 + 0.1 * np.sin(2 * np.pi * theta))
        for spec in (zero_flux(1), constant_flux([1.0]), burgers_flux(1), polynomial_flux([1.0, 0.2])):
            traj = evolve(r0, spec, SolveConfig(dt=1e-4, t_end=0.05, record_every=100))
            for row_mean in traj.mean:
                assert abs(row_mean - mean(r0)) < 1e-12

    def test_max_principle_and_positivity(self, grid64):
        theta = grid64.axis_coords(0)
        r0 = make_field(grid64, 1.0 + 0.4 * np.sin(2 * np.pi * theta))
        traj = evolve(r0, burgers_flux(1), SolveConfig(dt=1e-4, t_end=0.5, record_every=500))
        assert traj.flags == []
        for row_sup, row_min in zip(traj.sup, traj.min):
            assert row_sup <= np.abs(r0.values).max() + 1e-8
            assert row_min > 0.0

    def test_l1_contraction_between_solutions(self, grid64):
        from polarflow import l1_contraction_series

        theta = grid64.axis_coords(0)
        cfg = SolveConfig(dt=1e-4, t_end=0.3, record_every=300)
        spec = burgers_flux(1)
        t1 = evolve(make_field(grid64, 1.0 + 0.1 * np.sin(2 * np.pi * theta)), spec, cfg)
        t2 = evolve(make_field(grid64, 1.0 - 0.1 * np.sin(2 * np.pi * theta)), spec, cfg)
        series = l1_contraction_series(t1, t2)
        for (_, d0), (_, d1) in zip(series, series[1:]):
            assert d1 <= d0 + 1e-8

    def test_mode_decay_within_1_percent(self, grid64):
        theta = grid64.axis_coords(0)
        r0 = make_field(grid64, 1.0 + 0.5 * np.cos(2 * np.pi * theta) + 0.2 * np.cos(4 * np.pi * theta))
        traj = evolve(r0, zero_flux(1), SolveConfig(dt=1e-4, t_end=0.05, record_every=50))
        rows = mode_decay_report(traj)
        for row in rows:
            if row.index == (0,):
                continue
            assert row.rel_error < 0.01

    def test_strang_second_order(self, grid64):
        # halving dt shrinks the step error about 4x on a smooth quadratic-flux run
        theta = grid64.axis_coords(0)
        r0 = make_field(grid64, 1.0 + 0.2 * np.sin(2 * np.pi * theta))
        spec = burgers_flux(1)
        t_end = 0.04

        def final(dt):
            return evolve(r0, spec, SolveConfig(dt=dt, t_end=t_end, record_every=10**6)).final.values

        u1, u2, u4 = final(2e-3), final(1e-3), final(5e-4)
        e1 = np.abs(u1 - u2).max()
        e2 = np.abs(u2 - u4).max()
        assert e1 / e2 == pytest.approx(4.0, rel=0.2)

    def test_nan_abort_in_step(self, grid64):
        theta = grid64.axis_coords(0)
        r0 = make_field(grid64, 1.0 + 0.9 * np.sin(2 * np.pi * theta))
        # coefficients overflow float64 inside the midpoint stage
        spec = polynomial_flux([0.0, 0.0, 1e200])
        with np.errstate(all="ignore"), pytest.raises(SolverError, match="non-finite"):
            step(r0, spec, 1.0)

    def test_evolve_reports_failing_step_index(self, grid64, monkeypatch):
        from polarflow import spectral

        calls = {"n": 0}
        original = spectral._Stepper.advance

        def failing(self, vals):
            calls["n"] += 1
            if calls["n"] == 3:
                raise SolverError("non-finite field after step")
            return original(self, vals)

        monkeypatch.setattr(spectral._Stepper, "advance", failing)
        r0 = make_field(grid64, np.full(64, 1.0))
        with pytest.raises(SolverError, match="step 3"):
            evolve(r0, zero_flux(1), SolveConfig(dt=1e-3, t_end=0.01))

    def test_2d_burgers_conservation_and_bounds(self, grid2d):
        c1, c2 = grid2d.coords()
        r0 = make_field(grid2d, 1.0 + 0.2 * np.cos(2 * np.pi * c1) * np.sin(2 * np.pi * c2))
        traj = evolve(r0, burgers_flux(2), SolveConfig(dt=1e-3, t_end=0.1, record_every=20))
        assert traj.flags == []
        for row_mean, row_sup, row_min in zip(traj.mean, traj.sup, traj.min):
            assert abs(row_mean - mean(r0)) < 1e-12
            assert row_sup <= np.abs(r0.values).max() + 1e-8
            assert row_min > 0.0

    def test_partial_final_step(self, grid64):
        f = smooth_field(grid64, seed=26, offset=1.0)
        traj = evolve(f, zero_flux(1), SolveConfig(dt=3e-4, t_end=1e-3, record_every=1))
        assert traj.times[-1] == pytest.approx(1e-3, abs=1e-15)
        oracle = heat_propagate(f, 1e-3)
        assert np.abs(traj.final.values - oracle.values).max() < 1e-13

    @pytest.mark.parametrize("coeffs", [[0.7], [0.7, 0.0]])
    def test_degree_zero_polynomial_takes_exact_path(self, grid64, coeffs):
        spec = polynomial_flux(coeffs)
        assert spec == constant_flux([0.7])
        f = smooth_field(grid64, seed=27, offset=1.0)
        cfg = SolveConfig(dt=1e-3, t_end=0.0205, record_every=5)
        got = evolve(f, spec, cfg)
        want = evolve(f, constant_flux([0.7]), cfg)
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.radii, want.radii)

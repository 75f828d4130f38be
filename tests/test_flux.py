import math
import warnings
from functools import partial

import numpy as np
import pytest

from polarflow import (
    ConvergenceError,
    Modulation,
    SolveConfig,
    SolverError,
    burgers_flux,
    constant_flux,
    eval_f,
    eval_g,
    eval_g_prime,
    evolve,
    evolve_coupled,
    flux_envelope_bound,
    make_field,
    make_grid,
    max_stable_dt,
    picard_extend,
    picard_solve,
    polynomial_flux,
    solve_cell,
    sphere_directions,
    transport_step,
    with_modulation,
    zero_flux,
)
from polarflow.flux import _horner, advective_speed_bound

ALL_SPECS = [
    zero_flux(1),
    constant_flux([2.5]),
    burgers_flux(1),
    polynomial_flux([1.0, 0.0, 1.0]),  # f = 1 + nu^2
    polynomial_flux([0.5, -0.3, 0.1]),
]


class TestEval:
    def test_constant(self):
        spec = constant_flux([2.5])
        assert eval_f(spec, 0, -7.0) == 2.5
        assert eval_f(spec, 0, 123.4) == 2.5

    def test_burgers(self):
        spec = burgers_flux(1)
        assert eval_f(spec, 0, 3.0) == 1.5
        assert eval_g(spec, 0, 3.0) == 4.5
        assert eval_g_prime(spec, 0, 3.0) == 3.0

    def test_polynomial(self):
        spec = polynomial_flux([1.0, 0.0, 1.0])
        assert eval_f(spec, 0, 2.0) == 5.0
        assert eval_g(spec, 0, 2.0) == 10.0
        assert eval_g_prime(spec, 0, 2.0) == 13.0  # 1 + 3 nu^2 at nu=2

    def test_constant_g(self):
        spec = constant_flux([2.0])
        nu = 1.7
        assert eval_g(spec, 0, nu) == 2.0 * nu
        assert eval_g_prime(spec, 0, nu) == 2.0

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            eval_f(burgers_flux(1), 1, 0.0)

    def test_vectorized(self):
        spec = burgers_flux(1)
        nu = np.linspace(-2, 2, 11)
        assert np.allclose(eval_g(spec, 0, nu), nu**2 / 2)


class TestHorner:
    """``_horner`` with a modulation and a workspace, as every grid flux term calls it."""

    CASES = {
        "burgers_g": (burgers_flux(1), eval_g, lambda c: c.g),
        "cubic_f": (polynomial_flux([0.3, -0.5, 0.0, 0.2]), eval_f, lambda c: c.coeffs),
        "degree0_f": (constant_flux([2.5]), eval_f, lambda c: c.coeffs),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_mod_and_out_bitwise_equal_evaluation_times_mod(self, case):
        spec, evaluate, coeffs = self.CASES[case]
        rng = np.random.default_rng(14)
        nu = rng.uniform(-3.0, 3.0, size=(4, 16))
        nu.flags.writeable = False  # any write to nu raises
        mod = np.broadcast_to(rng.uniform(-1.0, 1.0, size=16), nu.shape)
        want = (evaluate(spec, 0, nu) * mod).tobytes()
        out = np.full(nu.shape, np.nan)
        assert _horner(coeffs(spec.components[0]), nu, mod, out) is out
        assert out.tobytes() == want
        assert _horner(coeffs(spec.components[0]), nu, mod).tobytes() == want


class TestIdentities:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_g_equals_nu_f(self, spec):
        rng = np.random.default_rng(12)
        nu = rng.uniform(-10, 10, size=1000)
        gap = np.abs(eval_g(spec, 0, nu) - nu * eval_f(spec, 0, nu))
        assert gap.max() < 1e-13 * max(1.0, np.abs(eval_g(spec, 0, nu)).max())

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_g_prime_matches_finite_differences(self, spec):
        # central-difference oracle, h = 1e-6
        rng = np.random.default_rng(13)
        nu = rng.uniform(-10, 10, size=1000)
        h = 1e-6
        fd = (eval_g(spec, 0, nu + h) - eval_g(spec, 0, nu - h)) / (2 * h)
        assert np.abs(eval_g_prime(spec, 0, nu) - fd).max() < 1e-6

    def test_g_prime_fd_oracle_at_two(self):
        spec = polynomial_flux([1.0, 0.0, 1.0])
        h = 1e-6
        fd = (eval_g(spec, 0, 2.0 + h) - eval_g(spec, 0, 2.0 - h)) / (2 * h)
        assert abs(eval_g_prime(spec, 0, 2.0) - fd) < 1e-6


def sampling_oracle(spec, field_bound, n=200001):
    """Dense sampling over the reach interval (independent of the envelope code)."""
    reach = (spec.m + 1) * field_bound
    nu = np.linspace(-reach, reach, n)
    return max(
        float(np.abs(eval_g(spec, 0, nu)).max()),
        float(np.abs(eval_g_prime(spec, 0, nu)).max()),
    )


class TestEnvelopeBound:
    def test_constant_exact(self):
        spec = constant_flux([2.0])
        h = flux_envelope_bound(spec, 1.0)
        assert h == 4.0
        assert h >= sampling_oracle(spec, 1.0)

    def test_burgers_exact(self):
        spec = burgers_flux(1)
        h = flux_envelope_bound(spec, 1.0)
        assert h == 2.0
        assert h >= sampling_oracle(spec, 1.0)

    def test_zero_flux(self):
        assert flux_envelope_bound(zero_flux(1), 1.0) == 0.0

    def test_polynomial_conservative(self):
        spec = polynomial_flux([0.5, -0.3, 0.1])
        h = flux_envelope_bound(spec, 1.5)
        assert h >= sampling_oracle(spec, 1.5)

    def test_polynomial_exact(self):
        # g = v/2 - 0.3 v^2 + 0.1 v^3 has g' >= 0.2 > 0, so both suprema sit at v = -reach
        spec = polynomial_flux([0.5, -0.3, 0.1])
        h = flux_envelope_bound(spec, 1.5)  # reach 3: g(-3) = -6.9, g'(-3) = 5.0
        assert h == pytest.approx(6.9, rel=1e-15, abs=0.0)
        assert h >= sampling_oracle(spec, 1.5)
        # g'(-1.5) = 0.5 + 0.9 + 0.675
        assert advective_speed_bound(spec, 1.5) == pytest.approx(2.075, rel=1e-15, abs=0.0)

    def test_interior_critical_point(self):
        # g = v - v^3: |g'| = |1 - 3 v^2| peaks at v = 0 (1.0), not at the ends (0.25)
        assert advective_speed_bound(polynomial_flux([1.0, 0.0, -1.0]), 0.5) == 1.0
        # g = v - v^3/27 peaks at v = 3 (g = 2), inside the reach 3.3, where g = 1.969;
        # |g'| = |1 - v^2/9| <= 1 there
        spec = polynomial_flux([1.0, 0.0, -1.0 / 27.0])
        h = flux_envelope_bound(spec, 1.65)
        assert h == pytest.approx(2.0, rel=1e-14, abs=0.0)
        assert h >= sampling_oracle(spec, 1.65)

    def test_degree_zero_polynomial_is_constant(self):
        expect = constant_flux([0.7])
        assert polynomial_flux([0.7]) == expect
        assert polynomial_flux([0.7, 0.0, -0.0]) == expect
        assert polynomial_flux([0.7, 0.0]).is_constant
        assert polynomial_flux([0.0, 0.0]) == zero_flux(1)
        assert flux_envelope_bound(polynomial_flux([0.7, 0.0]), 1.0) == 1.4  # 0.7 * reach 2

    def test_modulation_scales_bound(self):
        base = constant_flux([1.0])
        mod = with_modulation(base, 0, Modulation(const=0.0, sin_amps=(2.0,)))
        assert flux_envelope_bound(mod, 1.0) >= 2.0 * flux_envelope_bound(base, 1.0) - 1e-15


class TestExtremeCoefficients:
    """A negligible leading term or an overflowing flux: a finite bound or ``inf``, not LinAlgError."""

    GRID = make_grid(1, [1.0], [64])

    # np.roots saw a companion matrix with an overflowed entry for each of these
    @pytest.mark.parametrize(
        "coeffs, without",
        [([1.0, 1.0, 1e-320], [1.0, 1.0]), ([0.0, 1e10, 1e-300], [0.0, 1e10])],
    )
    def test_negligible_leading_term(self, coeffs, without):
        spec, ref = polynomial_flux(coeffs), polynomial_flux(without)
        for bound in (advective_speed_bound, flux_envelope_bound):
            assert bound(spec, 1.5) == pytest.approx(bound(ref, 1.5), rel=1e-15, abs=0.0)
        assert max_stable_dt(self.GRID, spec, 1.5) == pytest.approx(
            max_stable_dt(self.GRID, ref, 1.5), rel=1e-15, abs=0.0
        )

    @pytest.mark.parametrize("coeffs", [[1e308] * 3, [0.0, 1e308, -1e308], [1e200, 1e200]])
    def test_overflow_is_infinite(self, coeffs):
        spec = polynomial_flux(coeffs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert advective_speed_bound(spec, 1e200) == math.inf
            assert flux_envelope_bound(spec, 1e200) == math.inf
            assert max_stable_dt(self.GRID, spec, 1e200) == 0.0

    @pytest.mark.parametrize("bad", [-1.0, -math.inf, math.inf, math.nan])
    def test_bad_field_bound_is_a_value_error(self, bad):
        # a negative bound used to give the value for |bound|, a non-finite one 0.0 or inf
        cases = (advective_speed_bound, flux_envelope_bound, partial(max_stable_dt, self.GRID))
        for fn in cases:
            with pytest.raises(ValueError, match="field_bound must be non-negative and finite"):
                fn(burgers_flux(1), bad)

    def test_infinite_bound_stops_the_solvers_with_typed_errors(self):
        spec = polynomial_flux([1e308] * 3)
        r0 = make_field(self.GRID, 1.0 + 0.2 * np.sin(2 * np.pi * self.GRID.axis_coords(0)))
        with pytest.raises(SolverError, match="stability bound 0.000e\\+00"):
            evolve(r0, spec, SolveConfig(dt=1e-4, t_end=1e-3))
        for solve in (picard_solve, lambda r, s: picard_extend(r, s, 0.1)):
            with pytest.raises(ConvergenceError, match="flux envelope overflows"):
                solve(r0, spec)


class TestModulation:
    def test_evaluate(self):
        mod = Modulation(const=0.5, cos_amps=(1.0,), sin_amps=(0.0, 2.0))
        s = np.linspace(0, 1, 9)[:-1]
        expect = 0.5 + np.cos(2 * np.pi * s) + 2 * np.sin(4 * np.pi * s)
        assert np.allclose(mod.evaluate(s, 1.0), expect)

    def test_sup_bound(self):
        mod = Modulation(const=0.5, cos_amps=(1.0,), sin_amps=(0.0, 2.0))
        assert mod.sup_bound() == 3.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_amplitudes_rejected(self, bad):
        for kwargs in ({"const": bad}, {"cos_amps": (bad,)}, {"sin_amps": (0.0, bad)}):
            with pytest.raises(ValueError, match="finite"):
                Modulation(**kwargs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            polynomial_flux([0.5, bad])
        with pytest.raises(ValueError, match="finite"):
            constant_flux([1.0, bad])

    def test_empty_coefficients_rejected(self):
        from polarflow.flux import FluxComponent

        with pytest.raises(ValueError, match="at least one coefficient"):
            FluxComponent(())
        with pytest.raises(ValueError, match="at least one coefficient"):
            polynomial_flux([])


class TestResolve:
    """``FluxSpec.resolve``: one axis check and one set of modulation samples per flux and grid."""

    SOLVERS = {
        "max_stable_dt": lambda grid, spec, r0: max_stable_dt(grid, spec, 1.0),
        "evolve": lambda grid, spec, r0: evolve(r0, spec, SolveConfig(dt=1e-4, t_end=1e-3)),
        "evolve_coupled": lambda grid, spec, r0: evolve_coupled(
            r0, sphere_directions(grid), spec, SolveConfig(dt=1e-4, t_end=1e-3)
        ),
        "transport_step": lambda grid, spec, r0: transport_step(
            sphere_directions(grid), r0, spec, 1e-3
        ),
        "solve_cell": lambda grid, spec, r0: solve_cell(spec, grid, 1.0),
        "picard_solve": lambda grid, spec, r0: picard_solve(r0, spec),
        "picard_extend": lambda grid, spec, r0: picard_extend(r0, spec, 0.1),
    }

    @staticmethod
    def modulated(coeffs):
        """A 2-axis flux ``f = coeffs`` with a modulation on axis 1 only."""
        return with_modulation(polynomial_flux(coeffs, 2), 1, Modulation(0.5, (0.3,), (0.0, 0.2)))

    @pytest.mark.parametrize("axes, flux_axes", [(1, 2), (2, 1)])
    @pytest.mark.parametrize("solver", list(SOLVERS))
    def test_wrong_component_count_rejected(self, solver, axes, flux_axes):
        grid = make_grid(axes, [1.0] * axes, [16] * axes)
        r0 = make_field(grid, np.full(grid.shape, 1.0))
        with pytest.raises(ValueError, match=f"^flux has {flux_axes} components but grid has {axes} axes$"):
            self.SOLVERS[solver](grid, burgers_flux(flux_axes), r0)

    def test_equal_fluxes_share_read_only_samples(self):
        grid = make_grid(2, [1.0, 2.0], [16, 32])
        a, b = self.modulated([0, 1 / 2]), self.modulated([0.0, 0.5, 0.0])
        assert a is not b and a == b and hash(a) == hash(b)
        assert a.components[0].g == b.components[0].g == (0.0, 0.0, 0.5)
        assert a.components[0].g_prime == (0.0, 1.0)
        assert "g_prime" not in repr(a)
        ra, rb = a.resolve(grid), b.resolve(grid)
        assert ra[0] is None and ra[1] is rb[1]
        want = a.components[1].modulation.evaluate(grid.axis_coords(1), 2.0)
        assert ra[1].shape == grid.shape and np.array_equal(ra[1], np.broadcast_to(want, grid.shape))
        with pytest.raises(ValueError, match="read-only"):
            ra[1][0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            ra[1] *= 2.0

    def test_solves_leave_cached_samples_unchanged(self):
        grid = make_grid(1, [1.0], [32])
        spec = with_modulation(burgers_flux(1), 0, Modulation(const=0.0, sin_amps=(0.8,)))
        samples = spec.resolve(grid)[0]
        before = samples.copy()
        r0 = make_field(grid, 1.0 + 0.2 * np.sin(2 * np.pi * grid.axis_coords(0)))
        cfg = SolveConfig(dt=1e-4, t_end=1e-3)
        runs = [(solve_cell(spec, grid, 1.0).v.values, evolve(r0, spec, cfg).radii) for _ in range(2)]
        assert spec.resolve(grid)[0] is samples and np.array_equal(samples, before)
        for first, second in zip(*runs):
            assert first.tobytes() == second.tobytes()

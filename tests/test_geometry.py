import numpy as np
import pytest

from polarflow import (
    decompose,
    ellipse_initial,
    make_grid,
    make_initial,
    perturbed_sphere_initial,
    reconstruct,
    sphere_directions,
    trig_random_initial,
)


class TestEllipse:
    def test_circle_case(self, grid64):
        r0, p0 = ellipse_initial(grid64, 1.5, 1.5)
        assert np.abs(r0.values - 1.5).max() < 1e-13
        theta = grid64.axis_coords(0)
        expect = np.stack([np.cos(2 * np.pi * theta), np.sin(2 * np.pi * theta)], axis=-1)
        assert np.abs(p0.vectors - expect).max() < 1e-13

    def test_two_one_endpoints(self, grid64):
        r0, _ = ellipse_initial(grid64, 2.0, 1.0)
        theta = grid64.axis_coords(0)
        expect = np.sqrt(4 * np.cos(2 * np.pi * theta) ** 2 + np.sin(2 * np.pi * theta) ** 2)
        assert np.abs(r0.values - expect).max() < 1e-13
        assert r0.values[0] == pytest.approx(2.0)
        assert r0.values[16] == pytest.approx(1.0)  # theta = 1/4

    def test_requires_one_axis(self, grid2d):
        with pytest.raises(ValueError, match="one-axis"):
            ellipse_initial(grid2d, 2.0, 1.0)

    # NaN passed the positivity check and failed later as "field contains NaN or Inf"
    @pytest.mark.parametrize("a, b", [(np.nan, 1.0), (2.0, np.inf), (-np.inf, 1.0), (2.0, 0.0)])
    def test_semi_axes_must_be_positive_and_finite(self, grid64, a, b):
        with pytest.raises(ValueError, match="^ellipse semi-axes must be positive and finite"):
            ellipse_initial(grid64, a, b)


class TestPerturbedSphere:
    def test_min_radius(self, grid64):
        r0, _ = perturbed_sphere_initial(grid64, 1.0, 0.3, [1])
        assert r0.values.min() == pytest.approx(0.7, abs=1e-12)

    def test_amplitude_too_large(self, grid64):
        with pytest.raises(ValueError, match="radius would vanish"):
            perturbed_sphere_initial(grid64, 1.0, 1.0, [1])

    # inf overflowed int(); 1.5 was truncated to mode 1
    @pytest.mark.parametrize("mode", [np.inf, np.nan, 1.5], ids=["inf", "nan", "fraction"])
    def test_mode_must_be_an_integer(self, grid64, grid2d, mode):
        with pytest.raises(ValueError, match="^mode must be an integer"):
            perturbed_sphere_initial(grid64, 1.0, 0.1, [mode])
        with pytest.raises(ValueError, match="^mode must be an integer"):
            perturbed_sphere_initial(grid2d, 1.0, 0.1, [(1, mode)])

    # mode 40 on N=64 was the mode-24 surface to 2.9e-15, without a word
    @pytest.mark.parametrize("mode", [40, -33, 64], ids=["aliased", "negative", "full_period"])
    def test_mode_above_half_resolution_rejected(self, grid64, grid2d, mode):
        with pytest.raises(ValueError, match=r"^mode must satisfy \|k_i\| <= N_i/2 = \(32,\)"):
            perturbed_sphere_initial(grid64, 1.0, 0.1, [mode])
        with pytest.raises(ValueError, match=r"N_i/2 = \(16, 16\), got \(1, "):
            perturbed_sphere_initial(grid2d, 1.0, 0.1, [(1, 17 if mode > 0 else -17)])

    def test_mode_at_half_resolution_accepted(self, grid64):
        r0, _ = perturbed_sphere_initial(grid64, 1.0, 0.1, [-32])
        assert np.array_equal(r0.values, 1.0 + 0.1 * np.cos(np.pi * np.arange(64)))

    def test_2d_mode(self, grid2d):
        r0, p0 = perturbed_sphere_initial(grid2d, 1.0, 0.2, [(1, 1)])
        c1, c2 = grid2d.coords()
        expect = 1.0 + 0.2 * np.cos(2 * np.pi * (c1 + c2))
        assert np.abs(r0.values - expect).max() < 1e-13
        assert p0.d == 3


class TestTrigRandom:
    def test_reproducible(self, grid64):
        a, _ = trig_random_initial(grid64, seed=5, max_mode=3, amplitude=0.4)
        b, _ = trig_random_initial(grid64, seed=5, max_mode=3, amplitude=0.4)
        assert np.array_equal(a.values, b.values)

    def test_min_radius_guarantee(self, grid64):
        r0, _ = trig_random_initial(grid64, seed=9, max_mode=4, amplitude=0.6)
        assert r0.values.min() >= 0.4 - 1e-12

    def test_amplitude_bound(self, grid64):
        with pytest.raises(ValueError, match="amplitude"):
            trig_random_initial(grid64, seed=1, max_mode=2, amplitude=1.0)

    # a fractional seed or max_mode was truncated, inf overflowed int(), and
    # max_mode = 1e6 looped over a million modes per axis
    @pytest.mark.parametrize(
        "seed, max_mode, message",
        [
            (1.5, 3, "seed must be an integer"),
            (np.nan, 3, "seed must be an integer"),
            (-1, 3, "seed must be >= 0"),
            (1, 2.5, "max_mode must be an integer"),
            (1, np.inf, "max_mode must be an integer"),
            (1, 1e6, r"max_mode must lie in \[1, min\(N\)/2 = 32\]"),
            (1, 33, r"max_mode must lie in \[1, min\(N\)/2 = 32\]"),
            (1, 0, r"max_mode must lie in \[1, min\(N\)/2 = 32\]"),
        ],
    )
    def test_seed_and_max_mode_checked(self, grid64, seed, max_mode, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            trig_random_initial(grid64, seed=seed, max_mode=max_mode, amplitude=0.3)

    def test_max_mode_bound_is_the_smallest_axis(self):
        grid = make_grid(2, [1.0, 1.0], [32, 8])
        trig_random_initial(grid, seed=1, max_mode=4, amplitude=0.3)
        with pytest.raises(ValueError, match="max_mode must lie in"):
            trig_random_initial(grid, seed=1, max_mode=5, amplitude=0.3)


class TestSphereDirections:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_unit_norm(self, grid64, d):
        p = sphere_directions(grid64, d)
        norms = np.sqrt((p.vectors**2).sum(-1))
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_ambient_dimension_validated(self, grid64):
        with pytest.raises(ValueError):
            sphere_directions(grid64, 1)


class TestReconstructDecompose:
    def test_circle(self, grid64):
        r0, p0 = ellipse_initial(grid64, 1.0, 1.0)
        x = reconstruct(r0, p0)
        assert np.abs(np.sqrt((x**2).sum(-1)) - 1.0).max() < 1e-13

    def test_inverse_pair(self, grid64):
        r0, p0 = ellipse_initial(grid64, 2.0, 1.0)
        r1, p1 = decompose(grid64, reconstruct(r0, p0))
        assert np.abs(r1.values - r0.values).max() < 1e-14
        assert np.abs(p1.vectors - p0.vectors).max() < 1e-14

    def test_norm_identity(self, grid64):
        r0, p0 = trig_random_initial(grid64, seed=3, max_mode=3, amplitude=0.3)
        x = reconstruct(r0, p0)
        assert np.abs(np.sqrt((x**2).sum(-1)) - r0.values).max() < 1e-14

    def test_zero_norm_rejected(self, grid64):
        pts = np.zeros((64, 2))
        with pytest.raises(ValueError, match="zero-norm"):
            decompose(grid64, pts)

    def test_grid_mismatch(self, grid64):
        r0, p0 = ellipse_initial(grid64, 2.0, 1.0)
        other = make_grid(1, [1.0], [128])
        with pytest.raises(ValueError):
            decompose(other, reconstruct(r0, p0))


class TestMakeInitialDispatch:
    def test_ellipse(self, grid64):
        r0, _ = make_initial(grid64, "ellipse", [2.0, 1.0])
        assert r0.values[0] == pytest.approx(2.0)

    def test_perturbed_sphere(self, grid64):
        r0, _ = make_initial(grid64, "perturbed_sphere", [1.0, 0.3, 1])
        assert r0.values.min() == pytest.approx(0.7)

    def test_trig_random(self, grid64):
        r0, _ = make_initial(grid64, "trig_random", [7, 3, 0.5])
        assert r0.values.min() > 0

    def test_integer_valued_floats_accepted(self, grid64):
        # a config file hands every parameter over as a float
        a, _ = make_initial(grid64, "trig_random", [7.0, 3.0, 0.5])
        b, _ = make_initial(grid64, "trig_random", [7, 3, 0.5])
        assert np.array_equal(a.values, b.values)
        a, _ = make_initial(grid64, "perturbed_sphere", [1.0, 0.3, 2.0])
        b, _ = perturbed_sphere_initial(grid64, 1.0, 0.3, [2])
        assert np.array_equal(a.values, b.values)

    def test_unknown_preset(self, grid64):
        with pytest.raises(ValueError, match="unknown initial preset"):
            make_initial(grid64, "dodecahedron", [])

    def test_bad_arity(self, grid64):
        with pytest.raises(ValueError):
            make_initial(grid64, "ellipse", [2.0])

    @pytest.mark.parametrize("d", [1, 3, 4])
    def test_ellipse_rejects_non_planar_d(self, grid64, d):
        # the ellipse used to ignore d and return 2-vectors
        with pytest.raises(ValueError, match="d must be 2"):
            make_initial(grid64, "ellipse", [2.0, 1.0], d=d)

    def test_ellipse_accepts_planar_d(self, grid64):
        _, p0 = make_initial(grid64, "ellipse", [2.0, 1.0], d=2)
        assert p0.d == 2

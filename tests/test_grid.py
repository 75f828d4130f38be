import numpy as np
import pytest

from polarflow import make_field, make_grid, mean
from polarflow.spectral import _irfft, _rfft
from conftest import smooth_field


class TestMakeGrid:
    def test_1d(self):
        g = make_grid(1, [1.0], [64])
        assert g.m == 1 and g.num_nodes == 64
        assert np.allclose(g.axis_coords(0), np.arange(64) / 64)

    def test_2d_node_count(self):
        g = make_grid(2, [1.0, 1.0], [32, 32])
        assert g.num_nodes == 1024

    def test_odd_resolution_rejected(self):
        with pytest.raises(ValueError, match="odd or too small"):
            make_grid(1, [1.0], [7])

    def test_small_resolution_rejected(self):
        with pytest.raises(ValueError):
            make_grid(1, [1.0], [4])

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            make_grid(1, [1.0], [12])

    # 64.7 made a 64-node grid; NaN failed in int() with a message naming no parameter
    @pytest.mark.parametrize("n", [64.7, float("nan"), float("inf")], ids=["fraction", "nan", "inf"])
    def test_resolution_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match=f"^resolution must be an integer, got {n!r}$"):
            make_grid(1, [1.0], [n])
        with pytest.raises(ValueError, match="^resolution must be an integer"):
            make_grid(2, [1.0, 1.0], [16, n])

    def test_integer_valued_resolution_accepted(self):
        assert make_grid(2, [1.0, 1.0], [16.0, np.int64(8)]).resolution == (16, 8)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            make_grid(2, [1.0], [16, 16])

    def test_non_positive_length(self):
        with pytest.raises(ValueError, match="non-positive"):
            make_grid(1, [0.0], [16])

    # inf and nan were reported as "non-positive axis length"
    @pytest.mark.parametrize("length", [float("inf"), float("nan"), -float("inf")])
    def test_non_finite_length(self, length):
        with pytest.raises(ValueError, match=f"^non-finite axis length {length!r}$"):
            make_grid(1, [length], [16])

    def test_wavenumbers(self):
        g = make_grid(1, [2.0], [16])
        k = g.wavenumbers(0)
        assert k[0] == 0.0
        assert np.isclose(k[1], 2 * np.pi / 2.0)
        assert np.isclose(k[-1], -2 * np.pi / 2.0)


class TestFieldValidation:
    def test_nan_rejected(self, grid64):
        bad = np.ones(64)
        bad[3] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            make_field(grid64, bad)

    def test_shape_mismatch(self, grid64):
        with pytest.raises(ValueError, match="shape"):
            make_field(grid64, np.ones(32))

    def test_values_read_only(self, grid64):
        f = make_field(grid64, np.ones(64))
        with pytest.raises(ValueError):
            f.values[0] = 2.0


class TestTransforms:
    """The package's one transform pair, ``_rfft``/``_irfft``, on real fields.

    Amplitudes are the half-lattice spectrum over the node count, as
    ``mode_decay_report`` reads them.
    """

    @staticmethod
    def amplitudes(f):
        return _rfft(f.grid, f.values) / f.grid.num_nodes

    def test_constant_field(self, grid64):
        amps = self.amplitudes(make_field(grid64, np.full(64, 3.0)))
        assert np.isclose(amps[0], 3.0)
        assert np.abs(amps[1:]).max() < 1e-15

    def test_single_harmonic(self, grid64):
        theta = grid64.axis_coords(0)
        amps = self.amplitudes(make_field(grid64, np.cos(2 * np.pi * theta)))
        assert abs(amps[1] - 0.5) < 1e-12  # the -1 partner is its conjugate
        rest = np.abs(amps).copy()
        rest[1] = 0.0
        assert rest.max() < 1e-12

    def test_round_trip_random(self, grid64):
        f = smooth_field(grid64, seed=5)
        back = _irfft(grid64, _rfft(grid64, f.values))
        scale = np.abs(f.values).max()
        assert np.abs(back - f.values).max() < 1e-12 * scale

    def test_round_trip_2d(self, grid2d):
        f = smooth_field(grid2d, seed=6, n_modes=5)
        back = _irfft(grid2d, _rfft(grid2d, f.values))
        assert np.abs(back - f.values).max() < 1e-12

    def test_parseval(self, grid64):
        f = smooth_field(grid64, seed=7, offset=0.3)
        amps = self.amplitudes(f)
        weights = np.full(amps.shape, 2.0)  # each column but 0 and N/2 stands for a +/- pair
        weights[0] = weights[-1] = 1.0
        lhs = float((weights * np.abs(amps) ** 2).sum())
        rhs = float((f.values**2).mean())
        assert abs(lhs - rhs) < 1e-12 * max(1.0, rhs)

    def test_linearity(self, grid64):
        f = smooth_field(grid64, seed=8)
        g = smooth_field(grid64, seed=9)
        a, b = 2.5, -0.7
        combo = self.amplitudes(make_field(grid64, a * f.values + b * g.values))
        direct = a * self.amplitudes(f) + b * self.amplitudes(g)
        assert np.abs(combo - direct).max() < 1e-12

    def test_mean_equals_zero_mode(self, grid64):
        f = smooth_field(grid64, seed=10, offset=1.7)
        assert abs(mean(f) - self.amplitudes(f)[0].real) < 1e-14


class TestMean:
    def test_constant(self, grid64):
        assert mean(make_field(grid64, np.full(64, 5.0))) == 5.0

    def test_zero_mean_harmonic(self, grid64):
        theta = grid64.axis_coords(0)
        assert abs(mean(make_field(grid64, np.cos(2 * np.pi * theta)))) < 1e-14

    def test_ellipse_mean_vs_quadrature_oracle(self, grid128):
        # oracle: composite Gauss-Legendre quadrature of the closed-form radius
        a, b = 2.0, 1.0
        nodes, weights = np.polynomial.legendre.leggauss(32)
        total = 0.0
        for lo in np.linspace(0.0, 1.0, 65)[:-1]:
            x = lo + (nodes + 1.0) / 2.0 * (1.0 / 64.0)
            ang = 2 * np.pi * x
            total += (1.0 / 128.0) * weights @ np.sqrt(
                a**2 * np.cos(ang) ** 2 + b**2 * np.sin(ang) ** 2
            )
        theta = grid128.axis_coords(0)
        r0 = make_field(
            grid128,
            np.sqrt(a**2 * np.cos(2 * np.pi * theta) ** 2 + b**2 * np.sin(2 * np.pi * theta) ** 2),
        )
        assert abs(mean(r0) - total) < 1e-12

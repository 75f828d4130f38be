"""Circulant convolution checks: the dispatcher against the direct index-matrix product."""

import numpy as np
import pytest

from polarflow import _kernels as K


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(77)


class TestCirculant:
    def test_matches_numpy_path_1d(self, rng):
        row = rng.normal(size=64)
        arr = rng.normal(size=(64, 3))
        out_np = K._circulant_np(row, arr)
        out_disp = K.circulant_apply(row, arr, axis=0)
        assert np.abs(out_np - out_disp).max() < 1e-12

    def test_axis_argument(self, rng):
        row = rng.normal(size=32)
        arr = rng.normal(size=(5, 32))
        moved = K.circulant_apply(row, arr, axis=1)
        direct = np.stack([K._circulant_np(row, arr[i, :, None])[:, 0] for i in range(5)])
        assert np.abs(moved - direct).max() < 1e-12

    def test_identity_row(self, rng):
        row = np.zeros(16)
        row[0] = 1.0
        arr = rng.normal(size=(16, 2))
        assert np.abs(K.circulant_apply(row, arr) - arr).max() < 1e-15

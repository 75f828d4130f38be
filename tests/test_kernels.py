"""Kernel checks: jitted paths against numpy fallbacks, the NUFFT against the direct sum."""

import os
import subprocess
import sys

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


class TestCubicGather:
    def test_reproduces_cubic_exactly(self, rng):
        # 4-point Lagrange is exact on cubics (periodic wrap avoided)
        n = 64
        x = np.arange(n) / n
        vals = ((x - 0.3) ** 3) - 2 * (x - 0.3)
        pts = rng.uniform(10.0, 50.0, size=40)  # interior, in grid units
        out = K.cubic_gather(vals, [pts])
        xq = pts / n
        expect = ((xq - 0.3) ** 3) - 2 * (xq - 0.3)
        assert np.abs(out - expect).max() < 1e-13

    def test_on_node_identity(self, rng):
        vals = rng.normal(size=32)
        out = K.cubic_gather(vals, [np.arange(32, dtype=float)])
        assert np.abs(out - vals).max() < 1e-13

    def test_jit_matches_numpy_1d(self, rng):
        vals = rng.normal(size=64)
        pts = rng.uniform(0, 64, size=100)
        assert (
            np.abs(K._cubic_gather_1d_np(vals, pts) - K.cubic_gather(vals, [pts])).max()
            < 1e-13
        )

    def test_jit_matches_numpy_2d(self, rng):
        vals = rng.normal(size=(32, 16))
        p1 = rng.uniform(0, 32, size=100)
        p2 = rng.uniform(0, 16, size=100)
        assert (
            np.abs(
                K._cubic_gather_2d_np(vals, p1, p2) - K.cubic_gather(vals, [p1, p2])
            ).max()
            < 1e-13
        )

    def test_nd_fallback_matches_2d(self, rng):
        vals = rng.normal(size=(16, 16))
        p1 = rng.uniform(0, 16, size=50)
        p2 = rng.uniform(0, 16, size=50)
        a = K._cubic_gather_nd(vals, [p1, p2])
        b = K._cubic_gather_2d_np(vals, p1, p2)
        assert np.abs(a - b).max() < 1e-13

    def test_periodic_wrap(self):
        n = 16
        x = np.arange(n) / n
        vals = np.cos(2 * np.pi * x)
        out = K.cubic_gather(vals, [np.array([-0.5, n - 0.5])])
        assert out[0] == pytest.approx(out[1], abs=1e-13)


def direct_trig_sum(amps, kappas, pts):
    """Oracle: ``Re sum_k amps[k] exp(i kappa_k . x)`` summed directly, O(N^m) per point.

    ``amps`` may carry a trailing field axis, as ``trig_gather`` allows.
    """
    out = np.tensordot(np.exp(1j * np.outer(pts[0], kappas[0])), amps, axes=([1], [0]))
    for p, kap in zip(pts[1:], kappas[1:]):
        out = np.einsum("pk,pk...->p...", np.exp(1j * np.outer(p, kap)), out)
    return out.real


class TestTrigGather:
    def test_nufft_matches_direct_sum_1d(self, rng):
        vals = rng.normal(size=128)
        amps = np.fft.fft(vals) / 128
        kap = 2 * np.pi * np.fft.fftfreq(128, d=1 / 128)
        pts = rng.uniform(0, 1, size=200)
        a = K.trig_gather(amps, [kap], [pts])
        b = direct_trig_sum(amps, [kap], [pts])
        assert np.abs(a - b).max() < 1e-11

    def test_nufft_matches_direct_sum_2d(self, rng):
        vals = rng.normal(size=(16, 16))
        amps = np.fft.fft2(vals) / 256
        kap = 2 * np.pi * np.fft.fftfreq(16, d=1 / 16)
        p1 = rng.uniform(0, 1, size=60)
        p2 = rng.uniform(0, 1, size=60)
        a = K.trig_gather(amps, [kap, kap], [p1, p2])
        b = direct_trig_sum(amps, [kap, kap], [p1, p2])
        assert np.abs(a - b).max() < 1e-11

    def test_band_limited_exactness(self):
        n = 64
        x = np.arange(n) / n
        vals = 1.0 + 0.3 * np.sin(2 * np.pi * x) + 0.1 * np.cos(8 * np.pi * x)
        amps = np.fft.fft(vals) / n
        kap = 2 * np.pi * np.fft.fftfreq(n, d=1 / n)
        pts = np.random.default_rng(1).uniform(0, 1, size=100)
        out = K.trig_gather(amps, [kap], [pts])
        expect = 1.0 + 0.3 * np.sin(2 * np.pi * pts) + 0.1 * np.cos(8 * np.pi * pts)
        assert np.abs(out - expect).max() < 1e-12

    def test_three_axes_match_direct_sum(self, rng):
        vals = rng.normal(size=(8, 8, 8))
        amps = np.fft.fftn(vals) / 512
        kap = 2 * np.pi * np.fft.fftfreq(8, d=1 / 8)
        pts = [rng.uniform(0, 1, size=60) for _ in range(3)]
        a = K.trig_gather(amps, [kap] * 3, pts)
        b = direct_trig_sum(amps, [kap] * 3, pts)
        assert np.abs(a - b).max() < 1e-11

    def test_stacked_fields_equal_per_field_calls(self, rng):
        vals = rng.normal(size=(16, 32, 3))
        amps = np.fft.fftn(vals, axes=(0, 1)) / 512
        kappas = [2 * np.pi * np.fft.fftfreq(n, d=1 / n) for n in (16, 32)]
        pts = [rng.uniform(-0.5, 1.5, size=70) for _ in range(2)]
        stacked = K.trig_gather(amps, kappas, pts)
        assert stacked.shape == (70, 3)
        for j in range(3):
            single = K.trig_gather(amps[..., j], kappas, pts)
            assert np.abs(stacked[:, j] - single).max() < 1e-14

    def test_cached_plans_do_not_leak_between_grids(self):
        # grids of different N and L, 1 and 2 axes, interleaved; N=128 and
        # N=64 each come with two lengths, so they share a cached plan
        cases = [((128,), (1.0,)), ((16, 32), (1.0, 0.5)), ((64,), (2.5,)),
                 ((128,), (3.0,)), ((32, 16), (2.0, 1.0)), ((64,), (0.7,))]
        first = {}
        for _ in range(2):
            for idx, (shape, lengths) in enumerate(cases):
                rng = np.random.default_rng(idx)
                m = len(shape)
                amps = np.fft.fftn(rng.normal(size=shape + (2,)), axes=tuple(range(m)))
                amps /= np.prod(shape)
                kappas = [2 * np.pi * np.fft.fftfreq(n, d=L / n) for n, L in zip(shape, lengths)]
                pts = [rng.uniform(-0.5 * L, 1.5 * L, size=50) for L in lengths]
                out = K.trig_gather(amps, kappas, pts)
                assert np.abs(out - direct_trig_sum(amps, kappas, pts)).max() < 1e-11
                if idx in first:
                    assert np.array_equal(out, first[idx])
                first[idx] = out

    def test_nyquist_mode_is_a_cosine(self, rng):
        # an even-N grid samples a cos(pi N x) as a (-1)^j: only the unpaired mode
        n, a = 32, 0.7
        amps = np.fft.fft(a * np.cos(np.pi * np.arange(n))) / n
        kap = 2 * np.pi * np.fft.fftfreq(n, d=1 / n)
        pts = rng.uniform(0, 1, size=100)
        out = K.trig_gather(amps, [kap], [pts])
        assert np.abs(out - a * np.cos(np.pi * n * pts)).max() < 1e-12


SCRIPT = """
import numpy as np
from polarflow._accel import USE_NUMBA
from polarflow import _kernels as K
assert USE_NUMBA is False, "env flag should force the numpy path"
rng = np.random.default_rng(7)
row = rng.normal(size=32)
arr = rng.normal(size=(32, 2))
out = K.circulant_apply(row, arr)
print(repr(float(out.sum())))
"""


class TestEnvFlagFallback:
    def test_disable_numba_env(self):
        env = dict(os.environ, POLARFLOW_DISABLE_NUMBA="1")
        proc = subprocess.run(
            [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        rng = np.random.default_rng(7)
        row = rng.normal(size=32)
        arr = rng.normal(size=(32, 2))
        expect = float(K.circulant_apply(row, arr).sum())
        assert float(proc.stdout.strip()) == pytest.approx(expect, rel=1e-13)

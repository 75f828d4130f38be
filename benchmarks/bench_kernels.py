"""Timing of the hot kernels against their reference implementations.

Runs each kernel through its dispatch path and through a reference on
identical inputs, checks they agree, and prints a table.  The cubic gathers
are compared with their pure numpy fallbacks; re-run with
POLARFLOW_DISABLE_NUMBA=1 to confirm the package works (slower) without
numba.  The circulant convolution has no jitted variant: it reduces to a
BLAS-sized matrix product where vectorized numpy beats a jitted loop (expect
speedup ~1x there).  The trigonometric gathers, a type-2 non-uniform FFT,
are compared with the direct Fourier sum defined below.

    python benchmarks/bench_kernels.py [--n 128] [--points 4096] [--repeat 50]
"""

import argparse
import time

import numpy as np

from polarflow import _kernels as K
from polarflow._accel import USE_NUMBA


def timeit(fn, repeat):
    fn()  # warm-up (includes jit compile on the numba path)
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def direct_trig_sum(amps, kappas, pts):
    """Reference: ``Re sum_k amps[k] exp(i kappa_k . x)`` summed directly, O(N^m) per point."""
    out = np.exp(1j * np.outer(pts[0], kappas[0])) @ amps
    for p, kap in zip(pts[1:], kappas[1:]):
        out = (out * np.exp(1j * np.outer(p, kap))).sum(axis=1)
    return out.real


def bench(n, points, repeat):
    rng = np.random.default_rng(0)
    row = rng.normal(size=n)
    arr2 = rng.normal(size=(n, n))
    vals1 = rng.normal(size=n)
    vals2 = rng.normal(size=(n, n))
    amps1 = np.fft.fft(vals1) / n
    amps2 = np.fft.fft2(vals2) / (n * n)
    kap = 2 * np.pi * np.fft.fftfreq(n, d=1.0 / n)
    pts = rng.uniform(0, 1, size=points)
    upts = rng.uniform(0, n, size=points)

    cases = [
        (
            "circulant_apply (axis of %dx%d)" % (n, n),
            lambda: K.circulant_apply(row, arr2, axis=0),
            lambda: K._circulant_np(row, arr2),
        ),
        (
            "cubic_gather 1d (%d pts)" % points,
            lambda: K.cubic_gather(vals1, [upts]),
            lambda: K._cubic_gather_1d_np(vals1, upts),
        ),
        (
            "cubic_gather 2d (%d pts)" % points,
            lambda: K.cubic_gather(vals2, [upts, upts]),
            lambda: K._cubic_gather_2d_np(vals2, upts, upts),
        ),
        (
            "trig_gather 1d (%d pts)" % points,
            lambda: K.trig_gather(amps1, [kap], [pts]),
            lambda: direct_trig_sum(amps1, [kap], [pts]),
        ),
        (
            "trig_gather 2d (%d pts)" % points,
            lambda: K.trig_gather(amps2, [kap, kap], [pts, pts]),
            lambda: direct_trig_sum(amps2, [kap, kap], [pts, pts]),
        ),
    ]

    label = "numba" if USE_NUMBA else "numpy (numba disabled)"
    print(f"dispatch path: {label}")
    print(f"{'kernel':<34} {'dispatch':>12} {'reference':>12} {'speedup':>9}")
    for name, fast, slow in cases:
        gap = np.abs(np.asarray(fast()) - np.asarray(slow())).max()
        assert gap < 1e-9, f"{name}: paths disagree by {gap:.3e}"
        t_fast = timeit(fast, repeat)
        t_slow = timeit(slow, repeat)
        print(f"{name:<34} {t_fast * 1e3:>10.3f}ms {t_slow * 1e3:>10.3f}ms {t_slow / t_fast:>8.1f}x")


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=128)
    ap.add_argument("--points", type=int, default=4096)
    ap.add_argument("--repeat", type=int, default=50)
    args = ap.parse_args()
    bench(args.n, args.points, args.repeat)

"""Timing of the hot kernels against their reference implementations.

Runs each kernel and a reference on identical inputs, checks they agree,
and prints a table.  The references are the oracles of the test suite:
``reference_sweep`` (``tests/test_duhamel.py``) for one batched Duhamel
sweep, ``reference_advance`` (``tests/test_spectral.py``) for one burgers
Strang step of the rfft-spectrum stepper (agreement checked on the midpoint
values both return), and ``reference_transport_step``
(``tests/test_transport.py``) for one integrating-factor RK4 transport step
through a varying radius, at N=128 and at 64^2.  The transforms
``_rfft``/``_irfft``, which call pocketfft's gufuncs directly, are timed on
``(1, 128)``, ``(1, 64, 64)`` and the transport's ``(3, 64, 64)`` (batch axes
first) against the same sequence of ``np.fft.rfft``/``fft``/``ifft``/``irfft``
calls on the trailing grid axes, and one 1-axis
``_carry`` (N=128, burgers, moving radius) against
``reference_real_carry`` (``tests/test_transport.py``), its arithmetic out
of place on ``rfftn``/``irfftn``; both must agree bitwise.  So must
``_shift_symbol`` at N=128 and 64^2 and ``reference_shift_symbol``
(``tests/test_spectral.py``), which splits off the Nyquist index with
``np.where`` on every call.
``heat_kernel_convolve`` at N is compared with
``reference_heat_convolve`` (``tests/test_duhamel.py``), the same kernel row
applied as a dense N x N circulant.  The base of one
Duhamel window (the heat flow of the initial field to its 32 mesh times) is
timed as the one batch ``picard_solve`` builds against 32 single
``heat_kernel_convolve`` calls.  A modulated ``solve_cell`` at
N=64 runs its Newton iteration once on the real-FFT operator and once on the
complex full-lattice operator defined below; both must reach the same
stationary state.  The trajectory, diagnostics and SVG writers of
``polarflow evolve`` are timed on a 1001-record N=128 ellipse run against
the per-cell ``reference_*`` writers of ``tests/test_cli.py``; both must
write identical bytes.  The writers overwrite their files on every repeat,
which is cheaper than creating them.  All the writers of that run with its SVG frames
(``_write_evolve``) are timed through the fork pool against in-process (as on
one core); every repeat writes into a fresh directory, since creating the
1001 frame files is much of the cost, and both must write identical bytes.
The ``verify`` contraction pair (two N=128 burgers runs of 5000 steps) is
timed stepped as one two-member batch against two ``evolve`` runs; every
member must match its own run bitwise.  Last,
``run_suite("all")``, which spreads the ``verify`` suites over forked
workers when two or more cores are usable, is timed against the sum of the
suites run one after another in this process, after checking that both give
the same rows; the per-suite times, the worker count and ``nproc`` are
printed with it.  Both pooled rows start ``polarflow._pool.usable_workers()``
workers at most.

    python benchmarks/bench_kernels.py [--n 128] [--repeat 50]
"""

import argparse
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

from polarflow import (
    Modulation,
    SolveConfig,
    burgers_flux,
    evolve,
    evolve_coupled,
    heat_kernel_convolve,
    make_field,
    make_grid,
    make_initial,
    solve_cell,
    sphere_directions,
    transport_step,
    with_modulation,
)
from polarflow import cell
from polarflow._pool import usable_workers
from polarflow.cli import _write_diagnostics, _write_evolve, _write_svg_frames, _write_trajectory
from polarflow.duhamel import _N_GAUSS, _N_TIME, _heat_flow, _Window
from polarflow.flux import eval_g, eval_g_prime
from polarflow import transport
from polarflow.spectral import _irfft, _march, _rfft, _shift_symbol, _Stepper
from polarflow.verify import SUITES, run_suite

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conftest import full_lattice  # noqa: E402
from test_cli import (  # noqa: E402
    read_artifacts,
    reference_write_diagnostics,
    reference_write_svg_frames,
    reference_write_trajectory,
)
from test_duhamel import reference_heat_convolve, reference_sweep  # noqa: E402
from test_spectral import reference_advance, reference_shift_symbol  # noqa: E402
from test_transport import radius_samples, reference_real_carry, reference_transport_step  # noqa: E402


def timeit(fn, repeat):
    fn()  # warm-up
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class ReferenceCellOperator(cell._CellOperator):
    """Reference: the stationary operator on complex full-lattice FFTs."""

    def __init__(self, grid, spec):
        super().__init__(grid, spec)
        kappas, lap = full_lattice(grid)
        self.lap_full = lap
        self.lap_full_inv = np.divide(1.0, lap, out=np.zeros_like(lap), where=lap > 0.0)
        self.ik = [1j * k for k in kappas]

    def _divergence_hat(self, fluxes):
        out = 0.0
        for ik, mod, fi in zip(self.ik, self.mods, fluxes):
            fi = fi if mod is None else fi * mod
            out = out + ik * np.fft.fftn(fi)
        return out

    def residual(self, v):
        fluxes = [eval_g(self.spec, i, v) for i in range(self.spec.m)]
        return np.fft.ifftn(np.fft.fftn(v) * self.lap_full + self._divergence_hat(fluxes)).real

    def jacobian_flux_part(self, v, delta):
        fluxes = [eval_g_prime(self.spec, i, v) * delta for i in range(self.spec.m)]
        return np.fft.ifftn(self._divergence_hat(fluxes)).real

    def precondition(self, rhs):
        return np.fft.ifftn(np.fft.fftn(rhs) * self.lap_full_inv).real


def solve_cell_on(operator, spec, grid, p):
    """``solve_cell`` with its operator class swapped for ``operator``; returns the state."""
    saved = cell._CellOperator
    cell._CellOperator = operator
    try:
        return solve_cell(spec, grid, p).v.values
    finally:
        cell._CellOperator = saved


def transport_case(shape, label):
    """One burgers transport step through a varying radius: (name, package, reference)."""
    m = len(shape)
    grid = make_grid(m, [1.0] * m, shape)
    r = make_field(grid, 1.5 + 0.4 * np.sin(2 * np.pi * grid.coords()[0]))
    p = sphere_directions(grid, m + 1)
    spec = burgers_flux(m)
    return (
        "transport_step %s burgers" % label,
        lambda: transport_step(p, r, spec, 1e-3).vectors,
        lambda: reference_transport_step(grid, p.vectors, [r.values] * 3, spec, 1e-3)[0],
    )


def numpy_rfft(grid, vals):
    """Reference: the per-axis ``np.fft`` calls, ``rfft`` on the last axis, then ``fft``."""
    hat = np.fft.rfft(vals, axis=-1)
    for axis in range(-2, -grid.m - 1, -1):
        hat = np.fft.fft(hat, axis=axis)
    return hat


def numpy_irfft(grid, hat):
    """Reference: ``np.fft.ifft`` on the other grid axes, then ``irfft`` on the last."""
    for axis in range(-grid.m, -1):
        hat = np.fft.ifft(hat, axis=axis)
    return np.fft.irfft(hat, grid.resolution[-1], axis=-1)


def bitwise_cases(repeat):
    """Transforms and one 1-axis ``_carry`` against their ``np.fft`` references: equal bitwise."""
    cases = []
    for batch, shape in ((1, [128]), (1, [64, 64]), (3, [64, 64])):
        m = len(shape)
        grid = make_grid(m, [1.0] * m, shape)
        vals = np.random.default_rng(1).normal(size=(batch, *shape))
        hat = _rfft(grid, vals)
        label = "(%s)" % ", ".join(map(str, vals.shape))
        cases.append(("_rfft %s" % label, lambda g=grid, v=vals: _rfft(g, v),
                      lambda g=grid, v=vals: numpy_rfft(g, v)))
        cases.append(("_irfft %s" % label, lambda g=grid, h=hat: _irfft(g, h),
                      lambda g=grid, h=hat: numpy_irfft(g, h)))
    for shape in ([128], [64, 64]):
        m = len(shape)
        grid = make_grid(m, [1.0] * m, shape)
        speeds = [np.float64(0.7)] * m  # a centre speed, as transport passes it
        label = "x".join(map(str, shape))
        cases.append(("_shift_symbol %s" % label, lambda g=grid, c=speeds: _shift_symbol(g, c, 1e-3),
                      lambda g=grid, c=speeds: reference_shift_symbol(g, c, 1e-3)))
    grid = make_grid(1, [1.0], [128])
    spec, dt = burgers_flux(1), 1e-3
    speeds = [transport._speeds(spec, [None], radius_samples(grid, t)) for t in (0.0, dt / 2, dt)]
    p = sphere_directions(grid, 2).vectors
    cases.append(("_carry N=128 burgers", lambda: transport._carry(p, grid, speeds, dt),
                  lambda: reference_real_carry(p, grid, speeds, dt)))
    for name, fast, slow in cases:
        got, want = fast(), slow()
        assert got.dtype == want.dtype and got.shape == want.shape, f"{name}: layouts differ"
        assert got.tobytes() == want.tobytes(), f"{name}: not bitwise equal"
        t_fast, t_slow = timeit(fast, repeat), timeit(slow, repeat)
        print(f"{name:<34} {t_fast * 1e3:>10.4f}ms {t_slow * 1e3:>10.4f}ms {t_slow / t_fast:>8.1f}x")


def bench(n, repeat):
    rng = np.random.default_rng(0)
    # one Duhamel window as picard_solve builds it (_N_TIME targets, _N_GAUSS nodes)
    grid = make_grid(1, [1.0], [n])
    r0 = make_field(grid, 1.0 + 0.2 * np.sin(2 * np.pi * grid.axis_coords(0)))
    window = _Window(grid, burgers_flux(1), 1e-3, _N_TIME, _N_GAUSS)
    base = np.stack([r0.values] * _N_TIME)
    iterate = base + 0.01 * rng.normal(size=base.shape)
    stepper = _Stepper(grid, burgers_flux(1), 1e-4)
    hat0 = _rfft(grid, r0.values[None])  # a batch of one member
    cell_grid = make_grid(1, [1.0], [64])
    cell_spec = with_modulation(burgers_flux(1), 0, Modulation(const=0.0, sin_amps=(0.8,)))

    cases = [
        (
            "heat_kernel_convolve N=%d" % n,
            lambda: heat_kernel_convolve(r0, 1e-3).values,
            lambda: reference_heat_convolve(r0, 1e-3),
        ),
        (
            "window base N=%d (32 times)" % n,
            lambda: _heat_flow(grid, r0.values, window.mesh[1:]),
            lambda: [heat_kernel_convolve(r0, t).values for t in window.mesh[1:]],
        ),
        (
            "duhamel sweep N=%d (%dx%d nodes)" % (n, _N_TIME, _N_GAUSS),
            lambda: window.sweep(base, iterate),
            lambda: reference_sweep(window, base, iterate, _N_GAUSS),
        ),
        (
            "strang step N=%d burgers" % n,
            lambda: stepper.advance(hat0)[1][0],
            lambda: reference_advance(grid, burgers_flux(1), 1e-4, r0.values)[1],
        ),
        transport_case([n], "N=%d" % n),
        transport_case([64, 64], "64^2"),
        (
            "solve_cell modulated N=64",
            lambda: solve_cell_on(cell._CellOperator, cell_spec, cell_grid, 1.0),
            lambda: solve_cell_on(ReferenceCellOperator, cell_spec, cell_grid, 1.0),
        ),
    ]

    print(f"{'kernel':<34} {'package':>12} {'reference':>12} {'speedup':>9}")
    for name, fast, slow in cases:
        gap = np.abs(np.asarray(fast()) - np.asarray(slow())).max()
        assert gap < 1e-9, f"{name}: paths disagree by {gap:.3e}"
        t_fast = timeit(fast, repeat)
        # the sweep reference takes ~0.3 s a call, so it gets fewer repeats
        t_slow = timeit(slow, min(repeat, 5) if name.startswith("duhamel") else repeat)
        print(f"{name:<34} {t_fast * 1e3:>10.3f}ms {t_slow * 1e3:>10.3f}ms {t_slow / t_fast:>8.1f}x")
    bitwise_cases(repeat)

    # the verify contraction pair: one two-member batch vs two single runs
    spec = burgers_flux(1)
    cfg = SolveConfig(dt=1e-4, t_end=0.5, record_every=250)
    wave = 0.1 * np.sin(2 * np.pi * grid.axis_coords(0))
    pair = [make_field(grid, 1.0 + wave), make_field(grid, 1.0 - wave)]
    alone = [evolve(r, spec, cfg) for r in pair]
    for batched, alone in zip(_march(pair, spec, cfg), alone):
        for column in ("times", "mean", "sup", "min", "l1", "sphere_dev", "radii"):
            got, want = getattr(batched, column), getattr(alone, column)
            assert np.array_equal(got, want), f"contraction pair: a member's {column} differ"
        assert batched.flags == alone.flags
    t_fast = timeit(lambda: _march(pair, spec, cfg), min(repeat, 3))
    t_slow = timeit(lambda: [evolve(r, spec, cfg) for r in pair], min(repeat, 3))
    name = "contraction pair N=%d (2x5000)" % n
    print(f"{name:<34} {t_fast * 1e3:>10.3f}ms {t_slow * 1e3:>10.3f}ms {t_slow / t_fast:>8.1f}x")

    # the curve workload's writers: 1000 coupled steps, every one recorded
    grid = make_grid(1, [1.0], [128])
    r0, p0 = make_initial(grid, "ellipse", [2.0, 1.0])
    traj = evolve_coupled(r0, p0, burgers_flux(1), SolveConfig(dt=5e-4, t_end=0.5))
    cfg = {"grid.resolution": "128"}
    writers = [
        ("write trajectory.csv (1001x128)", _write_trajectory, reference_write_trajectory),
        ("write diagnostics.csv (1001x128)", _write_diagnostics, reference_write_diagnostics),
        ("write svg frames (1001x128)", _write_svg_frames, reference_write_svg_frames),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for name, fast, slow in writers:
            new, ref = Path(tmp, name, "new"), Path(tmp, name, "ref")
            new.mkdir(parents=True)
            ref.mkdir(parents=True)
            fast(new, traj, cfg)
            slow(ref, traj, cfg)
            assert read_artifacts(new) == read_artifacts(ref), f"{name}: bytes differ"
            t_fast = timeit(lambda: fast(new, traj, cfg), min(repeat, 3))
            t_slow = timeit(lambda: slow(ref, traj, cfg), min(repeat, 3))
            print(f"{name:<34} {t_fast * 1e3:>10.3f}ms {t_slow * 1e3:>10.3f}ms {t_slow / t_fast:>8.1f}x")
    evolve_writers_row(traj, cfg, min(repeat, 5))


def fresh_write_s(traj, cfg, root, repeat):
    """Best time of ``_write_evolve`` with frames, each repeat into a new directory."""
    best = np.inf
    for _ in range(repeat + 1):  # the first is a warm-up
        out = Path(tempfile.mkdtemp(dir=root))
        t0 = time.perf_counter()
        _write_evolve(out, traj, cfg, svg=True)
        best = min(best, time.perf_counter() - t0)
        artifacts = read_artifacts(out)
        shutil.rmtree(out)
    return best, artifacts


def evolve_writers_row(traj, cfg, repeat):
    """Every ``evolve`` writer of one run with frames: pooled against in-process."""
    with tempfile.TemporaryDirectory() as tmp:
        t_pool, pooled = fresh_write_s(traj, cfg, tmp, repeat)
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True):
            t_here, here = fresh_write_s(traj, cfg, tmp, repeat)
    assert pooled == here, "evolve writers: pooled and in-process bytes differ"
    workers = usable_workers()
    name = "evolve writers (%s)" % ("%d workers" % workers if workers else "in-process")
    print(f"{name:<34} {t_pool * 1e3:>10.3f}ms {t_here * 1e3:>10.3f}ms {t_here / t_pool:>8.1f}x")


def verify_row(repeat):
    """``run_suite("all")`` against its suites run one after another here."""
    in_process = [r for fn in SUITES.values() for r in fn()]
    assert run_suite("all") == in_process, "verify all: pooled rows differ"
    suite_s = {name: timeit(fn, repeat) for name, fn in SUITES.items()}
    t_pool = timeit(lambda: run_suite("all"), repeat)
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(usable_workers(), len(SUITES))
    t_sum = sum(suite_s.values())
    name = "verify all (%s, nproc %d)" % ("%d workers" % workers if workers else "in-process", nproc)
    print(f"{name:<34} {t_pool * 1e3:>10.3f}ms {t_sum * 1e3:>10.3f}ms {t_sum / t_pool:>8.1f}x")
    print("  suites in-process: " + ", ".join(f"{n} {t * 1e3:.0f}ms" for n, t in suite_s.items()))


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=128)
    ap.add_argument("--repeat", type=int, default=50)
    args = ap.parse_args()
    bench(args.n, args.repeat)
    verify_row(min(args.repeat, 3))

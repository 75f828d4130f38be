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
calls on the trailing grid axes, one N=128 burgers and one constant-flux
step of a one-member ``_Stepper`` (built at the state's shape, as
``_march`` builds it) against ``reference_real_advance``
(``tests/test_spectral.py``), and a 1-axis ``_carry`` (N=128, burgers,
moving radius, one substep) and a 64^2 one (a modulated flux at the CFL
bound, two substeps, so stage speeds are interpolated at 1/4 and 3/4 and
taken as they are at 0, 1/2 and 1), each on three stages that
``transport._stage`` builds, against ``reference_real_carry``
(``tests/test_transport.py``), which takes the stages' bare speeds and
interpolates at every stage; the references do their arithmetic out of
place on ``rfftn``/``irfftn``, and each pair must agree bitwise.
``tests/test_benchmarks.py`` runs these bitwise cases.  So must
``_shift_symbol`` at N=128 and 64^2 and ``reference_shift_symbol``
(``tests/test_spectral.py``), which splits off the Nyquist index with
``np.where`` on every call.
The time loop is timed per step: the N=128 constant-flux step, and whole
coupled ``evolve_coupled`` runs (N=128 burgers, one substep; N=128 constant
flux, shift only; 64^2 modulated, two substeps) divided by their step count.
``heat_kernel_convolve`` at N is compared with
``reference_heat_convolve`` (``tests/test_duhamel.py``), the same kernel row
applied as a dense N x N circulant.  The base of one
Duhamel window (the heat flow of the initial field to its 32 mesh times) is
timed as the one batch ``picard_solve`` builds against 32 single
``heat_kernel_convolve`` calls.  The finite-difference reference of ``verify
cell``, ``fd_cell_solve`` (``polarflow._fdcell``: ``np.roll`` stencils and a
banded elimination of the bordered Newton system, no BLAS), runs a modulated
burgers problem at N=512 against ``reference_fd_cell_solve`` (``tests/test_cell.py``),
which takes each Newton step from dense stencil matrices and a dense bordered
``np.linalg.solve``; the two must agree below 1e-12.  The trajectory,
diagnostics and SVG writers of ``polarflow evolve`` are timed on a
1001-record N=128 ellipse run against the per-cell ``reference_*`` writers
of ``tests/test_cli.py``, whose SVG oracle rounds each point on its own;
both must write identical bytes.  The writers overwrite their files on
every repeat, which is cheaper than creating them.  All the writers of that
run with its SVG frames (``_write_evolve``) are timed into a fresh directory
whose 1001 frame files ``_create_frames`` made first, as the forked frame
creator of ``polarflow evolve`` makes them during the time loop, against a
fresh empty directory; both must write identical bytes.
The ``verify`` contraction pair (two N=128 burgers runs of 5000 steps) is
timed stepped as one two-member batch against two ``evolve`` runs; every
member must match its own run bitwise.  Last,
``run_suite("all")``, which spreads the ``verify`` suites over forked
workers when two or more cores are usable, is timed against the sum of the
suites run one after another in this process, after checking that both give
the same rows; the per-suite times, the worker count and ``nproc`` are
printed with it.  The pool forks one child per suite, at most
``polarflow._pool.usable_workers()`` at a time.

    python benchmarks/bench_kernels.py [--n 128] [--repeat 50]
"""

import argparse
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from polarflow import (
    Modulation,
    SolveConfig,
    burgers_flux,
    constant_flux,
    evolve,
    evolve_coupled,
    heat_kernel_convolve,
    make_field,
    make_grid,
    make_initial,
    max_stable_dt,
    sphere_directions,
    transport_step,
    with_modulation,
)
from polarflow._fdcell import fd_cell_solve
from polarflow._pool import usable_workers
from polarflow.cli import _create_frames, _write_diagnostics, _write_evolve, _write_svg_frames, _write_trajectory
from polarflow.duhamel import _N_GAUSS, _N_TIME, _heat_flow, _Window
from polarflow import transport
from polarflow.spectral import _irfft, _march, _rfft, _shift_symbol, _Stepper
from polarflow.verify import SUITES, run_suite

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_cell import reference_fd_cell_solve  # noqa: E402
from test_cli import (  # noqa: E402
    read_artifacts,
    reference_write_diagnostics,
    reference_write_svg_frames,
    reference_write_trajectory,
)
from test_duhamel import reference_heat_convolve, reference_sweep  # noqa: E402
from test_spectral import reference_advance, reference_real_advance, reference_shift_symbol  # noqa: E402
from test_transport import (  # noqa: E402
    modulated_flux,
    radius_samples,
    reference_real_carry,
    reference_transport_step,
)


def timeit(fn, repeat):
    fn()  # warm-up
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def transport_case(shape, label):
    """One burgers transport step through a varying radius: (name, package, reference)."""
    m = len(shape)
    grid = make_grid(m, [1.0] * m, shape)
    r = make_field(grid, 1.5 + 0.4 * np.sin(2 * np.pi * grid.coords()[0]))
    p = sphere_directions(grid)
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
    """Transforms, a Strang step and a 1-axis ``_carry`` against their references: equal bitwise."""
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
    stepper = _Stepper(grid, spec, 1e-4, (1,))
    hat = _rfft(grid, radius_samples(grid, 0.0)[None])
    cases.append(("_Stepper.advance N=128 burgers", lambda: stepper.advance(hat)[0],
                  lambda: reference_real_advance(grid, spec, 1e-4, hat)[0]))
    constant = _Stepper(grid, constant_flux([0.7]), 1e-4, (1,))
    cases.append(("_Stepper.advance N=128 constant", lambda: constant.advance(hat)[0],
                  lambda: reference_real_advance(grid, constant_flux([0.7]), 1e-4, hat)[0]))
    stages = [transport._stage(spec, grid, radius_samples(grid, t)) for t in (0.0, dt / 2, dt)]
    speeds = [s for s, _ in stages]
    p = sphere_directions(grid).vectors
    cases.append(("_carry N=128 burgers", lambda: transport._carry(p, grid, stages, dt),
                  lambda: reference_real_carry(p, grid, speeds, dt)))
    # two substeps: stage speeds at tau = 1/4 and 3/4 interpolated, at 0, 1/2 and 1 taken as they are
    grid2 = make_grid(2, [1.0, 1.0], [64, 64])
    spec2 = modulated_flux(2, [60.0, 0.5])
    dt2 = max_stable_dt(grid2, spec2, 1.3)
    stages2 = [transport._stage(spec2, grid2, radius_samples(grid2, t)) for t in (0.0, dt2 / 2, dt2)]
    speeds2 = [s for s, _ in stages2]
    p2 = sphere_directions(grid2).vectors
    cases.append(("_carry 64^2 modulated, 2 substeps", lambda: transport._carry(p2, grid2, stages2, dt2),
                  lambda: reference_real_carry(p2, grid2, speeds2, dt2)))
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
    stepper = _Stepper(grid, burgers_flux(1), 1e-4, (1,))  # a batch of one member, as in _march
    hat0 = _rfft(grid, r0.values[None])
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
    step_rows(repeat)
    fd_cell_row(cell_spec, repeat)

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


def step_rows(repeat):
    """Per-step cost of the time loop: the constant-flux step, and coupled runs divided by their steps."""
    grid = make_grid(1, [1.0], [128])
    stepper = _Stepper(grid, constant_flux([0.7]), 1e-4, (1,))
    hat = _rfft(grid, radius_samples(grid, 0.0)[None])
    rows = [("constant step N=128", 1, lambda: stepper.advance(hat))]
    r0, p0 = make_initial(grid, "ellipse", [2.0, 1.0])
    cfg = SolveConfig(dt=5e-4, t_end=0.025)
    for name, spec in (("burgers, 1 substep", burgers_flux(1)), ("constant, shift only", constant_flux([0.7]))):
        rows.append(("coupled step N=128 %s" % name, 50, lambda s=spec: evolve_coupled(r0, p0, s, cfg)))
    grid2 = make_grid(2, [1.0, 1.0], [64, 64])
    spec2 = modulated_flux(2, [60.0, 0.5])
    r2, p2 = make_initial(grid2, "perturbed_sphere", [1.0, 0.3, 1, 1])
    dt2 = max_stable_dt(grid2, spec2, float(r2.values.max()))
    cfg2 = SolveConfig(dt=dt2, t_end=10 * dt2)
    rows.append(("coupled step 64^2 modulated, 2 substeps", 10, lambda: evolve_coupled(r2, p2, spec2, cfg2)))
    print(f"{'step':<40} {'per step':>12}")
    for name, steps, run in rows:
        print(f"{name:<40} {timeit(run, repeat) / steps * 1e6:>10.2f}us")


def fd_cell_row(spec, repeat):
    """``fd_cell_solve`` at N=512 against the dense bordered route; they agree below 1e-12."""
    fast = lambda: fd_cell_solve(spec, 512, 1.0, 1.0)  # noqa: E731
    slow = lambda: reference_fd_cell_solve(spec, 512, 1.0, 1.0)  # noqa: E731
    gap = np.abs(fast() - slow()).max()
    assert gap < 1e-12, f"fd_cell_solve: routes disagree by {gap:.3e}"
    t_fast, t_slow = timeit(fast, repeat), timeit(slow, repeat)
    name = "fd_cell_solve modulated N=512"
    print(f"{name:<34} {t_fast * 1e3:>10.3f}ms {t_slow * 1e3:>10.3f}ms {t_slow / t_fast:>8.1f}x")


def fresh_write_s(traj, cfg, root, repeat, created):
    """Best time of ``_write_evolve`` with frames, each repeat into a new directory.

    With ``created``, ``_create_frames`` makes the run's empty frame files
    there first, outside the timing.
    """
    best = np.inf
    for _ in range(repeat + 1):  # the first is a warm-up
        out = Path(tempfile.mkdtemp(dir=root))
        if created:
            _create_frames(out, len(traj.times))
        t0 = time.perf_counter()
        _write_evolve(out, traj, cfg, svg=True)
        best = min(best, time.perf_counter() - t0)
        artifacts = read_artifacts(out)
        shutil.rmtree(out)
    return best, artifacts


def evolve_writers_row(traj, cfg, repeat):
    """Every ``evolve`` writer of one run with frames: into created frame files against none."""
    with tempfile.TemporaryDirectory() as tmp:
        t_made, made = fresh_write_s(traj, cfg, tmp, repeat, created=True)
        t_new, new = fresh_write_s(traj, cfg, tmp, repeat, created=False)
    assert made == new, "evolve writers: bytes differ with the frames created first"
    name = "evolve writers (frames created)"
    print(f"{name:<34} {t_made * 1e3:>10.3f}ms {t_new * 1e3:>10.3f}ms {t_new / t_made:>8.1f}x")


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

import numpy as np
import pytest

from polarflow import SolveConfig, evolve, make_field, make_grid


@pytest.fixture(scope="session")
def grid64():
    return make_grid(1, [1.0], [64])


@pytest.fixture(scope="session")
def grid128():
    return make_grid(1, [1.0], [128])


@pytest.fixture(scope="session")
def grid2d():
    return make_grid(2, [1.0, 1.0], [32, 32])


def full_lattice(grid):
    """Full-lattice ``(kappas, |kappa|^2)`` for the complex-FFT reference oracles.

    ``kappas`` holds one broadcast-ready wavenumber array per axis; the
    Laplacian symbol has the grid's shape.
    """
    kappas, lap = [], np.zeros(grid.shape)
    for ax, n in enumerate(grid.resolution):
        shape = [1] * grid.m
        shape[ax] = n
        k = grid.wavenumbers(ax).reshape(shape)
        kappas.append(k)
        lap = lap + k**2
    return kappas, lap


def smooth_field(grid, seed, n_modes=8, offset=0.0):
    """Seeded band-limited random field (modes damped by 1/(1+|k|^2))."""
    rng = np.random.default_rng(seed)
    hat = np.zeros(grid.shape, dtype=complex)
    for idx in np.ndindex(*grid.shape):
        signed = tuple(k if k < n // 2 else k - n for k, n in zip(idx, grid.resolution))
        if all(s == 0 for s in signed) or any(abs(s) > n_modes for s in signed):
            continue
        hat[idx] = (rng.normal() + 1j * rng.normal()) / (1.0 + sum(s * s for s in signed))
    # symmetrize so the field is real
    vals = np.fft.ifftn(hat * grid.num_nodes).real + offset
    return make_field(grid, vals)


@pytest.fixture
def smooth64(grid64):
    return smooth_field(grid64, seed=101)


def one_step(r, spec, dt):
    """``r`` after one Strang step of size ``dt``: the one step of ``evolve`` to ``t_end = dt``."""
    return evolve(r, spec, SolveConfig(dt=dt, t_end=dt)).final

"""Periodic tensor grids and field containers.

Conventions
-----------
A flat torus with per-axis periods ``L_i`` is sampled at ``N_i`` uniformly
spaced nodes ``theta = j * L_i / N_i`` (endpoint excluded).  Wavenumbers are
``kappa_i(k) = 2 * pi * k / L_i`` for integer modes ``k`` in FFT layout, with
the Nyquist mode ``k = -N_i / 2`` negative.  Every field is real; the one
Fourier transform of the package is the real FFT of :mod:`.spectral`, whose
symbols are built from :meth:`PeriodicGrid.wavenumbers`.  Quadrature is the
trapezoid rule, which on a uniform periodic grid is a plain node average and
is spectrally accurate for smooth integrands.

All containers are immutable values (frozen dataclasses over read-only
arrays); every operation returns a new object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "PeriodicGrid",
    "ScalarField",
    "RadialField",
    "DirectionField",
    "make_grid",
    "make_field",
    "mean",
]

_UNIT_NORM_TOL = 1e-12


def _integer(name: str, value: float) -> int:
    """``value`` as an int; ``ValueError`` naming ``name`` unless finite and integer-valued."""
    if not (np.isfinite(value) and float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform tensor-product grid on a flat torus.

    Attributes
    ----------
    lengths : tuple of float
        Per-axis period.
    resolution : tuple of int
        Per-axis sample count; powers of two, at least 8.
    """

    lengths: tuple[float, ...]
    resolution: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lengths) != len(self.resolution):
            raise ValueError("lengths and resolution must have equal length")
        if len(self.lengths) < 1:
            raise ValueError("grid needs at least one axis")
        for L in self.lengths:
            if not np.isfinite(L):
                raise ValueError(f"non-finite axis length {L!r}")
            if not L > 0.0:
                raise ValueError(f"non-positive axis length {L!r}")
        for n in self.resolution:
            if n < 8 or n % 2 != 0:
                raise ValueError(f"resolution {n} is odd or too small (need even >= 8)")
            if n & (n - 1) != 0:
                raise ValueError(f"resolution {n} is not a power of two")

    @property
    def m(self) -> int:
        """Number of torus axes."""
        return len(self.lengths)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.resolution

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.resolution))

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.lengths, self.resolution))

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    def axis_coords(self, axis: int) -> np.ndarray:
        """Node coordinates ``j * L / N`` along one axis."""
        n = self.resolution[axis]
        return np.arange(n) * (self.lengths[axis] / n)

    def coords(self) -> list[np.ndarray]:
        """Meshgrid coordinate arrays (one per axis, each of grid shape)."""
        axes = [self.axis_coords(i) for i in range(self.m)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def wavenumbers(self, axis: int) -> np.ndarray:
        """FFT-layout wavenumbers ``2 pi k / L`` along one axis."""
        n = self.resolution[axis]
        return 2.0 * np.pi * np.fft.fftfreq(n, d=self.lengths[axis] / n)


@lru_cache(maxsize=32)
def _flat_coords(grid: PeriodicGrid) -> tuple[np.ndarray, ...]:
    """Node coordinates per axis, flattened in C node order (read-only)."""
    out = tuple(c.ravel() for c in grid.coords())
    for c in out:
        c.flags.writeable = False
    return out


@dataclass(frozen=True)
class ScalarField:
    """Real scalar samples on a :class:`PeriodicGrid`."""

    grid: PeriodicGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"value shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("field contains NaN or Inf")
        object.__setattr__(self, "values", _readonly(vals))


@dataclass(frozen=True)
class RadialField(ScalarField):
    """Scalar field carrying a radius, which must be strictly positive."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (self.values.min() > 0.0):
            raise ValueError(
                f"radial field must be strictly positive (min {self.values.min()})"
            )


@dataclass(frozen=True)
class DirectionField:
    """Unit vectors in the ambient space, one per grid node.

    ``vectors`` has shape ``grid.shape + (d,)`` with ``d >= 2`` the ambient
    dimension; every vector is unit length to within 1e-12.
    """

    grid: PeriodicGrid
    vectors: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        vecs = np.asarray(self.vectors, dtype=np.float64)
        if vecs.shape[:-1] != self.grid.shape or vecs.ndim != self.grid.m + 1:
            raise ValueError(
                f"vector shape {vecs.shape} does not match grid shape {self.grid.shape}"
            )
        if vecs.shape[-1] < 2:
            raise ValueError("ambient dimension must be at least 2")
        if not np.isfinite(vecs).all():
            raise ValueError("direction field contains NaN or Inf")
        norms = np.sqrt((vecs**2).sum(axis=-1))
        drift = np.abs(norms - 1.0).max()
        if drift > _UNIT_NORM_TOL:
            raise ValueError(f"direction vectors deviate from unit norm by {drift:.3e}")
        object.__setattr__(self, "vectors", _readonly(vecs))

    @property
    def d(self) -> int:
        """Ambient dimension."""
        return self.vectors.shape[-1]


def make_grid(m: int, lengths, resolution) -> PeriodicGrid:
    """Build a periodic grid with ``m`` axes.

    Raises ``ValueError`` on dimension mismatch, non-positive lengths, or
    resolutions that are not integer-valued, odd, below 8, or not powers of two.
    """
    lengths = tuple(float(L) for L in lengths)
    resolution = tuple(_integer("resolution", n) for n in resolution)
    if m < 1:
        raise ValueError("torus dimension must be >= 1")
    if len(lengths) != m or len(resolution) != m:
        raise ValueError(
            f"dimension mismatch: m={m}, {len(lengths)} lengths, {len(resolution)} resolutions"
        )
    return PeriodicGrid(lengths=lengths, resolution=resolution)


def make_field(grid: PeriodicGrid, values: np.ndarray) -> ScalarField:
    """Wrap raw samples as a :class:`ScalarField` (validates shape, finiteness)."""
    return ScalarField(grid=grid, values=values)


def mean(f: ScalarField) -> float:
    """Torus average ``(1/vol) * integral of f`` (trapezoid = node average)."""
    return float(f.values.mean())

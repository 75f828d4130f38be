"""Polynomial flux registry.

A flux assigns to every torus axis ``i`` a polynomial speed
``f_i(v) = sum_k c_k v^k``; the transported quantity in divergence form is
``g_i(v) = v * f_i(v)``.  Every registered family is one of these: a constant
speed has degree 0 and ``v^2/2`` (burgers) is ``f = v/2``.  A component holds
the coefficients of ``f_i``, ``g_i`` and ``g_i'``, which all evaluate exactly by
Horner's rule with no numerical differentiation, and their suprema over an
interval are exact maxima taken at its ends and at the critical points.

An optional per-axis spatial modulation ``a_i`` (a short cosine/sine series
in the axis coordinate) turns ``g_i(v)`` into ``a_i(theta_i) * g_i(v)``.  It
exists for the stationary mean-constrained problem, where an unmodulated flux
is degenerate (constants solve it); geometric presets never set it.  Every
solver reads its samples on a grid from :meth:`FluxSpec.resolve`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grid import PeriodicGrid

__all__ = [
    "FluxComponent",
    "Modulation",
    "FluxSpec",
    "constant_flux",
    "zero_flux",
    "burgers_flux",
    "polynomial_flux",
    "with_modulation",
    "eval_f",
    "eval_g",
    "eval_g_prime",
    "advective_speed_bound",
    "flux_envelope_bound",
]

@dataclass(frozen=True)
class Modulation:
    """Truncated Fourier series ``a(s) = const + sum_k c_k cos + s_k sin``.

    Wave arguments are ``2 pi k s / L`` with ``L`` the period of the axis the
    modulation is attached to.
    """

    const: float = 1.0
    cos_amps: tuple[float, ...] = ()
    sin_amps: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.const, *self.cos_amps, *self.sin_amps))):
            raise ValueError("modulation amplitudes must be finite")

    def evaluate(self, s: np.ndarray, period: float) -> np.ndarray:
        out = np.full_like(np.asarray(s, dtype=np.float64), self.const)
        for k, c in enumerate(self.cos_amps, start=1):
            out += c * np.cos(2.0 * np.pi * k * s / period)
        for k, c in enumerate(self.sin_amps, start=1):
            out += c * np.sin(2.0 * np.pi * k * s / period)
        return out

    def sup_bound(self) -> float:
        """Cheap upper bound for ``sup |a|`` (triangle inequality)."""
        return abs(self.const) + sum(map(abs, self.cos_amps)) + sum(map(abs, self.sin_amps))


@dataclass(frozen=True)
class FluxComponent:
    """Speed ``f(v) = sum_k coeffs[k] v^k`` on one axis, optionally modulated.

    Trailing zero coefficients are dropped, so ``len(coeffs) - 1`` is the
    degree; the zero polynomial keeps its one coefficient.  ``g`` and ``g_prime``
    hold those of ``g(v) = v f(v)`` and ``g'(v) = sum_k (k+1) c_k v^k``, derived
    once and left out of equality, hashing and the repr.
    """

    coeffs: tuple[float, ...]
    modulation: Modulation | None = None
    g: tuple[float, ...] = field(init=False, compare=False, repr=False)
    g_prime: tuple[float, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("flux component needs at least one coefficient")
        if not all(map(math.isfinite, coeffs)):
            raise ValueError(f"flux coefficients must be finite, got {coeffs}")
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "g", (0.0, *coeffs))
        object.__setattr__(self, "g_prime", tuple((k + 1) * c for k, c in enumerate(coeffs)))


@dataclass(frozen=True)
class FluxSpec:
    """One flux component per torus axis."""

    components: tuple[FluxComponent, ...]

    def __post_init__(self) -> None:
        if len(self.components) < 1:
            raise ValueError("flux needs at least one component")

    @property
    def m(self) -> int:
        return len(self.components)

    @property
    def is_constant(self) -> bool:
        """True when every component is an unmodulated constant (degree 0)."""
        return all(len(c.coeffs) == 1 and c.modulation is None for c in self.components)

    @property
    def constant_speeds(self) -> tuple[float, ...]:
        if not self.is_constant:
            raise ValueError("flux is not purely constant")
        return tuple(c.coeffs[0] for c in self.components)

    @lru_cache(maxsize=32)
    def resolve(self, grid: PeriodicGrid) -> tuple[np.ndarray | None, ...]:
        """Per axis ``i``, the modulation ``a_i`` sampled on ``grid``, or None for none.

        Each sample array is a read-only view broadcast to ``grid.shape``,
        built once per flux and grid: equal fluxes share them.  Raises
        ``ValueError`` unless the flux has one component per grid axis.
        """
        if self.m != grid.m:
            raise ValueError(f"flux has {self.m} components but grid has {grid.m} axes")
        out = []
        for i, comp in enumerate(self.components):
            mod = comp.modulation
            line = None if mod is None else mod.evaluate(grid.axis_coords(i), grid.lengths[i])
            shape = [-1 if ax == i else 1 for ax in range(grid.m)]
            out.append(None if line is None else np.broadcast_to(line.reshape(shape), grid.shape))
        return tuple(out)


def constant_flux(speeds) -> FluxSpec:
    """Flux with ``f_i`` identically equal to the given speeds."""
    return FluxSpec(components=tuple(FluxComponent((c,)) for c in speeds))


def zero_flux(m: int = 1) -> FluxSpec:
    return constant_flux([0.0] * m)


def burgers_flux(m: int = 1) -> FluxSpec:
    """``f_i(v) = v/2`` on every axis, so ``g_i(v) = v^2/2``."""
    return FluxSpec(components=tuple(FluxComponent((0.0, 0.5)) for _ in range(m)))


def polynomial_flux(coeffs, m: int = 1) -> FluxSpec:
    """``f_i(v) = sum_k coeffs[k] v^k`` shared across the ``m`` axes."""
    c = tuple(coeffs)
    return FluxSpec(components=tuple(FluxComponent(c) for _ in range(m)))


def with_modulation(spec: FluxSpec, axis: int, modulation: Modulation) -> FluxSpec:
    """Copy of ``spec`` with a spatial modulation attached to one axis."""
    comps = list(spec.components)
    comps[axis] = FluxComponent(comps[axis].coeffs, modulation)
    return FluxSpec(components=tuple(comps))


def _check_index(spec: FluxSpec, i: int) -> FluxComponent:
    if not 0 <= i < spec.m:
        raise IndexError(f"flux component {i} out of range for m={spec.m}")
    return spec.components[i]


def _horner(coeffs, nu: np.ndarray, mod: np.ndarray | None = None, out: np.ndarray | None = None):
    """``mod * sum_k coeffs[k] nu^k`` by Horner's rule, as an array or a float for 0-d ``nu``.

    The one evaluator of every flux term; ``mod`` is a modulation ``a_i``
    that broadcasts to ``nu``, or None.  The steps run in place on one
    array, the float array ``out`` of ``nu``'s shape when the caller passes
    one, else a new one, and return it: a new temporary per step costs more
    than the arithmetic on large inputs.  ``nu`` is only read.  A zero
    coefficient costs no addition, so ``g`` of burgers is ``(0.5 nu) nu``,
    bitwise equal to ``nu nu / 2``.
    """
    if out is None:
        out = np.empty(nu.shape)
    if len(coeffs) > 1:
        np.multiply(coeffs[-1], nu, out=out)
    else:
        out.fill(coeffs[0])
    for k in reversed(range(len(coeffs) - 1)):
        if coeffs[k]:
            out += coeffs[k]
        if k:
            out *= nu
    if mod is not None:
        out *= mod
    return out if out.ndim else float(out)


def eval_f(spec: FluxSpec, i: int, nu):
    """Evaluate ``f_i`` at ``nu`` (scalar or array)."""
    return _horner(_check_index(spec, i).coeffs, np.asarray(nu, dtype=np.float64))


def eval_g(spec: FluxSpec, i: int, nu):
    """Evaluate ``g_i(nu) = nu * f_i(nu)``."""
    return _horner(_check_index(spec, i).g, np.asarray(nu, dtype=np.float64))


def eval_g_prime(spec: FluxSpec, i: int, nu):
    """Exact derivative of ``g_i``."""
    return _horner(_check_index(spec, i).g_prime, np.asarray(nu, dtype=np.float64))


def _sup_abs(comp: FluxComponent, coeffs: tuple[float, ...], bound: float) -> float:
    """Exact ``max |p|`` over ``|v| <= bound`` for the polynomial ``coeffs``, times ``sup |a|``.

    The maximum is taken at the ends and at the critical points.  The real
    part of every root of ``p'`` inside the interval is a candidate: a real
    double root that rounding splits into a complex pair still lands on its
    critical point, and an extra point inside the interval can never raise
    the maximum above the true one.  A leading coefficient of ``p'`` whose
    ratio to a later one, ``j`` degrees down, overflows the companion matrix
    of ``np.roots`` is below roundoff next to it while ``bound^j < 1e292``,
    so it is dropped.  Coefficients or a maximum that overflow give ``inf``.
    """
    with np.errstate(all="ignore"):
        deriv = np.polyder(coeffs[::-1])
        if not np.isfinite(deriv).all():
            return math.inf
        while len(deriv) > 1 and not np.isfinite(deriv[1:] / deriv[0]).all():
            deriv = deriv[1:]
        crit = np.roots(deriv).real
        pts = np.concatenate(([-bound, bound], crit[np.abs(crit) < bound]))
        s = float(np.abs(_horner(coeffs, pts)).max())
    if not math.isfinite(s):
        return math.inf
    return s if comp.modulation is None else s * comp.modulation.sup_bound()


def _check_field_bound(field_bound: float) -> None:
    if not (field_bound >= 0.0 and math.isfinite(field_bound)):
        raise ValueError(f"field_bound must be non-negative and finite, got {field_bound!r}")


def advective_speed_bound(spec: FluxSpec, field_bound: float) -> float:
    """``max_i sup |a_i g_i'|`` over ``|v| <= field_bound``, ``inf`` if it overflows.

    Raises ``ValueError`` unless ``field_bound`` is non-negative and finite.
    """
    _check_field_bound(field_bound)
    return max(_sup_abs(c, c.g_prime, field_bound) for c in spec.components)


def flux_envelope_bound(spec: FluxSpec, field_bound: float) -> float:
    """``max_i sup(|a_i g_i|, |a_i g_i'|)`` over ``|v| <= (m+1)*field_bound``.

    Exact up to roundoff, or ``inf`` if it overflows: the fixed-point window
    downstream is sized from it.  Raises ``ValueError`` unless
    ``field_bound`` is non-negative and finite.
    """
    _check_field_bound(field_bound)
    reach = (spec.m + 1) * field_bound
    return max(max(_sup_abs(c, c.g, reach), _sup_abs(c, c.g_prime, reach)) for c in spec.components)

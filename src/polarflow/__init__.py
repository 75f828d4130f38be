"""Spectral simulation and verification toolkit for radially split flows on flat tori.

A closed hypersurface evolving by a rotationally invariant flow splits, in
polar form ``x = r P``, into a scalar viscous conservation law for the radius
``r`` and a linear transport equation for the unit direction ``P``.  This
package integrates both, cross-validates the radius solver against an
independent heat-kernel fixed-point solver, solves the stationary
mean-constrained problem whose solutions are the long-time attractors, and
ships the diagnostics (sup/L1 norms, positivity, mass conservation, L1
contraction, mode decay, sphere deviation) that turn the qualitative theory
into executable checks.

``import polarflow`` loads no submodule: each name of ``__all__`` imports its
defining module on first use, so a run loads only the modules it calls.
"""

import importlib

# the module that defines each public name
_SOURCES = {
    "cell": ("CellSolution", "monotonicity_check", "solve_cell"),
    "diagnostics": ("ModeDecayRow", "l1_contraction_series", "mode_decay_report"),
    "duhamel": (
        "PicardReport",
        "contraction_horizon",
        "heat_kernel_convolve",
        "kernel_gradient_l1",
        "picard_extend",
        "picard_solve",
    ),
    "errors": ("ConfigError", "ConvergenceError", "PolarflowError", "SolverError"),
    "flux": (
        "FluxSpec",
        "Modulation",
        "burgers_flux",
        "constant_flux",
        "eval_f",
        "eval_g",
        "eval_g_prime",
        "flux_envelope_bound",
        "polynomial_flux",
        "with_modulation",
        "zero_flux",
    ),
    "geometry": (
        "decompose",
        "ellipse_initial",
        "make_initial",
        "perturbed_sphere_initial",
        "reconstruct",
        "sphere_directions",
        "trig_random_initial",
    ),
    "grid": (
        "DirectionField",
        "PeriodicGrid",
        "RadialField",
        "ScalarField",
        "make_field",
        "make_grid",
        "mean",
    ),
    "spectral": (
        "SolveConfig",
        "Trajectory",
        "evolve",
        "evolve_coupled",
        "galilean_shift",
        "heat_propagate",
        "max_stable_dt",
        "transport_step",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

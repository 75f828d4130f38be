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
"""

from .cell import CellSolution, monotonicity_check, solve_cell
from .diagnostics import ModeDecayRow, l1_contraction_series, mode_decay_report
from .duhamel import (
    PicardReport,
    contraction_horizon,
    heat_kernel_convolve,
    kernel_gradient_l1,
    picard_extend,
    picard_solve,
)
from .errors import ConfigError, ConvergenceError, PolarflowError, SolverError
from .flux import (
    FluxSpec,
    Modulation,
    burgers_flux,
    constant_flux,
    eval_f,
    eval_g,
    eval_g_prime,
    flux_envelope_bound,
    polynomial_flux,
    with_modulation,
    zero_flux,
)
from .geometry import (
    decompose,
    ellipse_initial,
    make_initial,
    perturbed_sphere_initial,
    reconstruct,
    sphere_directions,
    trig_random_initial,
)
from .grid import (
    DirectionField,
    PeriodicGrid,
    RadialField,
    ScalarField,
    make_field,
    make_grid,
    mean,
)
from .spectral import (
    SolveConfig,
    Trajectory,
    evolve,
    galilean_shift,
    heat_propagate,
    max_stable_dt,
    step,
)
from .transport import evolve_coupled, transport_step

__version__ = "0.1.0"

__all__ = [
    "CellSolution",
    "ConfigError",
    "ConvergenceError",
    "DirectionField",
    "FluxSpec",
    "ModeDecayRow",
    "Modulation",
    "PeriodicGrid",
    "PicardReport",
    "PolarflowError",
    "RadialField",
    "ScalarField",
    "SolveConfig",
    "SolverError",
    "Trajectory",
    "burgers_flux",
    "constant_flux",
    "contraction_horizon",
    "decompose",
    "ellipse_initial",
    "eval_f",
    "eval_g",
    "eval_g_prime",
    "evolve",
    "evolve_coupled",
    "flux_envelope_bound",
    "galilean_shift",
    "heat_kernel_convolve",
    "heat_propagate",
    "kernel_gradient_l1",
    "l1_contraction_series",
    "make_field",
    "make_grid",
    "make_initial",
    "max_stable_dt",
    "mean",
    "mode_decay_report",
    "monotonicity_check",
    "perturbed_sphere_initial",
    "picard_extend",
    "picard_solve",
    "polynomial_flux",
    "reconstruct",
    "solve_cell",
    "sphere_directions",
    "step",
    "transport_step",
    "trig_random_initial",
    "with_modulation",
    "zero_flux",
]

"""Spherically symmetric relativistic fluid evolution in standard
Schwarzschild coordinates by a locally inertial Godunov scheme, with exact
flat-space Riemann solutions, closed-form cosmological/static models, and
a convergence and diagnostics harness."""

from .fluid import EosParams, conserved_arrays, fluid_arrays, invariant_arrays, t11_arrays
from .riemann import RiemannGridSolution, sample_solution, solve_interfaces
from .scheme import SimGrid, advance, init

__all__ = [
    "EosParams",
    "conserved_arrays",
    "fluid_arrays",
    "invariant_arrays",
    "t11_arrays",
    "RiemannGridSolution",
    "solve_interfaces",
    "sample_solution",
    "SimGrid",
    "init",
    "advance",
]

__version__ = "0.1.0"

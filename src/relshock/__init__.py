"""Spherically symmetric relativistic fluid evolution in standard
Schwarzschild coordinates by a locally inertial Godunov scheme, with exact
flat-space Riemann solutions, closed-form cosmological/static models, and
a convergence and diagnostics harness."""

__version__ = "0.1.0"

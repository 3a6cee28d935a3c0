"""Exception types shared across the package.

Each class is one distinction some caller acts on: the command line maps
ConfigError to exit 2 and every other RelshockError to exit 4.  The time
march (:func:`relshock.experiments.simulate_model`) catches only
HorizonEncountered, which it records as the stop reason "horizon" (the
command line exits 3 on it); every other stop is a return value.
"""


class RelshockError(Exception):
    """Base class for all package errors.  An error about one entry of an
    array sets `index` to that entry."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class ConfigError(RelshockError):
    """Malformed or invalid run configuration, with its line when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NonPhysicalState(RelshockError):
    """A state, parameter or requested point lies outside the physical
    region or a model's domain (time step too large, corrupted data, NaN,
    or out-of-range input).  Array checks set `index` to the first bad entry."""


class HorizonEncountered(RelshockError):
    """The radial metric component dropped to ~0; the coordinate system
    cannot represent the solution past this point."""

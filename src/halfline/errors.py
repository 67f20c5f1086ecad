"""Exception hierarchy shared by all modules.

The CLI maps each onto an exit code and a stderr label in one table,
`cli._EXITS`.
"""


class HalflineError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(HalflineError):
    """Malformed or inconsistent configuration input."""


class AssumptionError(HalflineError):
    """The potential violates the decay assumption rho > 5/2."""


class NumericsError(HalflineError):
    """A numerical guard tripped (coarse grid, ambiguous threshold, ...)."""


class CheckFailure(HalflineError):
    """An identity check that should hold came out false."""

"""Exception taxonomy: configuration problems vs numerical-guard trips.

The CLI maps ConfigError to exit code 2 and GuardError to exit code 3.
"""


class NestedMziError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(NestedMziError):
    """Invalid parameters, presets, or key=value configuration text."""


class GuardError(NestedMziError):
    """A numerical validity guard tripped at run time."""


class AliasingError(GuardError):
    """Field energy reached the guard band at the grid edge or at the spectrum's band edge."""


class RegimeError(GuardError):
    """Tilt angles outside the validated small-angle or paraxial regime."""


class ZeroNormError(GuardError):
    """Operation undefined on an (almost) zero-power field."""


class PostSelectionError(GuardError):
    """Pre- and post-selected path states are numerically orthogonal."""

"""Exception types shared across the package."""


class HalfStokesError(Exception):
    """Base class for all package-specific errors."""


class InvalidGridError(HalfStokesError, ValueError):
    """Grid parameters violate an invariant."""


class ShapeMismatchError(HalfStokesError, ValueError):
    """Field data does not match the shape implied by its grid/domain."""


class NotDivergenceFreeError(HalfStokesError, ValueError):
    """A field that must be solenoidal exceeds the divergence tolerance."""


class InvalidDataError(HalfStokesError, ValueError):
    """Input values violate a precondition: non-finite entries, or a test
    function that does not vanish on the wall."""


class NormOrderError(HalfStokesError, ValueError):
    """Requested smoothness order is outside the supported range."""


class PicardDivergenceError(HalfStokesError, RuntimeError):
    """The nonlinear iteration stopped contracting (data too large)."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class ConfigError(HalfStokesError, ValueError):
    """A run configuration failed validation."""

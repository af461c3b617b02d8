"""Exception taxonomy shared across the package.

Everything raised on purpose derives from :class:`WchipError`, so callers
(and the CLI driver) can distinguish simulator errors from genuine bugs.
"""


class WchipError(Exception):
    """Base class for all errors raised by this package."""


class UnknownMode(WchipError):
    """A populated optical mode is missing from a transform's mode list."""


class TooManyPhotons(WchipError):
    """A basis term holds more photons than the sparse Fock engine's
    sqrt-factorial table and expansion keys are sized for."""


class EmptyState(WchipError):
    """An operation that needs a nonzero-norm state received a zero state."""


class DimensionMismatch(WchipError):
    """Matrix/mode-list dimensions disagree, or photon content does not fit
    the requested reduced-matrix type."""


class NotUnitary(WchipError):
    """A transform fails the unitarity check or holds a non-finite entry, or
    coupler coefficients violate r**2 + t**2 = 1 beyond tolerance."""


class ChannelCollision(WchipError):
    """An element references the same channel twice."""


class OrderOutOfRange(WchipError):
    """Source expansion order outside the supported {0, 1, 2}."""


class ParamOutOfRange(WchipError):
    """A numeric parameter lies outside its documented domain."""


class ValidationError(WchipError):
    """A composite spec (circuit, sweep, record) failed validation."""


class PatternMismatch(WchipError):
    """State photon content is incompatible with the requested pattern
    operation (e.g. coincidence statistics need one photon per channel)."""


class NotNormalized(WchipError):
    """A state that must be normalized is not (beyond 1e-9)."""


class InvalidRho(WchipError):
    """A density matrix has a non-finite entry or violates hermiticity,
    trace, or positivity bounds."""


class DiagonalsNotUniform(WchipError):
    """Counting statistics deviate from the uniform 1/3 diagonals beyond the
    configured threshold, so the three-dimensional reconstruction is invalid."""


class GridTooLarge(WchipError):
    """A sweep grid exceeds the configured cell cap."""


class ConfigError(WchipError):
    """A run configuration failed validation; message names the field."""

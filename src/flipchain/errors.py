"""Exception types shared across the package."""


class FlipchainError(Exception):
    """Base class for all package-specific errors."""


class InvalidSpec(FlipchainError):
    """A measure specification is outside its admissible parameter range."""


class DepthTooSmall(FlipchainError):
    """A prefix is too shallow to resolve the requested quantity."""


class HorizonOverflow(FlipchainError):
    """An operation would build a cylinder table beyond the depth cap."""


class SiteOutOfRange(FlipchainError):
    """A site index exceeds the declared system size."""


class InvariantViolation(FlipchainError):
    """Input data fails its own structural invariants."""


class OrderUnsupported(FlipchainError):
    """Cochain order outside the implemented range."""


class DegenerateSpectrum(FlipchainError):
    """The modular spectrum collapses to the single point 0."""

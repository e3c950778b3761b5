"""Exception types shared across the package."""


class DiracDeltaError(Exception):
    """Base class for every error this package raises deliberately."""


class ValidationError(DiracDeltaError):
    """An input violates a documented precondition."""


class ShapeError(ValidationError):
    """Tensor or graph shapes do not line up."""


class DomainError(ValidationError):
    """A scalar argument is outside its documented domain."""


class DegenerateScaleError(ValidationError):
    """A weight tensor has no usable dynamic range (all zeros)."""


class ConstructionError(DiracDeltaError):
    """A derived hardware table came out internally inconsistent."""


class ConfigurationError(DiracDeltaError):
    """A schedule, cost model, or pipeline configuration is invalid."""


class GraphError(DiracDeltaError):
    """The network graph is malformed or does not match its parameters."""


class BundleError(DiracDeltaError):
    """A model bundle on disk is missing, malformed, or corrupt."""


class ChecksumError(BundleError):
    """A stored blob's checksum does not match its payload."""


class DeadlockError(DiracDeltaError):
    """The pipeline stopped making progress with stages still pending."""

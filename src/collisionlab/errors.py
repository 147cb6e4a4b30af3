"""Exception types shared across the package."""


class CollisionLabError(Exception):
    """Base class for all collisionlab errors."""


class DisconnectedGraphError(CollisionLabError):
    """The edge list does not connect every vertex."""


class NonpositiveConductanceError(CollisionLabError):
    """An edge carries a conductance that is not finite and strictly positive."""


class EndpointOutOfRangeError(CollisionLabError):
    """An edge endpoint is not a valid vertex index."""


class ResourceLimitError(CollisionLabError):
    """A computation would exceed the memory cap."""


class CertificateViolationError(CollisionLabError):
    """A requested horizon exceeds what the truncation certificate covers."""


class HorizonMismatchError(CollisionLabError):
    """Two continuous-time trajectories cover different time windows."""


class TransportCapExceededError(CollisionLabError):
    """A mass-transport value exceeded the configured cap; the comparison is indeterminate."""


class ConfigError(CollisionLabError):
    """An experiment configuration is invalid; the message names the offending field."""

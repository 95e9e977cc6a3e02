"""Exception types shared across the package."""


class DegenerateModelError(ValueError):
    """A stochastic model has no well-defined stationary behaviour."""


class ResourceLimitError(RuntimeError):
    """An exact computation would exceed its configured size cap."""


class PreconditionError(ValueError):
    """A structural hypothesis required by the requested routine is violated."""

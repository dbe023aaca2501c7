"""Exception types shared across the toolkit."""


class InputError(ValueError):
    """An argument violates a documented precondition."""


class ConvergenceError(RuntimeError):
    """A truncated operator series failed to settle within its term cap, or a
    series term or matrix exponential overflowed."""


class GenerationError(RuntimeError):
    """Schedule generation exhausted its retry budget."""

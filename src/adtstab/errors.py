"""Exception types shared across the toolkit."""


class InputError(ValueError):
    """An argument violates a documented precondition."""


class ConvergenceError(RuntimeError):
    """A truncated operator series failed to settle within its term cap, or a
    series term, matrix exponential, monodromy, diffusive rate, jump
    inequality or simulated trajectory overflowed."""


class GenerationError(RuntimeError):
    """Schedule generation ran out of retries."""

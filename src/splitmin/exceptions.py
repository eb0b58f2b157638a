"""Error types raised by the solver library."""


class ParameterError(ValueError):
    """Invalid construction parameters (degree/continuity combinations, intervals, config values)."""


class DomainError(ValueError):
    """Evaluation requested outside the domain of definition."""


class SingularMatrixError(RuntimeError):
    """A factorization hit an exactly singular pivot."""


class NonFiniteStateError(RuntimeError):
    """A time step left a non-finite solution coefficient."""

"""Exception types shared across the package."""


class QstatworkError(Exception):
    """Base class for all package-specific errors."""


class DegenerateHamiltonianError(QstatworkError, ValueError):
    """Engine gap closes where the drive protocol requires it to stay open."""


class DomainError(QstatworkError, ValueError):
    """Argument outside the time/parameter domain of the protocol."""


class InvalidVariantError(QstatworkError, ValueError):
    """A schedule variant was passed to an operation that cannot handle it."""


class QuadratureError(QstatworkError, RuntimeError):
    """Adaptive quadrature failed to converge; carries diagnostics."""

    def __init__(self, message, estimate=None, last_delta=None, panels=None):
        super().__init__(message)
        self.estimate = estimate
        self.last_delta = last_delta
        self.panels = panels


class PropagationError(QstatworkError, RuntimeError):
    """Numerical propagation violated a conservation tolerance."""


class PerturbativeValidityError(QstatworkError, ValueError):
    """Perturbative excitation probabilities are far outside their regime."""


class InequalityViolationError(QstatworkError, RuntimeError):
    """A moment inequality failed; carries the (N, x) witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ConfigError(QstatworkError, ValueError):
    """Malformed configuration document or CLI arguments."""

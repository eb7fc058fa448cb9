"""Exception types raised by the solver layers."""

from __future__ import annotations


class SchurliftError(Exception):
    """Base class for all library errors."""


class DomainViolation(SchurliftError):
    """A point lies on or outside the boundary of the kernel domain."""


class DimensionMismatch(SchurliftError):
    """Operand shapes are incompatible."""


class IllConditioned(SchurliftError):
    """A Gram matrix is numerically rank deficient (nodes too close) or overflows."""

    def __init__(self, message: str, min_eig: float = 0.0, max_eig: float = 0.0):
        super().__init__(message)
        self.min_eig = min_eig
        self.max_eig = max_eig


class NotHypercontraction(SchurliftError):
    """The hereditary positivity operator of a tuple is not PSD."""

    def __init__(self, min_eig: float):
        super().__init__(f"hereditary operator has min eigenvalue {min_eig:.6e}")
        self.min_eig = min_eig


class NotPure(SchurliftError):
    """Iterates of the tuple do not decay; the canonical dilation is not isometric."""


class GramMismatch(SchurliftError):
    """Input and output Gram matrices of a pair completion disagree."""

    def __init__(self, deviation: float):
        super().__init__(f"Gram matrices differ by {deviation:.6e}")
        self.deviation = deviation


class NotPositive(SchurliftError):
    """A required positivity condition fails."""

    def __init__(self, min_eig: float, context: str = ""):
        msg = f"positivity fails with min eigenvalue {min_eig:.6e}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)
        self.min_eig = min_eig


class NotIntertwining(SchurliftError):
    """The operator does not intertwine the two tuples."""

    def __init__(self, residual: float):
        super().__init__(f"intertwining residual {residual:.6e}")
        self.residual = residual


class NotContraction(SchurliftError):
    """The operator norm exceeds one beyond tolerance."""

    def __init__(self, norm: float):
        super().__init__(f"operator norm {norm:.12f} exceeds 1")
        self.norm = norm


class NearSingularResolvent(SchurliftError):
    """The transfer-function resolvent is numerically singular at the point."""


class ParseError(SchurliftError):
    """The instance document is not well-formed."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class ValidationError(SchurliftError):
    """The instance document is well-formed but semantically invalid."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path

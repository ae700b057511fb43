"""Exception types raised by the library."""


class PdmorseError(Exception):
    """Base class for all library-specific failures."""


class RealityViolation(PdmorseError):
    """Parameters admit no real bound spectrum (eps1 - eta^2/2 <= 0)."""


class DegenerateDenominator(PdmorseError):
    """Quantization-formula denominator within 1e-12 of zero; input is pathological."""


class ComplexBranch(PdmorseError):
    """A square-root radicand that must be non-negative turned negative."""


class MassSingularity(PdmorseError):
    """Position coincides with the zero of 1 - eta*exp(-beta*x)."""


class DomainUnsupported(PdmorseError):
    """Closed-form normalization requested outside its gamma-function validity range."""


class NormOverflow(DomainUnsupported):
    """The normalization constant exceeds the largest float; no method can store it."""


class NoBracket(PdmorseError):
    """Node counts never straddle the requested state; it is unbound on this grid."""


class NonConvergence(PdmorseError):
    """Eigenvalue bisection failed to reach tolerance within the iteration cap."""


class QuadratureFailure(PdmorseError):
    """Adaptive quadrature met a non-finite integrand or ran out of panels."""


class ConfigError(PdmorseError):
    """Malformed or inconsistent molecule configuration input."""

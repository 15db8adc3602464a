"""Exception types shared across the package."""


class MgmlmcError(Exception):
    """Base class for all package-specific errors."""


class LevelMismatch(MgmlmcError):
    """Vectors or fields do not live on the expected level/role."""


class EmbeddingNotPSD(MgmlmcError):
    """Circulant embedding stayed indefinite after maximum padding."""


class LinearSolveFailure(MgmlmcError):
    """Linear solver did not reach the requested residual."""


class StabilityViolation(MgmlmcError):
    """Explicit time step violates the stability bound."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class InsufficientSamples(MgmlmcError):
    """Too few samples to estimate a variance."""


class InvalidQ(MgmlmcError):
    """Sample reduction factor q outside (0, 1/2)."""


class CoherenceViolation(MgmlmcError):
    """A V-cycle's coarse gradient differs from the restricted fine one."""


class LineSearchFailure(MgmlmcError):
    """Backtracking exhausted without satisfying the descent condition."""


class DegenerateStart(MgmlmcError):
    """Reference gradient norm is zero; nothing to optimize."""


class ConfigError(MgmlmcError):
    """Invalid or inconsistent experiment configuration."""

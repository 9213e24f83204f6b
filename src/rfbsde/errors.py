"""Exception types shared across the toolkit."""


class RfbsdeError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(RfbsdeError):
    """Bad or inconsistent run configuration."""


class SimulationError(RfbsdeError):
    """Forward simulation failed (non-finite state, inadmissible control)."""


class BackwardSolverError(RfbsdeError):
    """Backward induction failed (fixed point did not converge, bad inputs)."""


class EvaluationError(RfbsdeError):
    """A model coefficient produced a non-finite value."""


class StabilityError(RfbsdeError):
    """Explicit time step violates the stability bound in strict mode."""

    def __init__(self, message, required_dt=None):
        super().__init__(message)
        self.required_dt = required_dt


class KinkColumnError(RfbsdeError):
    """A surface with declared kink columns handed to the classical route."""

"""Exception taxonomy for the solver pipeline.

Every error carries enough context (step index, path index, offending field)
to locate the failure without re-running under a debugger.
"""


class QgbsdeError(Exception):
    """Base class for all package errors."""


class InvalidParameters(QgbsdeError):
    """A scalar or array argument is out of its admissible range."""


class InvalidPartition(QgbsdeError):
    """Time grid is not strictly increasing from 0, or is too short."""


class InvalidPoints(QgbsdeError):
    """A convergence fit was asked for on unusable data points."""


class AssumptionLevelTooLow(QgbsdeError):
    """Operation needs coefficient Jacobians or driver gradients that the
    model does not supply (raised by ModelSpec.require, naming them)."""


class RejectedModel(QgbsdeError):
    """Solver precondition violated, e.g. driver not certified Lipschitz."""


class _AtStep(QgbsdeError):
    """An error located at a time step and, optionally, a path: both are
    kept as .step and .path and appended to the message as
    " (step s[, path p])"."""

    def __init__(self, message, step=None, path=None):
        if step is not None:
            message += f" (step {step}"
            message += f", path {path})" if path is not None else ")"
        super().__init__(message)
        self.step = step
        self.path = path


class NumericalBlowup(_AtStep):
    """Non-finite value produced during simulation or backward induction."""


class SingularFlow(_AtStep):
    """Variational flow matrix not invertible within the condition cap."""


class DegenerateRegression(_AtStep):
    """Regression design rank-deficient beyond the condition cap."""


class PicardDivergence(_AtStep):
    """Inner fixed-point iteration for the implicit step failed to contract."""


class DomainTooSmall(QgbsdeError):
    """Space grid bounds leak more probability mass than tolerated."""


class QuadratureUnstable(QgbsdeError):
    """Quadrature value moved more than tolerated under node doubling."""


class ConfigError(QgbsdeError):
    """Experiment config file is malformed or inconsistent."""

"""Exception taxonomy.

StructuralError covers malformed inputs (bad path files, inconsistent
records); the CLI maps it to the usage exit code. NumericalError and its
children cover failures of the numerics themselves: a tolerance not
reached (AccuracyError), an iteration cap hit (ConvergenceError),
parameters outside a method's regime (UnsupportedRegimeError) and too
few samples for a statistic (UnderSampleError). They map to a separate
exit code so callers can tell the two apart.
"""


class StructuralError(ValueError):
    """Input violates a structural contract (ordering, contiguity, domain)."""


class InconsistencyError(StructuralError):
    """A crossing record contradicts the definition of the passage time."""


class NumericalError(RuntimeError):
    """Base class for numerical failures."""


class AccuracyError(NumericalError):
    """A quadrature or root-finding loop could not reach its tolerance."""


class ConvergenceError(NumericalError):
    """An iteration hit its cap before meeting its tolerance."""


class UnsupportedRegimeError(NumericalError):
    """Parameters are outside the regime the requested method covers."""


class UnderSampleError(NumericalError):
    """Too few Monte Carlo samples to run the requested statistic."""

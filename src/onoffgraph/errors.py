"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A law parameter is outside its admissible domain."""


class InfiniteMeanError(ValueError):
    """The requested quantity needs a finite mean that the law does not have."""


class OutOfRangeError(ValueError):
    """An inversion target lies outside the function's range."""


class IncompatibleMomentsError(ValueError):
    """Empirical moments are incompatible with the assumed parametric family."""


class TraceMismatchError(ValueError):
    """A saved trace's metadata disagrees with the config it is read with."""


class ConvergenceError(RuntimeError):
    """An iterative solver did not reach its tolerance."""


class DegenerateSaddleError(RuntimeError):
    """The Hessian at the saddlepoint is not positive definite."""


# What a computation may raise on bad input or data (ValueError covers the
# subclasses above); anything else is a bug and must propagate.
COMPUTE_ERRORS = (ValueError, OSError, ConvergenceError, DegenerateSaddleError)

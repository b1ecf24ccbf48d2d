"""Exception types shared across the library."""


class DomainError(ValueError):
    """Raised when a matrix function is requested on a spectrum it is not
    defined on (singularity or branch cut hit), or when no numerically
    trustworthy evaluation path exists for the given input."""


class MatrixMarketError(ValueError):
    """Raised for malformed or unsupported Matrix Market input."""


class OracleScaleError(ValueError):
    """Raised when a dense reference computation is requested beyond its
    hard size guard. The guards exist so tests cannot silently run at an
    unintended scale."""


class NonFiniteOperatorError(ArithmeticError):
    """Raised when a Krylov recurrence meets a non-finite coefficient: the
    operator returned NaN or inf, or a finite output whose norm or
    projections exceed the float64 range (entries beyond ~1e154 alone do
    not: the norm is then rescaled). ``process`` names the process class
    and ``step`` the 1-based step, i.e. the matvec that produced it."""

    def __init__(self, process, step):
        super().__init__(f"{process} step {step}: operator output is not finite "
                         "or overflows")
        self.process = process
        self.step = step

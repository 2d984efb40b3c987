"""Exception hierarchy shared across the package."""


class KmzError(Exception):
    """Base class for all package errors."""


class ConfigError(KmzError):
    """Invalid configuration or usage (maps to CLI exit code 1)."""


class MatrixError(KmzError):
    """Bad matrix construction or out-of-range access."""


class MatrixFormatError(MatrixError):
    """Malformed or unsupported Matrix Market file."""


class ProblemError(KmzError):
    """Problem generator cannot satisfy its contract."""


class SolverError(KmzError):
    """Numerical failure inside an iteration."""


class ZeroRowError(SolverError):
    """An x-step was asked to project onto a row whose squared norm is 0."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row} has zero norm; cannot project onto it")


class DivergenceError(SolverError):
    """Iterate left the representable range (non-finite or > 1e150)."""


class NonFiniteInputError(DivergenceError):
    """Non-finite entry in b, rejected before the first iteration.

    A DivergenceError because such an input makes the first iterate
    non-finite; it is raised before any arithmetic, so no numpy warning
    precedes it.
    """

    def __init__(self, index: int, value: float):
        self.index = index
        super().__init__(f"b[{index}] = {value} is not finite; "
                         f"rejected before outer iteration 1")


class ScaleCapError(KmzError):
    """Exact oracle invoked beyond its desk-scale cap."""

"""Exception types shared across the package."""

from contextlib import contextmanager


class NashError(Exception):
    """Base class for all package errors."""


class NonFiniteError(NashError):
    """Input data contains NaN or infinite entries."""


class ConstantColumnError(NashError):
    """A predictor column has zero sample variance."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"column {column} is constant (zero sample variance)")


class LengthMismatchError(NashError):
    """Vector lengths disagree."""


class DimensionMismatchError(NashError):
    """Matrix dimensions disagree."""


class ParseError(NashError):
    """Malformed CSV or image input."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + loc)


@contextmanager
def reading(path: str):
    """Turn a failure to read ``path`` or to decode it as UTF-8 into a ``ParseError``."""
    try:
        yield
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{path} is not UTF-8 text") from None


class ConfigError(NashError):
    """Invalid or incompatible configuration."""


class NonPositiveVarianceError(NashError):
    """A variance parameter is zero or negative where positivity is required."""


class StaleStateError(NashError):
    """ELBO requested from a state whose latent posterior is out of date."""


class NonFiniteGradientError(NashError):
    """Network training produced a NaN or infinite gradient."""

    def __init__(self, step: int, detail: str = ""):
        self.step = step
        super().__init__(f"non-finite gradient at training step {step}" + (f": {detail}" if detail else ""))


class QuadratureUnderflowError(NashError):
    """The posterior mass vanished in every segment of a piecewise posterior."""

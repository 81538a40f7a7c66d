"""Exception types, and the argument check, shared across the package."""


class MemlossError(Exception):
    """Base class for all package errors."""


class DomainError(MemlossError, ValueError):
    """Argument lies outside the state interval or a branch image."""


class SingularPoint(MemlossError, ValueError):
    """Evaluation requested at a jump discontinuity or a point of
    infinite/undefined derivative."""


class ParamError(MemlossError, ValueError):
    """Invalid map, sequence or model parameters; the message names the
    violated constraint."""


class NoGoodMaps(MemlossError, ValueError):
    """No sequence entry lies below the requested threshold."""


class DepthError(MemlossError, IndexError):
    """A table was queried beyond the depth it was computed to."""


class NonPositiveValue(MemlossError, ValueError):
    """A log-log fit window contains values that are not strictly positive."""


class ShapeMismatch(MemlossError, ValueError):
    """Grid densities with different cell counts or intervals were combined."""


class NotNormalized(MemlossError, ValueError):
    """A tail that must start at 1 does not."""


class HorizonError(MemlossError, ValueError):
    """A computation needs tails beyond the materialized horizon; rebuild
    the model with a larger horizon instead of accepting silent bias."""


class FormatError(MemlossError, ValueError):
    """A CSV file does not match any format produced by this package."""


class ConfigError(MemlossError, ValueError):
    """A JSON configuration document failed validation."""


def check_n_max(n_max: int) -> None:
    """Every table runs over n = 0..n_max, so n_max must be at least 1."""
    if n_max < 1:
        raise ParamError(f"n_max must be >= 1, got {n_max}")

"""Exception types, and the argument and config checks, shared across the package."""


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


_JSON_TYPES = {"integer": int, "number": (int, float), "string": str, "list": list}


def has_type(value, kind: str) -> bool:
    """Whether value is a JSON `kind` (a key of _JSON_TYPES or "list of <kind>"), not a boolean."""
    if kind.startswith("list of "):
        return isinstance(value, list) and all(has_type(v, kind[8:]) for v in value)
    return isinstance(value, _JSON_TYPES[kind]) and not isinstance(value, bool)


def check_config(config, kinds: dict, what: str) -> dict:
    """config, once it is a JSON object with only keys of kinds, each of its kind; else a
    ConfigError naming the key (so an integer key rejects 1.5 and true alike)."""
    if not isinstance(config, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = set(config) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown keys in {what}: {sorted(unknown)}")
    for key, value in config.items():
        if not has_type(value, kinds[key]):
            raise ConfigError(f"{what}: {key!r} must be of type {kinds[key]}, got {value!r}")
    return config

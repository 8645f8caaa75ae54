"""Exception types shared across the package, and the finiteness check that
every config dataclass runs.

Argument-validation failures raise plain ValueError; lookups of missing
plan entries raise KeyError. Everything else funnels through the classes
below so the CLI can map failures to stable exit codes.
"""

import dataclasses
import math


class DataError(Exception):
    """A dataset, artifact, or subset is structurally unusable."""


class ParseError(DataError):
    """A persisted artifact is malformed; carries a 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NumericError(Exception):
    """A computation produced or received non-finite or degenerate values."""


class ConfigError(Exception):
    """An experiment configuration or strategy parameter set is invalid."""


def require_finite(config) -> None:
    """Raise ConfigError if any float field of a config dataclass is NaN or ±inf.

    NaN slips through every `<`/`<=` range check, so this runs first.
    """
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")

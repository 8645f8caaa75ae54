"""Exception types shared across the package, and the field check that
every config dataclass runs.

Argument-validation failures raise plain ValueError; lookups of missing
plan entries raise KeyError. Everything else funnels through the classes
below so the CLI can map failures to stable exit codes.
"""

import dataclasses
import math
import numbers


class DataError(Exception):
    """A dataset, artifact, or subset is structurally unusable."""


class ParseError(DataError):
    """A persisted artifact is malformed; the message starts with the
    file's path and a 1-based line number, and `line` carries the number."""

    def __init__(self, message, line=None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line


class NumericError(Exception):
    """A computation produced or received non-finite or degenerate values.

    `cell` is the index of the model of a stack the failure concerns, or
    None when it concerns no stack.
    """

    def __init__(self, message, cell=None):
        super().__init__(message)
        self.cell = cell


class ConfigError(Exception):
    """An experiment configuration or strategy parameter set is invalid."""


def _check_number(name: str, value, kind: str) -> None:
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    elif isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    elif isinstance(value, numbers.Integral):
        try:
            float(value)
        except OverflowError:
            raise ConfigError(
                f"{name} must be finite, got an integer beyond the float range"
            ) from None
    elif not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")


def check_fields(config) -> None:
    """Raise ConfigError if a numeric field of a config dataclass has the
    wrong type or is NaN or ±inf.

    Fields annotated `int` take integers only, `float` fields take finite
    floats or integers within the float range, and bools pass as neither.
    `X | None` also takes None and `tuple[X, ...]` checks every element.
    NaN slips through every `<`/`<=` range check and a string fails them
    with a TypeError, so this runs before them. It reads the annotations as
    strings, so the module of the dataclass must use `from __future__ import
    annotations`.
    """
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if not isinstance(f.type, str):
            raise TypeError(f"{type(config).__name__} needs postponed annotations")
        kind = f.type
        if kind.endswith(" | None"):
            if value is None:
                continue
            kind = kind[: -len(" | None")]
        if kind.startswith("tuple[") and kind.endswith(", ...]"):
            kind = kind[len("tuple[") : -len(", ...]")]
            if not isinstance(value, (tuple, list)):
                raise ConfigError(f"{f.name} must be a list, got {value!r}")
            if kind in ("int", "float"):
                for item in value:
                    _check_number(f.name, item, kind)
        elif kind in ("int", "float"):
            _check_number(f.name, value, kind)

"""Exception types shared across the package, and check_value, the one config rule.

The CLI maps these onto exit codes through error_kind and EXIT_CODES:
ConfigError -> 1, InputError, ParseError and FileNotFoundError -> 2,
NumericError / TrainingAbort -> 3.
"""

import sys
from dataclasses import fields
from numbers import Integral, Real


class InputError(ValueError):
    """Invalid data passed to an operation (bad ids, empty sets, bad files)."""


class ParseError(InputError):
    """Malformed record in a dataset file; the message names its file line."""

    def __init__(self, message: str, path: str = "", line: int = 0):
        super().__init__(f"{path}:{line}: {message}" if path else message)


class ConfigError(ValueError):
    """Inconsistent or invalid configuration (shapes, hyperparameters, flags)."""


def check_value(name: str, value, kind: type):
    """`value` as `kind`, or a ConfigError naming `name`. An int counts as a
    float; a bool is no number; a number must be finite, and an int >= 0, since
    every config int is a count or a seed. Any other kind is an isinstance check."""
    number = isinstance(value, Real) and not isinstance(value, bool)
    if kind is int:
        ok, rule = number and isinstance(value, Integral) and value >= 0, "an integer >= 0"
    elif kind is float:  # compared, not converted, so a huge int cannot overflow
        ok, rule = number and abs(value) <= sys.float_info.max, "a finite number"
    else:
        ok, rule = isinstance(value, kind), kind.__name__
    if not ok:
        raise ConfigError(f"{name} must be {rule}, got {value!r}")
    return kind(value) if kind in (int, float) else value


def check_types(cfg, section: str):
    """check_value on each field of the dataclass `cfg`, by its declared type."""
    for f in fields(cfg):
        check_value(f"{section}.{f.name}", getattr(cfg, f.name), f.type)


class NumericError(ArithmeticError):
    """A non-finite value appeared where the computation requires finite numbers."""


class TrainingAbort(RuntimeError):
    """Training diverged, as pugraph.train.TrainConfig defines it, at the epoch
    its message names; carries the parameters of the last good epoch (a dict
    of arrays, as pugraph.nn.init_params returns) and the records before it."""

    def __init__(self, message: str, last_good: dict, records: list):
        super().__init__(message)
        self.last_good = last_good
        self.records = list(records)


EXIT_CODES = {"config": 1, "data": 2, "numeric": 3}


def error_kind(exc: BaseException) -> str | None:
    """The EXIT_CODES key of an exception, or None if the CLI does not map it."""
    if isinstance(exc, ConfigError):
        return "config"
    if isinstance(exc, (InputError, FileNotFoundError)):
        return "data"
    if isinstance(exc, (NumericError, TrainingAbort)):
        return "numeric"
    return None

"""Exception types shared across the package.

The CLI maps these onto exit codes through error_kind and EXIT_CODES:
ConfigError -> 1, InputError, ParseError and FileNotFoundError -> 2,
NumericError / TrainingAbort -> 3.
"""


class InputError(ValueError):
    """Invalid data passed to an operation (bad ids, empty sets, bad files)."""


class ParseError(InputError):
    """Malformed record in a dataset file; carries the offending line number."""

    def __init__(self, message: str, path: str = "", line: int = 0):
        super().__init__(f"{path}:{line}: {message}" if path else message)
        self.path = path
        self.line = line


class ConfigError(ValueError):
    """Inconsistent or invalid configuration (shapes, hyperparameters, flags)."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where the computation requires finite numbers."""


class TrainingAbort(RuntimeError):
    """Training diverged; carries the parameters of the last good epoch (a
    dict of arrays, as pugraph.nn.init_params returns) and the per-epoch
    records logged before the abort.

    Divergence is a forward pass that puts every score on the Y_EPS clip, or
    a non-finite loss or activation (see pugraph.train.TrainConfig).
    """

    def __init__(self, message: str, epoch: int, last_good: dict, records: list):
        super().__init__(message)
        self.epoch = epoch
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

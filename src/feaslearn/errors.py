"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument is outside its documented domain."""


class ShapeError(ParameterError):
    """Array dimensions are inconsistent with the model or dataset."""


class NumericError(RuntimeError):
    """A computation produced non-finite values.

    ``ids`` names the offending samples when known, so callers can report
    which constraints blew up rather than a bare NaN.
    """

    def __init__(self, message, ids=None):
        super().__init__(message)
        self.ids = [int(i) for i in ids] if ids is not None else []


def named_rows(mask, ids=None) -> list[int]:
    """Ids of the rows where the boolean array mask holds (positions if ids is None)."""
    rows = mask.nonzero()[0]
    return [int(i) for i in (rows if ids is None else ids[rows])]


class ConfigError(ValueError):
    """An experiment config failed validation."""

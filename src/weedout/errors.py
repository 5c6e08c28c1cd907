"""Exception types shared across the package, and the field checks that
config dataclasses build their problem lists from."""

import math


class WeedoutError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatchError(WeedoutError, ValueError):
    """Tensor shapes do not agree for the requested operation."""


class SpecValidationError(WeedoutError, ValueError):
    """A layer stack is dimensionally inconsistent or otherwise malformed."""


class MaskMismatchError(WeedoutError, ValueError):
    """A mask set is not congruent with the network it is applied to."""


class InfeasibleSparsityError(WeedoutError, ValueError):
    """The requested sparsity ratio would deactivate an entire layer."""


class UnsupportedModeError(WeedoutError, ValueError):
    """The operation does not support this mask mode."""


class DivergenceError(WeedoutError, RuntimeError):
    """Training produced a non-finite loss; the run is aborted."""


class FormatError(WeedoutError, ValueError):
    """A binary file does not match its expected on-disk format."""


class ChecksumError(WeedoutError, RuntimeError):
    """Stored data does not match its recorded checksum or derivation."""


class ConfigError(WeedoutError, ValueError):
    """An experiment config failed validation.

    ``problems`` lists one human-readable message per offending field.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def check_number(name: str, value, kind: type, lo=None, hi=None, *,
                 lo_open: bool = False, hi_open: bool = False) -> list[str]:
    """``[]`` if ``value`` is a finite ``kind`` (int or float) within the
    bounds, else one ``"name: reason"`` line. Booleans are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or (kind is int and not isinstance(value, int)):
        return [f"{name}: expected {kind.__name__}, got {value!r}"]
    if isinstance(value, float) and not math.isfinite(value):
        return [f"{name}: must be finite, got {value}"]
    if lo is not None and (value <= lo if lo_open else value < lo):
        return [f"{name}: must be {'>' if lo_open else '>='} {lo}, got {value}"]
    if hi is not None and (value >= hi if hi_open else value > hi):
        return [f"{name}: must be {'<' if hi_open else '<='} {hi}, got {value}"]
    return []


def check_member(name: str, value, allowed: tuple) -> list[str]:
    """``[]`` if ``value`` is one of ``allowed``, else one ``"name: reason"`` line."""
    if value in allowed:
        return []
    return [f"{name}: must be one of {allowed}, got {value!r}"]

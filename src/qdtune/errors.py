"""Exception types shared across the package, and the check of settings fields
that raises them."""

import math
import numbers


class QdtuneError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(QdtuneError):
    """A parameter, config file, or argument combination is invalid."""


class DomainError(QdtuneError):
    """A voltage or window lies outside the device domain."""


class ShapeError(QdtuneError):
    """An array has the wrong shape or an axis is too short."""


class ScanFormatError(QdtuneError):
    """A scan, model, or dataset file is malformed.

    The message names the offending field where possible.
    """


class ScanVersionError(ScanFormatError):
    """A file declares a schema version this build does not read."""


class UnsupportedResolutionError(QdtuneError):
    """A window was requested at a resolution the source cannot provide."""


class TrainingDivergedError(QdtuneError):
    """Training produced a non-finite loss."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"non-finite loss at training step {step}")


def check_setting(config, name: str, sign: str | None = "positive") -> None:
    """Refuse ``config.name`` unless it is a finite number, and a "positive"
    or "non-negative" one when ``sign`` says so; a tuple setting is refused
    unless each of its numbers passes. NaN and infinity are refused, and the
    ConfigurationError names the class and the field."""
    value = getattr(config, name)
    passes = {"positive": lambda v: v > 0, "non-negative": lambda v: v >= 0, None: lambda v: True}[sign]
    several = isinstance(value, (tuple, list))
    if not all(math.isfinite(v) and passes(v) for v in (value if several else (value,))):
        kind = f"{sign} finite number" if sign else "finite number"
        kind = f"{kind}s" if several else f"a {kind}"
        raise ConfigurationError(f"{type(config).__name__}.{name} must be {kind}, got {value}")


def check_count(where: str, value, sign: str = "positive") -> None:
    """The integer form of :func:`check_setting`: refuse ``value``, the field or
    parameter ``where``, unless it is a positive (or, for a seed, non-negative)
    integer. A bool is refused, and so is a float, whole or not."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integral and (value > 0 if sign == "positive" else value >= 0)):
        raise ConfigurationError(f"{where} must be a {sign} integer, got {value!r}")

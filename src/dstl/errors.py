"""Exception types, and the integer and real-number checks of the configs,
shared across the package."""

from numbers import Real

import numpy as np


class InputError(ValueError):
    """Invalid user input: malformed files, inconsistent shapes, bad options."""


class NumericError(RuntimeError):
    """A numerical routine failed to produce a trustworthy result."""


def check_integer(name: str, val, low: int) -> None:
    """Raise InputError unless val is an int or a numpy integer (a bool is
    not) of at least low."""
    if isinstance(val, bool) or not isinstance(val, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {val!r}")
    if val < low:
        raise InputError(f"{name} must be >= {low}, got {val}")


def check_real(name: str, val, rule: str, holds) -> None:
    """Raise InputError unless val is a real number (a bool is not) for
    which holds(val) is true; rule says in words what holds asks."""
    if isinstance(val, bool) or not isinstance(val, Real):
        raise InputError(f"{name} must be a real number, got {val!r}")
    if not holds(val):
        raise InputError(f"{name} {rule}, got {val}")


def check_integers(config, **minimum) -> None:
    """check_integer on each named field of config and its minimum."""
    for nm, low in minimum.items():
        check_integer(nm, getattr(config, nm), low)

"""Exception types, and the integer check of the configs, shared across the package."""

import numpy as np


class InputError(ValueError):
    """Invalid user input: malformed files, inconsistent shapes, bad options."""


class NumericError(RuntimeError):
    """A numerical routine failed to produce a trustworthy result."""


def check_integers(config, **minimum) -> None:
    """Raise InputError unless each named field of config is an int or a
    numpy integer (a bool is not) of at least its given minimum."""
    for nm, low in minimum.items():
        val = getattr(config, nm)
        if isinstance(val, bool) or not isinstance(val, (int, np.integer)):
            raise InputError(f"{nm} must be an integer, got {val!r}")
        if val < low:
            raise InputError(f"{nm} must be >= {low}, got {val}")

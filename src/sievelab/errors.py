"""Exception types shared across the sieve modules, the one check of a number's
domain and the one check of a predicted cost against its cap."""

import math
import numbers


class InputError(ValueError):
    """Raised when arguments are outside a function's documented domain."""


class CapacityError(RuntimeError):
    """Raised when a request would exceed a configured size budget (see ``within``)."""


class DensityRangeError(ValueError):
    """Raised when a local density at a prime p falls outside [0, p)."""


def finite(v, name: str, above=None, least=None):
    """v, checked to be a finite real number, > ``above`` and >= ``least`` where given.

    Raises:
        InputError: v is not a real number, is NaN or infinite, or is out of bounds.
        CapacityError: v is an int (or a Fraction) past the range of a float.
    """
    try:
        ok = isinstance(v, (int, float, numbers.Real)) and math.isfinite(v)  # ABC tested last
    except OverflowError:  # every quantity is read as a float somewhere
        raise CapacityError(f"{name} is past the range of a float") from None
    if ok and (above is None or v > above) and (least is None or v >= least):
        return v
    bound = f" > {above}" if above is not None else f" >= {least}" if least is not None else ""
    raise InputError(f"{name} must be a finite number{bound}, got {v!r}")


def integer(v, name: str, least=None) -> int:
    """v as an int: an int, or a float with an integral value; >= ``least`` where given.

    Raises:
        InputError: v is not an integer, or is below ``least``.
        CapacityError: v is past the range of a float.
    """
    if isinstance(v, (int, numbers.Integral)) or isinstance(v, float) and v.is_integer():
        v = int(finite(v, name))
        if least is None or v >= least:
            return v
    bound = f" >= {least}" if least is not None else ""
    raise InputError(f"{name} must be an integer{bound}, got {v!r}")


def within(work: int, cap: int, what: str) -> int:
    """work, checked to be at most ``cap``: a predicted cost (entries, nodes,
    pairs, a largest value) compared before the work is done.

    Ints compare exactly, past 2^63 too.

    Raises:
        CapacityError: work > cap; the message names what, the work and the cap.
    """
    if work > cap:
        raise CapacityError(f"{what}: {work} is past the cap of {cap}")
    return work

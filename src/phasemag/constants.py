"""Physical constants, unit conversions and the scalar argument rules.

Internal convention: every frequency-like quantity is an angular frequency
in rad/s, times are in seconds and magnetic fields in tesla.  Interface
layers (CLI, file formats) speak ordinary frequencies in MHz, times in us
and fields in mT and convert at that boundary.

A scalar argument of the library (a rate, time, turn count, count,
uncertainty or scale) is checked by one of the ``check_*`` rules below,
which raise InvalidParameter naming the argument: "<name> must be positive
and finite, got <value>", and likewise for the other rules.  Relations
between arguments, grids and overflow caps are checked where they arise.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import InvalidParameter

TWO_PI = 2.0 * math.pi
# most drive-phase turns per half of the phase-swept sequence: its chirp
# phase 4*pi*N*(1 - cos theta) reaches 8*pi*N, which must stay below 2^52
# rad, past which adjacent doubles are a radian apart
MAX_TURNS = 2**47


def check_positive(name: str, value: float) -> float:
    """``value``, or InvalidParameter unless it is positive and finite."""
    if not 0 < value < math.inf:
        raise InvalidParameter(f"{name} must be positive and finite, got {value}")
    return value


def check_nonnegative(name: str, value: float) -> float:
    """``value``, or InvalidParameter unless it is nonnegative and finite."""
    if not 0 <= value < math.inf:
        raise InvalidParameter(f"{name} must be nonnegative and finite, got {value}")
    return value


def check_finite(name: str, value: float) -> float:
    """``value``, or InvalidParameter unless it is finite."""
    if not -math.inf < value < math.inf:
        raise InvalidParameter(f"{name} must be finite, got {value}")
    return value


def check_gamma(gamma: float) -> float:
    """The one rule for the gyromagnetic ratio: positive and finite."""
    return check_positive("gamma", gamma)


def check_turns(n) -> int:
    """``n`` as an int, or InvalidParameter unless it is an integer turn
    count in [1, ``MAX_TURNS``]; the range is tested first, so no
    non-finite value reaches ``int``."""
    try:
        ok = 1 <= n <= MAX_TURNS and int(n) == n
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise InvalidParameter(f"n_rotations must be <= {MAX_TURNS} and an "
                               f"integer >= 1, got {n}")
    return int(n)


def check_count(name: str, value) -> int:
    """``value`` as an int, or InvalidParameter unless it is an integer >= 1."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < 1):
        raise InvalidParameter(f"{name} must be >= 1 and an integer, "
                               f"got {value!r}")
    return int(value)


@dataclass(frozen=True)
class PhysicalConstants:
    """Spin-sensor constants.

    Parameters
    ----------
    gamma : float
        Gyromagnetic ratio as angular frequency per tesla
        (default 2*pi*28 GHz/T).
    hyperfine_splitting : float
        Splitting between adjacent hyperfine lines, rad/s
        (default 2*pi*2.16 MHz).
    """

    gamma: float = TWO_PI * 28.0e9
    hyperfine_splitting: float = TWO_PI * 2.16e6

    def __post_init__(self):
        check_gamma(self.gamma)
        check_positive("hyperfine_splitting", self.hyperfine_splitting)


#: Default constants for the NV electronic spin.
NV = PhysicalConstants()


def angular_from_mhz(f_mhz: float) -> float:
    """Ordinary frequency in MHz to angular frequency in rad/s."""
    return TWO_PI * f_mhz * 1e6

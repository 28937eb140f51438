"""Physical constants and unit conversions.

Internal convention: every frequency-like quantity is an angular frequency
in rad/s, times are in seconds and magnetic fields in tesla.  Interface
layers (CLI, file formats) speak ordinary frequencies in MHz, times in us
and fields in mT; the helpers below convert at that boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameter

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PhysicalConstants:
    """Spin-sensor constants.

    Parameters
    ----------
    gamma : float
        Gyromagnetic ratio as angular frequency per tesla
        (default 2*pi*28 GHz/T).
    zero_field_splitting : float
        Ground-state splitting, rad/s.  Informational only; the library
        works in the rotating frame of the addressed transition.
    hyperfine_splitting : float
        Splitting between adjacent hyperfine lines, rad/s
        (default 2*pi*2.16 MHz).
    bias_field : float
        Static bias field in tesla that isolates the two-level subspace.
        Informational only.
    """

    gamma: float = TWO_PI * 28.0e9
    zero_field_splitting: float = TWO_PI * 2.87e9
    hyperfine_splitting: float = TWO_PI * 2.16e6
    bias_field: float = 9.6e-3

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise InvalidParameter(
                f"gamma must be positive and finite, got {self.gamma}")
        if not 0 < self.hyperfine_splitting < math.inf:
            raise InvalidParameter(
                "hyperfine_splitting must be positive and finite, got "
                f"{self.hyperfine_splitting}")


#: Default constants for the NV electronic spin.
NV = PhysicalConstants()


def angular_from_mhz(f_mhz: float) -> float:
    """Ordinary frequency in MHz to angular frequency in rad/s."""
    return TWO_PI * f_mhz * 1e6


def mhz_from_angular(omega: float) -> float:
    """Angular frequency in rad/s to ordinary frequency in MHz."""
    return omega / (TWO_PI * 1e6)


def seconds_from_us(t_us: float) -> float:
    return t_us * 1e-6


def us_from_seconds(t: float) -> float:
    return t * 1e6


def tesla_from_mt(b_mt: float) -> float:
    return b_mt * 1e-3


def mt_from_tesla(b: float) -> float:
    return b * 1e3

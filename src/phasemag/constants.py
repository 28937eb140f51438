"""Physical constants and unit conversions.

Internal convention: every frequency-like quantity is an angular frequency
in rad/s, times are in seconds and magnetic fields in tesla.  Interface
layers (CLI, file formats) speak ordinary frequencies in MHz, times in us
and fields in mT and convert at that boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameter

TWO_PI = 2.0 * math.pi
# most drive-phase turns per half of the phase-swept sequence: its chirp
# phase 4*pi*N*(1 - cos theta) reaches 8*pi*N, which must stay below 2^52
# rad, past which adjacent doubles are a radian apart
MAX_TURNS = 2**47


def check_gamma(gamma: float) -> None:
    """InvalidParameter unless the gyromagnetic ratio is positive and finite."""
    if not 0 < gamma < math.inf:
        raise InvalidParameter(f"gamma must be positive and finite, got {gamma}")


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
        if not 0 < self.hyperfine_splitting < math.inf:
            raise InvalidParameter(
                "hyperfine_splitting must be positive and finite, got "
                f"{self.hyperfine_splitting}")


#: Default constants for the NV electronic spin.
NV = PhysicalConstants()


def angular_from_mhz(f_mhz: float) -> float:
    """Ordinary frequency in MHz to angular frequency in rad/s."""
    return TWO_PI * f_mhz * 1e6

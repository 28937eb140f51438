"""Closed-form signal models, field ranges, slopes and sensitivity.

Two signal families:

* dynamic phase (free precession between two pi/2 pulses):
      P(B) = cos(gamma * B * T)
  periodic in B, so only one fringe 2*pi/(gamma*T) is unambiguous.

* geometric phase (phase-swept drive, N turns per half, echo in the middle):
      P(B) = cos[4*pi*N * (1 - gamma*B / sqrt((gamma*B)^2 + Omega^2))]
  a chirp in B whose last minimum defines the field range.

Slopes are analytic derivatives; the sensitivity figure is the per-shot
signal noise divided by the best slope, scaled by the square root of the
shot duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import MAX_TURNS, NV, TWO_PI, PhysicalConstants
from .errors import DegenerateSlope, InvalidParameter, OutOfRange
from .solve import NoRoot, find_root

__all__ = [
    "DynamicModel",
    "GeometricModel",
    "HyperfineModel",
    "SensitivityReport",
    "ramsey_signal",
    "ramsey_slope",
    "ramsey_ambiguities",
    "ramsey_field_range",
    "berry_signal",
    "berry_slope",
    "berry_phase_argument",
    "berry_field_range",
    "sensitivity",
    "hyperfine_average",
    "adiabaticity",
    "adiabaticity_small_field",
]


def _check_gamma(gamma: float):
    if not 0 < gamma < math.inf:
        raise InvalidParameter(f"gamma must be positive and finite, got {gamma}")


@dataclass(frozen=True)
class DynamicModel:
    """Free-precession signal model: interaction time and gyromagnetic ratio."""

    duration: float
    gamma: float = NV.gamma

    def __post_init__(self):
        if not 0 < self.duration < math.inf:
            raise InvalidParameter(
                f"duration must be positive and finite, got {self.duration}")
        _check_gamma(self.gamma)


@dataclass(frozen=True)
class GeometricModel:
    """Phase-swept drive signal model: Rabi rate and turn count per half."""

    rabi: float
    n_rotations: int
    gamma: float = NV.gamma

    def __post_init__(self):
        if not 0 < self.rabi < math.inf:
            raise InvalidParameter(
                f"rabi must be positive and finite, got {self.rabi}")
        _check_gamma(self.gamma)
        if int(self.n_rotations) != self.n_rotations or self.n_rotations < 1:
            raise InvalidParameter(
                f"n_rotations must be a positive integer, got {self.n_rotations}"
            )
        if self.n_rotations > MAX_TURNS:
            raise InvalidParameter(
                f"n_rotations must be <= {MAX_TURNS}, got {self.n_rotations}")


@dataclass(frozen=True)
class HyperfineModel:
    """Triplet of detuning offsets with normalized weights."""

    detunings: tuple = (-NV.hyperfine_splitting, 0.0, NV.hyperfine_splitting)
    weights: tuple = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

    def __post_init__(self):
        if len(self.detunings) != len(self.weights):
            raise InvalidParameter("detunings and weights must have equal length")
        if any(w < 0 for w in self.weights):
            raise InvalidParameter("weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise InvalidParameter("weights must sum to 1")

    @classmethod
    def triplet(cls, constants: PhysicalConstants = NV) -> "HyperfineModel":
        d = constants.hyperfine_splitting
        return cls(detunings=(-d, 0.0, d))


@dataclass(frozen=True)
class SensitivityReport:
    """Outcome of a sensitivity evaluation."""

    eta: float
    max_slope: float
    b_at_max_slope: float
    sigma_p: float
    overhead: float


# ---------------------------------------------------------------------------
# dynamic phase
# ---------------------------------------------------------------------------

def ramsey_signal(m: DynamicModel, b):
    """P(B) = cos(gamma*B*T)."""
    return np.cos(m.gamma * np.asarray(b, dtype=float) * m.duration)


def ramsey_slope(m: DynamicModel, b):
    """dP/dB = -gamma*T*sin(gamma*B*T)."""
    return -m.gamma * m.duration * np.sin(m.gamma * np.asarray(b, dtype=float) * m.duration)


def ramsey_field_range(m: DynamicModel) -> float:
    """One full fringe, 2*pi/(gamma*T)."""
    return TWO_PI / (m.gamma * m.duration)


def ramsey_ambiguities(m: DynamicModel, p_meas: float,
                       b_window: tuple[float, float]) -> list[float]:
    """All fields in the window that produce the measured signal.

    The full preimage of cos is the ladder (+/- acos(P) + 2*pi*k)/(gamma*T);
    both branches are enumerated, duplicates merged, result sorted ascending.
    """
    if not -1.0 <= p_meas <= 1.0:
        raise InvalidParameter(f"|P| must be <= 1, got {p_meas}")
    return [b for b, _ in _ramsey_ladder(m, p_meas, b_window)]


# the fringe ladders enumerate every fringe they cover; beyond this many a
# list of candidates carries no information and only exhausts memory
_MAX_FRINGES = 100_000


def _check_fringe_count(count: float) -> None:
    if not count <= _MAX_FRINGES:
        raise OutOfRange(f"the search covers {count:.3g} fringes; at most "
                         f"{_MAX_FRINGES} are enumerated")


def _ramsey_ladder(m: DynamicModel, p: float,
                   b_window: tuple[float, float]) -> list[tuple[float, int]]:
    """(B, fringe k) pairs in the window with cos(gamma*B*T) = p, |p| <= 1.

    B = (2*pi*k +/- acos(p))/(gamma*T), sorted by (B, k); fields within
    1e-12 of the window scale of the previous kept one are merged into it.
    A non-finite window bound raises InvalidParameter, and a window of more
    than ``_MAX_FRINGES`` fringes raises OutOfRange before any is listed.
    """
    lo, hi = float(b_window[0]), float(b_window[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidParameter(f"field window must be finite, got {b_window}")
    if hi < lo:
        return []
    a = math.acos(p)
    gt = m.gamma * m.duration
    _check_fringe_count((hi - lo) * gt / TWO_PI + 3.0)
    k_lo = math.floor((lo * gt - a) / TWO_PI) - 1
    k_hi = math.ceil((hi * gt + a) / TWO_PI) + 1
    raw = []
    for k in range(k_lo, k_hi + 1):
        for phi in (TWO_PI * k + a, TWO_PI * k - a):
            b = phi / gt
            if lo - 1e-18 <= b <= hi + 1e-18:
                raw.append((b, k))
    raw.sort()
    ladder = []
    scale = max(abs(hi), abs(lo), 1.0 / gt)
    for b, k in raw:
        if not ladder or b - ladder[-1][0] > 1e-12 * scale:
            ladder.append((b, k))
    return ladder


# ---------------------------------------------------------------------------
# geometric phase
# ---------------------------------------------------------------------------

def berry_phase_argument(m: GeometricModel, b):
    """Accumulated phase 4*pi*N*(1 - cos(theta)) as a function of field.

    cos(theta) = gamma*B/R runs from 0 at B=0 to 1 as B grows, so the
    argument decreases monotonically from 4*pi*N to 0.
    """
    det = m.gamma * np.asarray(b, dtype=float)
    r = np.hypot(det, m.rabi)
    return 4.0 * math.pi * m.n_rotations * (1.0 - det / r)


def berry_signal(m: GeometricModel, b):
    """P(B) = cos(berry_phase_argument).  Depends on B and Omega via B/Omega only."""
    return np.cos(berry_phase_argument(m, b))


def berry_slope(m: GeometricModel, b):
    """Analytic dP/dB = sin(arg) * 4*pi*N*gamma*Omega^2 / R^3.

    The envelope is evaluated as (Omega/R)^2 / R, so Omega^2 and R^3 cannot
    overflow or underflow where the quotient itself is a float.
    """
    det = m.gamma * np.asarray(b, dtype=float)
    r = np.hypot(det, m.rabi)
    envelope = 4.0 * math.pi * m.n_rotations * m.gamma * (m.rabi / r)**2 / r
    return np.sin(berry_phase_argument(m, b)) * envelope


def berry_field_range(m: GeometricModel) -> float:
    """Largest field whose signal is an oscillation minimum.

    Solves 4*pi*N*(1 - cos theta) = pi in closed form:
        cos(theta) = 1 - 1/(4N),
        gamma*B_max = Omega * c / sqrt(1 - c^2)  with c = 1 - 1/(4N).
    Asymptotically gamma*B_max -> Omega*sqrt(2N).
    """
    c = 1.0 - 1.0 / (4.0 * m.n_rotations)
    return m.rabi * c / math.sqrt(1.0 - c * c) / m.gamma


# ---------------------------------------------------------------------------
# sensitivity
# ---------------------------------------------------------------------------

# grid on which the best slope is first located, before refinement
_GRID_POINTS = 2001


def sensitivity(signal_fn: Callable, slope_fn: Callable | None,
                b_search: tuple[float, float], duration: float,
                sigma_p: float = 1.0, overhead: float = 0.0) -> SensitivityReport:
    """Shot-noise sensitivity: sigma_P * sqrt(T + overhead) / max |dP/dB|.

    |dP/dB| is maximized on a grid of ``_GRID_POINTS`` points over
    ``b_search``, then refined between the best point's neighbours a and b
    to 1e-12 of the window, as the root (``solve.find_root``, bracket
    fixed) of the fall s*(slope(x - e) - slope(x + e)), e = 1e-3 (b - a),
    s the sign of the best grid slope.  Near the peak that is the fall of
    |slope|, bit for bit, but it has no root where the slope crosses zero.
    With no root in [a, b] (a peak at the window's edge), or a smaller
    |slope| at it, the grid point stands.  ``slope_fn`` may be None, in
    which case a central difference of ``signal_fn`` is used.
    """
    if not duration > 0:
        raise InvalidParameter(f"duration must be positive, got {duration}")
    if not sigma_p > 0:
        raise InvalidParameter(f"sigma_p must be positive, got {sigma_p}")
    lo, hi = float(b_search[0]), float(b_search[1])
    if not hi > lo:
        raise InvalidParameter("b_search must be a nonempty interval")

    if slope_fn is None:
        db = (hi - lo) * 1e-6

        def slope_fn(b):
            return (np.asarray(signal_fn(np.asarray(b) + 0.5 * db))
                    - np.asarray(signal_fn(np.asarray(b) - 0.5 * db))) / db

    grid = np.linspace(lo, hi, _GRID_POINTS)
    slopes = np.asarray(slope_fn(grid), dtype=float)
    i = int(np.argmax(np.abs(slopes)))
    best, best_b = abs(float(slopes[i])), float(grid[i])
    a = float(grid[max(0, i - 1)])
    b = float(grid[min(_GRID_POINTS - 1, i + 1)])
    eps = 1e-3 * (b - a)
    sign = math.copysign(1.0, slopes[i])

    def fall(x):
        return sign * (float(slope_fn(x - eps)) - float(slope_fn(x + eps)))

    try:
        x = find_root(fall, a, b, steps=0, xtol=(hi - lo) * 1e-12)
    except NoRoot:
        pass
    else:
        refined = abs(float(slope_fn(x)))
        if refined >= best:
            best, best_b = refined, x

    if best < 1e-15:
        raise DegenerateSlope(
            f"max |dP/dB| = {best:.3e} over [{lo:.3e}, {hi:.3e}]"
        )
    eta = sigma_p * math.sqrt(duration + overhead) / best
    return SensitivityReport(eta=eta, max_slope=best, b_at_max_slope=best_b,
                             sigma_p=sigma_p, overhead=overhead)


# ---------------------------------------------------------------------------
# hyperfine averaging and adiabaticity
# ---------------------------------------------------------------------------

def hyperfine_average(base_signal: Callable, h: HyperfineModel, x):
    """Weighted average of ``base_signal(detuning_offset, x)`` over the triplet.

    ``x`` is whatever the base signal sweeps (field or time).  With all
    offsets zero this reduces to the base signal exactly.
    """
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x, dtype=float)
    for d, w in zip(h.detunings, h.weights):
        total = total + w * np.asarray(base_signal(d, x), dtype=float)
    return total if total.shape else float(total)


def adiabaticity(rabi: float, n_rotations: int, duration: float, b: float,
                 gamma: float = NV.gamma) -> float:
    """Slow-driving parameter A = (phase rate) * sin(theta) / (2*R).

    With the sweep rate 4*pi*N/T and sin(theta) = Omega/R this is
    A = (4*pi*N/T) * Omega / (2*R^2); at B=0 it reduces to 2*pi*N/(Omega*T).
    A << 1 means the Bloch vector follows the rotating Larmor vector.
    """
    if not duration > 0:
        raise InvalidParameter(f"duration must be positive, got {duration}")
    r_sq = rabi**2 + (gamma * b) ** 2
    if r_sq == 0.0:
        raise InvalidParameter("rabi and field cannot both be zero")
    return (4.0 * math.pi * n_rotations / duration) * rabi / (2.0 * r_sq)


def adiabaticity_small_field(rabi: float, n_rotations: int, duration: float) -> float:
    """Shorthand A ~ N/(Omega*T) with Omega angular; 2*pi below the exact B=0 value."""
    if not duration > 0:
        raise InvalidParameter(f"duration must be positive, got {duration}")
    if not rabi > 0:
        raise InvalidParameter(f"rabi must be positive, got {rabi}")
    return n_rotations / (rabi * duration)

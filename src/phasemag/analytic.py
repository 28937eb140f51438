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
shot duration.  The best slope is exact: gamma*T for ramsey wherever the
window holds a peak, and for berry the best of at most two lobes on each
side of the window point nearest zero field, since the slope envelope falls
with |B| and a whole lobe reaches it (``sensitivity``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import (NV, TWO_PI, check_finite, check_gamma,
                        check_nonnegative, check_positive, check_turns)
from .errors import DegenerateSlope, InvalidParameter, OutOfRange
from .solve import find_root

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


@dataclass(frozen=True)
class DynamicModel:
    """Free-precession signal model: interaction time and gyromagnetic ratio."""

    duration: float
    gamma: float = NV.gamma

    def __post_init__(self):
        check_positive("duration", self.duration)
        check_gamma(self.gamma)


@dataclass(frozen=True)
class GeometricModel:
    """Phase-swept drive signal model: Rabi rate and turn count per half."""

    rabi: float
    n_rotations: int
    gamma: float = NV.gamma

    def __post_init__(self):
        check_positive("rabi", self.rabi)
        check_gamma(self.gamma)
        check_turns(self.n_rotations)


@dataclass(frozen=True)
class HyperfineModel:
    """Triplet of detuning offsets with normalized weights."""

    detunings: tuple = (-NV.hyperfine_splitting, 0.0, NV.hyperfine_splitting)
    weights: tuple = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

    def __post_init__(self):
        if len(self.detunings) != len(self.weights):
            raise InvalidParameter("detunings and weights must have equal length")
        if not all(math.isfinite(d) for d in self.detunings):
            raise InvalidParameter("detunings must be finite")
        if not all(0 <= w < math.inf for w in self.weights):
            raise InvalidParameter("weights must be nonnegative and finite")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise InvalidParameter("weights must sum to 1")

    @classmethod
    def triplet(cls, splitting: float = NV.hyperfine_splitting) -> "HyperfineModel":
        """Equal weights on -d, 0 and d for the line splitting d (rad/s)."""
        d = check_positive("hyperfine_splitting", splitting)
        return cls(detunings=(-d, 0.0, d))


@dataclass(frozen=True)
class SensitivityReport:
    """Outcome of a sensitivity evaluation."""

    eta: float
    max_slope: float
    b_at_max_slope: float


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
    gt = m.gamma * m.duration
    return [phi / gt for phi, _ in
            _fringe_phases(p_meas, b_window[0] * gt, b_window[1] * gt)]


# the fringe ladders enumerate every fringe they cover; beyond this many a
# list of candidates carries no information and only exhausts memory
_MAX_FRINGES = 100_000


def _fringe_phases(p: float, lo: float, hi: float) -> list[tuple[float, int]]:
    """(phase, k) pairs with phase = 2*pi*k +/- acos(p) in [lo, hi], |p| <= 1,
    sorted: the preimage of cos that both fringe ladders and the ramsey peak
    test list.  A phase within 1e-12 max(|lo|, |hi|, 1) of the last kept one
    is merged into it, and one that close outside [lo, hi] moved onto its
    end.  A non-finite interval raises InvalidParameter, and one of more
    than ``_MAX_FRINGES`` fringes OutOfRange, before any phase is listed.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidParameter(f"phase interval must be finite, got [{lo}, {hi}]")
    count = (hi - lo) / TWO_PI + 3.0
    if not count <= _MAX_FRINGES:
        raise OutOfRange(f"the search covers {count:.3g} fringes; at most "
                         f"{_MAX_FRINGES} are enumerated")
    a = math.acos(p)
    tol = 1e-12 * max(abs(lo), abs(hi), 1.0)
    raw = sorted((min(max(phi, lo), hi), k)
                 for k in range(math.floor((lo - a) / TWO_PI) - 1,
                                math.ceil((hi + a) / TWO_PI) + 2)
                 for phi in (TWO_PI * k + a, TWO_PI * k - a)
                 if lo - tol <= phi <= hi + tol)
    ladder = []
    for phi, k in raw:
        if not ladder or phi - ladder[-1][0] > tol:
            ladder.append((phi, k))
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


def _berry_envelope(m: GeometricModel, r):
    """4*pi*N*gamma*Omega^2/R^3 at Larmor rate R, evaluated as (Omega/R)^2/R
    so that Omega^2 and R^3 cannot overflow or underflow where the quotient
    itself is a float."""
    return 4.0 * math.pi * m.n_rotations * m.gamma * (m.rabi / r)**2 / r


def berry_slope(m: GeometricModel, b):
    """Analytic dP/dB = sin(arg) * 4*pi*N*gamma*Omega^2 / R^3."""
    det = m.gamma * np.asarray(b, dtype=float)
    r = np.hypot(det, m.rabi)
    return np.sin(berry_phase_argument(m, b)) * _berry_envelope(m, r)


def _berry_field(m: GeometricModel, u: float) -> float:
    """Inverse of ``berry_phase_argument``: the field where it is 4*pi*N*u,
    gamma*B = Omega*c/sqrt(1 - c^2) with c = 1 - u; +-inf past u = 0 and 2."""
    c = 1.0 - u
    s = 1.0 - c * c
    if not s > 0:
        return math.copysign(math.inf, c)
    return m.rabi * c / math.sqrt(s) / m.gamma


def berry_field_range(m: GeometricModel) -> float:
    """Largest field whose signal is an oscillation minimum.

    Solves 4*pi*N*(1 - cos theta) = pi in closed form:
        cos(theta) = 1 - 1/(4N),
        gamma*B_max = Omega * c / sqrt(1 - c^2)  with c = 1 - 1/(4N).
    Asymptotically gamma*B_max -> Omega*sqrt(2N).
    """
    return _berry_field(m, 1.0 / (4.0 * m.n_rotations))


# ---------------------------------------------------------------------------
# sensitivity
# ---------------------------------------------------------------------------

def sensitivity(model: DynamicModel | GeometricModel,
                b_search: tuple[float, float], duration: float,
                sigma_p: float = 1.0, overhead: float = 0.0) -> SensitivityReport:
    """Shot-noise sensitivity: sigma_P * sqrt(T + overhead) / max |dP/dB|.

    The maximum of |dP/dB| over the finite window ``b_search`` is exact.
    Ramsey: gamma*T where the window holds a phase gamma*B*T = pi/2 + k*pi
    (``_fringe_phases`` at p = 0; a window that holds one holds one within
    half a fringe of its point nearest zero field), else the larger end.
    Berry: dP/dB = sin(phi) E, and the envelope E = 4*pi*N*gamma*Omega^2/R^3
    falls with |B|.  Lobes are the spans between fields where phi = k*pi.
    Out from the window point nearest zero field the second lobe is whole,
    so |sin phi| reaches 1 in it at an E no lower than anywhere beyond: the
    maximum lies in the first two lobes on each side.  The slope's
    derivative is -E h(B) with h = E cos(phi) + 3 gamma^2 B sin(phi) / R^2,
    and h = +-E at the lobe edges, so a lobe's peak is the one root of h in
    it (``solve.find_root``, bracket fixed, xtol 1e-12 of the lobe); the
    window's ends are candidates too.
    A non-finite window raises InvalidParameter, and a berry envelope that
    overflows at the window point nearest zero field OutOfRange.
    """
    check_positive("duration", duration)
    check_positive("sigma_p", sigma_p)
    check_nonnegative("overhead", overhead)
    lo, hi = float(b_search[0]), float(b_search[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise InvalidParameter(
            f"b_search must be a finite nonempty interval, got {b_search}")
    b0 = min(max(0.0, lo), hi)  # the window point nearest zero field
    if isinstance(model, DynamicModel):
        gt = model.gamma * model.duration
        p0 = b0 * gt
        if not math.isfinite(p0):
            # |B0| > 1.8e308/(gamma*T) needs gamma*T > 1, so one float step
            # of B spans more than 2**-52 * 1.8e308 rad: many peaks
            best, best_b = gt, b0
        else:
            peaks = _fringe_phases(0.0, max(lo * gt, p0 - math.pi),
                                   min(hi * gt, p0 + math.pi))
            best, best_b = (gt, peaks[0][0] / gt) if peaks else max(
                (abs(float(ramsey_slope(model, b))), b) for b in (lo, hi))
    elif isinstance(model, GeometricModel):
        best, best_b = _berry_peak(model, lo, hi, b0)
    else:
        raise InvalidParameter(
            f"sensitivity needs a DynamicModel or GeometricModel, got {model!r}")
    if best < 1e-15:
        raise DegenerateSlope(
            f"max |dP/dB| = {best:.3e} over [{lo:.3e}, {hi:.3e}]"
        )
    eta = sigma_p * math.sqrt(duration + overhead) / best
    return SensitivityReport(eta=eta, max_slope=best, b_at_max_slope=best_b)


def _berry_peak(m: GeometricModel, lo: float, hi: float, b0: float) -> tuple[float, float]:
    """Best |dP/dB| over [lo, hi] and its field, from at most two lobes on
    each side of b0, the window point nearest zero field (``sensitivity``)."""
    x0 = m.gamma * b0
    r0 = math.hypot(x0, m.rabi)
    if not math.isfinite(_berry_envelope(m, r0)):
        raise OutOfRange(f"the slope envelope 4*pi*N*gamma*Omega^2/R^3 "
                         f"overflows at B = {b0:.3g} T")
    quarters = 4.0 * m.n_rotations
    n4pi = math.pi * quarters

    def h(b):  # h(B) / E
        x = m.gamma * b
        r = math.hypot(x, m.rabi)
        phi = n4pi * (1.0 - x / r)
        return math.cos(phi) + 3.0 * math.sin(phi) * (r / m.rabi) * (x / m.rabi) / n4pi

    # phi(b0)/pi; phi = k*pi at the lobe edges, and phi falls as B grows
    j = quarters * (1.0 - x0 / r0)
    ks = (math.floor(j) + 2, math.floor(j) + 1, math.ceil(j) - 1, math.ceil(j) - 2)
    edges = sorted({b0, *(min(max(_berry_field(m, k / quarters), lo), hi)
                          for k in ks)})
    fields = set(edges)
    for a, b in zip(edges, edges[1:]):
        if h(a) * h(b) < 0:
            sign = math.copysign(1.0, h(b))
            fields.add(find_root(lambda x: sign * h(x), a, b, steps=0,
                                 xtol=1e-12 * (b - a)))
    return max((abs(float(berry_slope(m, x))), x) for x in fields)


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
    Non-finite arguments, a rabi < 0, a duration <= 0 and a turn count that
    ``constants.check_turns`` refuses raise InvalidParameter.
    """
    check_nonnegative("rabi", rabi)
    check_turns(n_rotations)
    check_positive("duration", duration)
    check_finite("b", b)
    check_finite("gamma", gamma)
    r_sq = rabi**2 + (gamma * b) ** 2
    if r_sq >= sys.float_info.min:
        return (4.0 * math.pi * n_rotations / duration) * rabi / (2.0 * r_sq)
    # R^2 is subnormal or zero: the same quotient on Omega and gamma*B scaled
    # up by 2^600, which is exact and makes R^2 a normal float
    scale = 2.0**600
    r_sq = (rabi * scale)**2 + (gamma * b * scale) ** 2
    if r_sq == 0.0:
        raise InvalidParameter("rabi and gamma*B are both zero")
    return (4.0 * math.pi * n_rotations / duration) * (rabi * scale) / (2.0 * r_sq) * scale


def adiabaticity_small_field(rabi: float, n_rotations: int, duration: float) -> float:
    """Shorthand A ~ N/(Omega*T) with Omega angular; 2*pi below the exact B=0 value."""
    check_positive("rabi", rabi)
    check_turns(n_rotations)
    check_positive("duration", duration)
    return n_rotations / (rabi * duration)

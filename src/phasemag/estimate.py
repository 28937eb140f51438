"""Inversion of measured signals to magnetic field values.

The chirped geometric-phase signal has a finite preimage for any signal
level: the cosine argument decreases monotonically from 4*pi*N at B=0 to 0
at large field, so each arccos branch contributes at most one candidate per
2*pi of argument.  The slope dP/dB then selects a unique candidate because
its envelope decreases strictly with field.  The free-precession signal, by
contrast, has an irreducible phase ladder: slope information can only pick a
branch within one fringe, never the fringe itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analytic import (DynamicModel, GeometricModel, _berry_envelope,
                       _berry_field, _fringe_phases, berry_field_range,
                       berry_signal, berry_slope, ramsey_field_range,
                       ramsey_signal, ramsey_slope)
from .constants import check_finite, check_nonnegative
from .errors import InvalidParameter, OutOfRange, Unresolvable

__all__ = [
    "Measurement",
    "FieldEstimate",
    "measure_geometric",
    "measure_dynamic",
    "geometric_candidates",
    "estimate_geometric",
    "estimate_dynamic",
]


@dataclass(frozen=True)
class Measurement:
    """Signal value with an optional slope reading and per-value noise."""

    p: float
    slope: Optional[float] = None
    sigma: float = 0.0
    slope_sigma: float = 0.0

    def __post_init__(self):
        check_finite("p", self.p)
        if self.slope is not None:
            check_finite("slope", self.slope)
        check_nonnegative("sigma", self.sigma)
        check_nonnegative("slope_sigma", self.slope_sigma)
        if abs(self.p) > 1.0 + 3.0 * self.sigma:
            raise OutOfRange(
                f"|P|={abs(self.p):g} exceeds 1 beyond the 3-sigma noise allowance"
            )


@dataclass(frozen=True)
class FieldEstimate:
    """A candidate (or chosen) field value with bookkeeping."""

    b_hat: float
    candidates_considered: int
    lobe_index: int
    confidence: float
    clamped: bool = False


def measure_geometric(m: GeometricModel, b: float, delta_b: Optional[float] = None,
                      sigma: float = 0.0,
                      rng: Optional[np.random.Generator] = None) -> Measurement:
    """Forward model: signal plus two-point finite-difference slope.

    The slope is differenced at b +/- delta_b/2 (default span B_max/1000).
    With ``sigma`` > 0 and an ``rng``, Gaussian noise is added to all three
    signal evaluations.
    """
    check_nonnegative("sigma", sigma)
    if delta_b is None:
        delta_b = berry_field_range(m) / 1e3
    p = float(berry_signal(m, b))
    p_lo = float(berry_signal(m, b - delta_b / 2.0))
    p_hi = float(berry_signal(m, b + delta_b / 2.0))
    if sigma > 0.0:
        if rng is None:
            raise InvalidParameter("noisy measurements need an rng")
        p += sigma * rng.standard_normal()
        p_lo += sigma * rng.standard_normal()
        p_hi += sigma * rng.standard_normal()
    slope = (p_hi - p_lo) / delta_b
    slope_sigma = math.sqrt(2.0) * sigma / delta_b if sigma > 0 else 0.0
    return Measurement(p=min(1.0, max(-1.0, p)) if sigma == 0 else p,
                       slope=slope, sigma=sigma, slope_sigma=slope_sigma)


def measure_dynamic(m: DynamicModel, b: float, delta_b: Optional[float] = None) -> Measurement:
    """Forward model for the free-precession signal (noiseless)."""
    if delta_b is None:
        delta_b = ramsey_field_range(m) / 1e3
    p = float(ramsey_signal(m, b))
    slope = float((ramsey_signal(m, b + delta_b / 2)
                   - ramsey_signal(m, b - delta_b / 2)) / delta_b)
    return Measurement(p=min(1.0, max(-1.0, p)), slope=slope)


def _clamp_signal(meas: Measurement) -> tuple[float, bool]:
    p = meas.p
    if abs(p) <= 1.0:
        return p, False
    if abs(p) <= 1.0 + 3.0 * meas.sigma:
        return math.copysign(1.0, p), True
    raise OutOfRange(f"|P|={abs(p):g} is unphysical beyond noise allowance")


def geometric_candidates(m: GeometricModel, p: float) -> list[tuple[float, int]]:
    """All fields in [0, B_max] with the given signal, as (B, lobe) pairs.

    Candidates are the arccos branches of the monotone argument: each
    arg = 2*pi*k +/- acos(p) within [pi, 4*pi*N] (``_fringe_phases``) is
    inverted to a field (``_berry_field``).  The lobe index counts
    half-oscillations from B=0.  More than ``analytic._MAX_FRINGES``
    fringes raise OutOfRange before any is listed.
    """
    n4pi = 4.0 * math.pi * m.n_rotations
    out = []
    for g, _ in reversed(_fringe_phases(max(-1.0, min(1.0, p)), math.pi, n4pi)):
        b = _berry_field(m, g / n4pi)
        if not math.isfinite(b):
            raise OutOfRange(f"the candidate field at phase {g:.6g} overflows")
        out.append((b, int((n4pi - g) // math.pi)))
    return out


def estimate_geometric(m: GeometricModel, meas: Measurement) -> FieldEstimate:
    """Pick the field candidate whose analytic slope matches the measured one.

    Raises ``Unresolvable`` when the two best candidates match the slope
    equally well within the combined uncertainty (always the case at signal
    extrema, where every candidate has zero slope).
    """
    if meas.slope is None:
        raise InvalidParameter("geometric estimation requires a slope reading")
    p, clamped = _clamp_signal(meas)
    cands = geometric_candidates(m, p)
    if not cands:
        raise Unresolvable("no candidates in range", candidates=())
    # slope scale of the model (envelope at small field), not of the candidates:
    # at signal extrema every candidate slope collapses to ~0 and must tie.
    # It bounds every candidate's slope, so a finite scale keeps them finite.
    slope_scale = _berry_envelope(m, m.rabi)
    if not math.isfinite(slope_scale):
        raise OutOfRange("the slope envelope 4*pi*N*gamma/Omega overflows")
    slopes = np.array([float(berry_slope(m, b)) for b, _ in cands])
    resid = np.abs(slopes - meas.slope)
    order = np.argsort(resid)
    best = int(order[0])
    tie_tol = max(3.0 * meas.slope_sigma, 1e-9 * slope_scale)
    if len(cands) > 1:
        second = int(order[1])
        if resid[second] - resid[best] <= tie_tol:
            raise Unresolvable(
                "two candidates match the measured slope within uncertainty",
                candidates=tuple(cands[i][0] for i in (best, second)),
            )
    gap = resid[int(order[1])] - resid[best] if len(cands) > 1 else resid[best]
    denom = resid[int(order[1])] + resid[best] if len(cands) > 1 else max(resid[best], 1e-300)
    confidence = float(gap / denom) if denom > 0 else 1.0
    return FieldEstimate(
        b_hat=cands[best][0],
        candidates_considered=len(cands),
        lobe_index=cands[best][1],
        confidence=confidence,
        clamped=clamped,
    )


def estimate_dynamic(m: DynamicModel, meas: Measurement,
                     prior_window: tuple[float, float]) -> list[FieldEstimate]:
    """Every field in the window consistent with the signal (the full ladder).

    The slope, when present, scores candidates within each fringe but cannot
    remove the fringe ambiguity; all candidates are returned sorted by field,
    best slope match first within equal fields.
    """
    p, clamped = _clamp_signal(meas)
    gt = m.gamma * m.duration  # phase per tesla, and the largest |dP/dB|
    ladder = _fringe_phases(p, prior_window[0] * gt, prior_window[1] * gt)
    estimates = []
    for phi, k in ladder:
        b = phi / gt
        if meas.slope is not None:
            resid = abs(float(ramsey_slope(m, b)) - meas.slope)
            conf = 1.0 / (1.0 + resid / gt)
        else:
            conf = 0.0
        estimates.append(FieldEstimate(
            b_hat=b, candidates_considered=len(ladder), lobe_index=k,
            confidence=conf, clamped=clamped,
        ))
    return estimates

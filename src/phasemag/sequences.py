"""Pulse-sequence plans and their execution against the Bloch propagator.

Three protocols are built from instantaneous pulses, free evolution and
linearly phase-swept drive segments:

* ramsey:  pi/2 - free(T) - pi/2
* hahn:    pi/2 - free(T/2) - pi - free(T/2) - pi/2
* berry:   pi/2 - sweep(+, N turns, T/2) - pi - sweep(-, N turns, T/2) - pi/2

Readout convention: the preparation pi/2 pulse is about +x, refocusing pi
pulses are about +y, and the final pi/2 pulse is about -x; the signal P is
the final s_z.  With the right-handed precession convention of
:mod:`phasemag.core` this yields P = cos(phi) for accumulated phase phi, so
zero phase gives P = 1 for all three protocols (a same-axis final pulse
would flip the sign of P and break that normalization).

The swept halves of the berry plan follow a global drive phase 4*pi*N*t/T
whose direction is reversed after the midpoint pulse; the second half starts
at the first half's final phase value so the control path stays closed.

``execute`` and ``execute_batch`` run a plan at static fields B; they take
the gyromagnetic ratio ``gamma`` and the noisy mesh's tolerance ``tol`` as
plain floats.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import core
from .constants import MAX_TURNS, NV, TWO_PI, check_gamma
from .errors import InvalidParameter
from .noise import OUBank

__all__ = [
    "IdealPulse",
    "FreeEvolution",
    "SweptDrive",
    "Segment",
    "SequencePlan",
    "PREP_PHASE",
    "REFOCUS_PHASE",
    "READOUT_PHASE",
    "build_ramsey",
    "build_hahn",
    "build_berry",
    "execute",
    "execute_batch",
]

PREP_PHASE = 0.0
REFOCUS_PHASE = math.pi / 2.0
READOUT_PHASE = math.pi


@dataclass(frozen=True)
class IdealPulse:
    axis_phase: float
    angle: float

    def __post_init__(self):
        if not (math.isfinite(self.axis_phase) and math.isfinite(self.angle)):
            raise InvalidParameter(f"the pulse axis phase and angle must be finite, "
                                   f"got {self.axis_phase} and {self.angle}")

    @property
    def duration(self) -> float:
        return 0.0


@dataclass(frozen=True)
class FreeEvolution:
    duration: float

    def __post_init__(self):
        if not 0 <= self.duration < math.inf:
            raise InvalidParameter(
                f"duration must be >= 0 and finite, got {self.duration}")


@dataclass(frozen=True)
class SweptDrive:
    """Drive at fixed Rabi rate whose phase ramps linearly in time."""

    rabi: float
    phase_start: float
    phase_rate: float
    duration: float

    def __post_init__(self):
        if not 0 <= self.rabi < math.inf:
            raise InvalidParameter(f"rabi must be >= 0 and finite, got {self.rabi}")
        if not (math.isfinite(self.phase_start) and math.isfinite(self.phase_rate)):
            raise InvalidParameter(
                f"the drive phase must be finite, got start {self.phase_start} "
                f"and rate {self.phase_rate}")
        if not 0 <= self.duration < math.inf:
            raise InvalidParameter(
                f"duration must be >= 0 and finite, got {self.duration}")


Segment = Union[IdealPulse, FreeEvolution, SweptDrive]


@dataclass(frozen=True)
class SequencePlan:
    """Ordered segments with a label.

    ``duration`` is the total interaction time; construction checks that the
    evolution segments actually add up to it.
    """

    segments: tuple
    label: str
    duration: float

    def __post_init__(self):
        total = sum(s.duration for s in self.segments)
        if not (math.isfinite(self.duration)
                and abs(total - self.duration) <= 1e-12 * max(self.duration, 1e-30)):
            raise InvalidParameter(
                f"segment durations sum to {total}, expected {self.duration}"
            )


def build_ramsey(duration: float) -> SequencePlan:
    """Free-precession interferometer of interaction time ``duration``."""
    if not duration > 0:
        raise InvalidParameter(f"duration must be positive, got {duration}")
    segments = (
        IdealPulse(PREP_PHASE, math.pi / 2.0),
        FreeEvolution(duration),
        IdealPulse(READOUT_PHASE, math.pi / 2.0),
    )
    return SequencePlan(segments, "ramsey", duration)


def build_hahn(duration: float) -> SequencePlan:
    """Echo sequence: static fields refocus, so P = 1 for noise-free runs."""
    if not duration > 0:
        raise InvalidParameter(f"duration must be positive, got {duration}")
    segments = (
        IdealPulse(PREP_PHASE, math.pi / 2.0),
        FreeEvolution(duration / 2.0),
        IdealPulse(REFOCUS_PHASE, math.pi),
        FreeEvolution(duration / 2.0),
        IdealPulse(READOUT_PHASE, math.pi / 2.0),
    )
    return SequencePlan(segments, "hahn", duration)


def build_berry(rabi: float, n_rotations: int, duration: float) -> SequencePlan:
    """Alternating phase-swept drive, N turns per half, echo at the midpoint.

    Each half sweeps the drive phase through N full turns at rate
    +/- 4*pi*N/T, which cancels the dynamic phase between the halves while
    the geometric contributions add.
    """
    if not rabi > 0:
        raise InvalidParameter(f"rabi must be positive, got {rabi}")
    if int(n_rotations) != n_rotations or n_rotations < 1:
        raise InvalidParameter(
            f"n_rotations must be a positive integer, got {n_rotations}"
        )
    if n_rotations > MAX_TURNS:
        raise InvalidParameter(
            f"n_rotations must be <= {MAX_TURNS}, got {n_rotations}")
    if not duration > 0:
        raise InvalidParameter(f"duration must be positive, got {duration}")
    n_rotations = int(n_rotations)
    rate = 4.0 * math.pi * n_rotations / duration
    half = duration / 2.0
    segments = (
        IdealPulse(PREP_PHASE, math.pi / 2.0),
        SweptDrive(rabi, 0.0, rate, half),
        IdealPulse(REFOCUS_PHASE, math.pi),
        SweptDrive(rabi, TWO_PI * n_rotations, -rate, half),
        IdealPulse(READOUT_PHASE, math.pi / 2.0),
    )
    return SequencePlan(segments, "berry", duration)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def execute(plan: SequencePlan, b: float,
            noise_trajectory: Optional[OUBank] = None, tol: float = 1e-6,
            gamma: float = NV.gamma) -> float:
    """Run a plan at static field ``b`` and return the signal P in [-1, 1].

    The spin starts in (0, 0, 1) and sees the detuning gamma*b + delta(t),
    delta(t) the rad/s noise of a one-channel ``OUBank`` (0 for None), with
    t measured from the start of the sequence.
    """
    return float(execute_batch(plan, np.array([b], dtype=float),
                               noise_trajectory, tol, gamma)[0])


def execute_batch(plan: SequencePlan, b_values,
                  noise_trajectory: Optional[OUBank] = None,
                  tol: float = 1e-6, gamma: float = NV.gamma) -> np.ndarray:
    """Vectorized ``execute`` over a 1-D grid of static fields.

    ``noise_trajectory`` is None or an ``OUBank`` with one channel, which
    every field shares, or with one channel per field.  Fields that are not
    a finite 1-D grid, any other noise, knots that end before the plan
    does, a ``tol`` that is not positive, a gamma that is not positive and
    finite (``constants.check_gamma``) and a gamma*B that overflows raise
    InvalidParameter.  No fields give an empty array.

    Each field carries one Cayley-Klein pair (a, b) (``phasemag.core``)
    from |0> to the readout, where P = |a|^2 - |b|^2; every segment
    composes its own pair onto it.  A pulse is a pair of Python complex
    numbers.  Free evolution over [t0, t1] is a z rotation by
    gamma*B*(t1 - t0) plus the integral of the bank's detuning delta, which
    multiplies both members by exp(-i angle/2).  The bank interpolates
    linearly between its knots, so that integral is exact
    (``OUBank.detuning_integral``) and free evolution never needs a mesh.

    Every sweep passes through the frame that co-rotates with its linearly
    ramped drive phase (``_in_drive_frame``), whose two z rotations become
    two scalar phase factors on the frame's pair.  Without noise the Larmor
    vector is constant in that frame, so each segment is one closed-form
    rotation per field (``_apply_swept_exact``).  With noise only its z
    component varies, linearly between the bank's knots, and the frame
    propagation runs on a mesh aligned with those knots (``_run_swept``):
    each knot interval is cut into 2**d equal slices, and each slice takes
    one interaction-picture Magnus step, exact for the constant part of the
    Larmor vector whatever its length.  So the mesh follows the slope of
    the noise alone, not the Larmor rate or the turns of the drive phase:
    d is the fewest halvings whose a-priori error bound meets ``tol`` on
    every field, and all fields share that mesh.  An undriven sweep is free
    evolution, since its phase ramp turns nothing.  ``tol`` governs that
    mesh only; more than ``core._MAX_DEPTH`` halvings raise
    ConvergenceFailure.
    """
    b_values = np.atleast_1d(np.asarray(b_values, dtype=float))
    if b_values.ndim != 1:
        raise InvalidParameter("fields must be a 1-D grid")
    if not np.all(np.isfinite(b_values)):
        raise InvalidParameter("fields must be finite")
    core._check_tol(tol)
    check_gamma(gamma)
    noise = noise_trajectory
    if noise is not None:
        if not isinstance(noise, OUBank):
            raise InvalidParameter(
                f"noise must be an OUBank, got {type(noise).__name__}")
        if noise.n_traj not in (1, b_values.size):
            raise InvalidParameter(
                f"a bank of {noise.n_traj} channels does not fit "
                f"{b_values.size} fields")
        # n*dt may round just below the duration the knots were drawn for
        if noise.times[-1] < plan.duration * (1.0 - 1e-9):
            raise InvalidParameter(
                f"noise knots end at {noise.times[-1]:g} s, before the "
                f"plan's {plan.duration:g} s")
    # a Python float, so that an overflow is inf and not a numpy warning
    if not gamma * float(np.max(np.abs(b_values), initial=0.0)) < math.inf:
        raise InvalidParameter("gamma*B overflows")

    # the pair of each field, from |0> to the readout
    pair = (np.ones(b_values.size, dtype=complex),
            np.zeros(b_values.size, dtype=complex))
    dets_static = gamma * b_values

    t_start = 0.0
    for seg in plan.segments:
        if isinstance(seg, IdealPulse):
            pair = core._mul(core._axis_pair(seg.axis_phase, seg.angle), pair)
            continue
        if isinstance(seg, SweptDrive) and seg.rabi > 0.0:
            if noise is None:
                pair = _apply_swept_exact(pair, seg, dets_static)
            else:
                pair = _run_swept(pair, seg, dets_static, noise, t_start, tol)
        elif isinstance(seg, (FreeEvolution, SweptDrive)):
            # an undriven sweep is free evolution: its phase ramp turns nothing
            angles = dets_static * seg.duration
            if noise is not None:
                angles = angles + noise.detuning_integral(t_start,
                                                          t_start + seg.duration)
            pair = _precess_z(pair, angles)
        else:
            raise InvalidParameter(f"unknown segment type {type(seg)!r}")
        t_start += seg.duration
    a, b = pair
    return a.real**2 + a.imag**2 - (b.real**2 + b.imag**2)


def _precess_z(pair, angles):
    """Follow each field's pair (m,) by a z rotation by its own angle (m,).

    Rz(angle) has the pair (exp(-i angle/2), 0), so both members take that
    phase factor.
    """
    phase = np.exp(-0.5j * angles)
    return pair[0] * phase, pair[1] * phase


def _in_drive_frame(pair, seg: SweptDrive, frame):
    """Follow ``pair`` by a linearly swept segment, given the pairs (m,)
    ``frame`` of its evolution U in the co-rotating frame.

    In the frame that co-rotates with the drive phase phi(t) = phi0 + r*t the
    Larmor vector is (rabi, 0, gamma*B + delta(t) - r): the phase ramp
    becomes a constant offset and only the noise delta(t) varies.  The segment is

        Rz(phi1) . U . Rz(-phi0),   phi1 = phi0 + r*T

    (Rabi, Ramsey & Schwinger, Rev. Mod. Phys. 26, 167 (1954)).  With U =
    (a, b) that is the pair (a exp(i(phi0 - phi1)/2), b exp(-i(phi0 +
    phi1)/2)).
    """
    phi0 = seg.phase_start
    phi1 = phi0 + seg.phase_rate * seg.duration
    a, b = frame
    return core._mul((a * cmath.exp(0.5j * (phi0 - phi1)),
                      b * cmath.exp(-0.5j * (phi0 + phi1))), pair)


def _apply_swept_exact(pair, seg: SweptDrive, dets_static):
    """Closed-form propagation of a noise-free linearly swept drive.

    The frame Larmor vector (rabi, 0, gamma*B - r) is constant, so U is one
    rotation per field, by its length times T.
    """
    wz = dets_static - seg.phase_rate
    return _in_drive_frame(pair, seg, core._pairs(
        seg.rabi, 0.0, wz, seg.duration, np.hypot(seg.rabi, wz)))


def _run_swept(pair, seg: SweptDrive, dets_static, noise: OUBank, t_start,
               tol):
    """Mesh propagation of one swept segment under a noise trajectory.

    The mesh runs in the co-rotating frame of ``_in_drive_frame``, where the
    Larmor vector is (rabi, 0, w(t)) with w = gamma*B + delta(t) - r.  The
    bank's delta is linear between its knots, so w is exactly linear between
    the knots inside the segment.  The mesh edges are those knots and the
    segment ends, with w taken from the knot values, and each interval is
    cut into as many equal slices of one interaction-picture Magnus step
    as the error bound of ``core._knot_refine`` needs to meet ``tol``.
    """
    t_end = t_start + seg.duration
    inner = (noise.times > t_start) & (noise.times < t_end)
    edges = np.concatenate(([t_start], noise.times[inner], [t_end]))
    ends = noise(np.array([t_start, t_end]))
    # detunings at the edges, (K+1, 1) shared by every field or (K+1, m)
    dets = (dets_static[None, :]
            + np.concatenate((ends[:1], noise.values[inner], ends[1:]))
            - seg.phase_rate)
    frame, _ = core._knot_refine(seg.rabi, np.diff(edges), dets, tol)
    return _in_drive_frame(pair, seg, frame)

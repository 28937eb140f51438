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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import core
from .constants import NV, TWO_PI, PhysicalConstants
from .core import StepControl
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

    @property
    def duration(self) -> float:
        return 0.0


@dataclass(frozen=True)
class FreeEvolution:
    duration: float

    def __post_init__(self):
        if not self.duration >= 0:
            raise InvalidParameter(f"duration must be >= 0, got {self.duration}")


@dataclass(frozen=True)
class SweptDrive:
    """Drive at fixed Rabi rate whose phase ramps linearly in time."""

    rabi: float
    phase_start: float
    phase_rate: float
    duration: float

    def __post_init__(self):
        if not self.rabi >= 0:
            raise InvalidParameter(f"rabi must be >= 0, got {self.rabi}")
        if not self.duration >= 0:
            raise InvalidParameter(f"duration must be >= 0, got {self.duration}")


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
        if abs(total - self.duration) > 1e-12 * max(self.duration, 1e-30):
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

def _pulse_matrix(pulse: IdealPulse) -> np.ndarray:
    axis = (math.cos(pulse.axis_phase), math.sin(pulse.axis_phase), 0.0)
    return core._rotation_matrices(*axis, pulse.angle)


def execute(plan: SequencePlan, b: float,
            noise_trajectory: Optional[OUBank] = None,
            step_control: Optional[StepControl] = None,
            constants: PhysicalConstants = NV) -> float:
    """Run a plan at static field ``b`` and return the signal P in [-1, 1].

    The spin starts in (0, 0, 1); the detuning seen during evolution is
    gamma*(b + noise(t)) with t measured from the start of the sequence,
    and the noise is a one-channel ``OUBank`` or None.
    """
    return float(execute_batch(plan, np.array([b], dtype=float),
                               noise_trajectory=noise_trajectory,
                               step_control=step_control,
                               constants=constants)[0])


def execute_batch(plan: SequencePlan, b_values,
                  noise_trajectory: Optional[OUBank] = None,
                  step_control: Optional[StepControl] = None,
                  constants: PhysicalConstants = NV) -> np.ndarray:
    """Vectorized ``execute`` over a grid of static fields.

    ``noise_trajectory`` is None or an ``OUBank`` with one channel, which
    every field shares, or with one channel per field.  Any other noise,
    knots that end before the plan does, and a gamma*B that overflows raise
    InvalidParameter.

    Free evolution over [t0, t1] is one z rotation by gamma*B*(t1 - t0)
    plus the integral of the bank's detuning.  The bank interpolates
    linearly between its knots, so that integral is exact
    (``OUBank.detuning_integral``) and free evolution never needs a mesh.

    Every sweep passes through the frame that co-rotates with its linearly
    ramped drive phase (``_in_drive_frame``).  Without noise the Larmor
    vector is constant in that frame, so each segment is one closed-form
    rotation (``_apply_swept_exact``).  With noise only its z component
    varies, linearly between the bank's knots, and the frame propagation
    runs on a Richardson mesh aligned with those knots (``_run_swept``):
    each knot interval is cut into 2**j equal slices, j the smallest that
    keeps h*|R| <= pi and gives at least ``min_steps`` slices, and each
    slice takes one 4th-order Magnus rotation, exact for the constant part.
    So the halvings follow the noise, not the Larmor rate or the turns of
    the drive phase.  All fields share that mesh, and the refinement
    criterion is the worst Bloch-component change over the batch.

    ``step_control`` governs that mesh only: its ``tol``, its ``min_steps``
    and its ``max_depth`` (halvings past the start).
    """
    b_values = np.atleast_1d(np.asarray(b_values, dtype=float))
    if not np.all(np.isfinite(b_values)):
        raise InvalidParameter("fields must be finite")
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
    ctl = step_control or StepControl()
    gamma = constants.gamma
    # a Python float, so that an overflow is inf and not a numpy warning
    if not abs(gamma) * float(np.max(np.abs(b_values), initial=0.0)) < math.inf:
        raise InvalidParameter("gamma*B overflows")

    states = np.zeros((b_values.size, 3), dtype=float)
    states[:, 2] = 1.0
    dets_static = gamma * b_values

    t_start = 0.0
    for seg in plan.segments:
        if isinstance(seg, IdealPulse):
            states = states @ _pulse_matrix(seg).T
            continue
        if isinstance(seg, FreeEvolution):
            angles = dets_static * seg.duration
            if noise is not None:
                # the knots hold detunings for the bank's own gamma
                phase = noise.detuning_integral(t_start, t_start + seg.duration)
                angles = angles + phase * (gamma / noise.gamma)
            states = _precess_z(states, angles)
        elif not isinstance(seg, SweptDrive):
            raise InvalidParameter(f"unknown segment type {type(seg)!r}")
        elif noise is None:
            states = _apply_swept_exact(states, seg, dets_static)
        else:
            states = _run_swept(states, seg, dets_static, noise, gamma,
                                t_start, ctl)
        t_start += seg.duration
    return states[:, 2].copy()


def _precess_z(states, angles):
    """Rotate each state (m, 3) about +z by its own angle (m,)."""
    c, s = np.cos(angles), np.sin(angles)
    x = states[:, 0] * c - states[:, 1] * s
    y = states[:, 0] * s + states[:, 1] * c
    return np.stack([x, y, states[:, 2]], axis=1)


def _in_drive_frame(states, seg: SweptDrive, propagate):
    """Apply a linearly swept segment through its co-rotating frame.

    In the frame that co-rotates with the drive phase phi(t) = phi0 + r*t the
    Larmor vector is (rabi, 0, gamma*(B + b(t)) - r): the phase ramp becomes
    a constant detuning offset and only the noise b(t) varies.  The segment is

        s <- Rz(phi0 + r*T) . U . Rz(-phi0) . s

    where ``propagate`` applies the frame evolution U to the (m, 3) states
    (Rabi, Ramsey & Schwinger, Rev. Mod. Phys. 26, 167 (1954)).
    """
    states = _precess_z(states, -seg.phase_start)
    states = propagate(states)
    return _precess_z(states, seg.phase_start + seg.phase_rate * seg.duration)


def _apply_swept_exact(states, seg: SweptDrive, dets_static):
    """Closed-form propagation of a noise-free linearly swept drive.

    The frame Larmor vector (rabi, 0, gamma*B - r) is constant, so U is one
    rotation by |.|*T, evaluated as an (m, 3, 3) stack over the field grid.
    """
    if seg.rabi == 0.0:
        # no drive, so the phase ramp is irrelevant: plain free evolution
        return _precess_z(states, dets_static * seg.duration)
    wz = dets_static - seg.phase_rate
    r = np.hypot(seg.rabi, wz)
    frame = core._rotation_matrices(seg.rabi / r, 0.0, wz / r, r * seg.duration)
    return _in_drive_frame(states, seg,
                           lambda s: np.einsum("mij,mj->mi", frame, s))


def _run_swept(states, seg: SweptDrive, dets_static, noise: OUBank, gamma,
               t_start, ctl):
    """Mesh propagation of one swept segment under a noise trajectory.

    The mesh runs in the co-rotating frame of ``_in_drive_frame``, where the
    Larmor vector is (rabi, 0, w(t)) with w = gamma*(B + b(t)) - r.  The bank
    interpolates b linearly between its knots, so w is exactly linear
    between the knots inside the segment.  The mesh edges are those knots
    and the segment ends, with w taken from the knot values
    (``core._knot_refine``): each interval is cut into equal slices that
    each take one 4th-order Magnus rotation, and the slices halve until
    ``ctl.tol`` holds.
    """
    t_end = t_start + seg.duration
    inner = (noise.times > t_start) & (noise.times < t_end)
    edges = np.concatenate(([t_start], noise.times[inner], [t_end]))
    # field offsets at the edges, (K+1, 1) shared by every field or (K+1, m)
    offsets = np.concatenate((noise(t_start), noise.values[inner] / noise.gamma,
                              noise(t_end)))
    dets = dets_static[None, :] + gamma * offsets - seg.phase_rate

    def propagate(s):
        out, _ = core._knot_refine(s, seg.rabi, np.diff(edges), dets, ctl)
        return out

    return _in_drive_frame(states, seg, propagate)

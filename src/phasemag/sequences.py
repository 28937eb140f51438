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
from typing import Callable, Optional, Union

import numpy as np

from . import core
from .constants import NV, TWO_PI, PhysicalConstants
from .core import StepControl
from .errors import InvalidParameter

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
    """Ordered segments plus the declared control settings.

    ``duration`` is the total interaction time; construction checks that the
    evolution segments actually add up to it.
    """

    segments: tuple
    label: str
    duration: float
    rabi: Optional[float] = None
    n_rotations: Optional[int] = None

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
    return SequencePlan(segments, "berry", duration, rabi=rabi,
                        n_rotations=n_rotations)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _pulse_matrix(pulse: IdealPulse) -> np.ndarray:
    axis = (math.cos(pulse.axis_phase), math.sin(pulse.axis_phase), 0.0)
    return core._rotation_matrices(*axis, pulse.angle)


def execute(plan: SequencePlan, b: float,
            noise_trajectory: Optional[Callable[[float], float]] = None,
            step_control: Optional[StepControl] = None,
            constants: PhysicalConstants = NV) -> float:
    """Run a plan at static field ``b`` and return the signal P in [-1, 1].

    The spin starts in (0, 0, 1); the detuning seen during evolution is
    gamma*(b + noise(t)) with t measured from the start of the sequence.
    """
    return float(execute_batch(plan, np.array([b], dtype=float),
                               noise_trajectory=noise_trajectory,
                               step_control=step_control,
                               constants=constants)[0])


def execute_batch(plan: SequencePlan, b_values,
                  noise_trajectory: Optional[Callable] = None,
                  step_control: Optional[StepControl] = None,
                  constants: PhysicalConstants = NV) -> np.ndarray:
    """Vectorized ``execute`` over a grid of static fields.

    Without noise every segment is applied in closed form: free evolution is
    a z rotation and a linearly swept drive is a constant rotation in the
    frame that co-rotates with its phase (``_apply_swept_exact``), so
    ``step_control`` is not used.  With a noise trajectory, free and swept
    segments run on the Richardson mesh of ``core._swept_refine``; all fields
    share that mesh and the trajectory, and the refinement criterion is the
    worst Bloch-component change over the batch.
    """
    b_values = np.atleast_1d(np.asarray(b_values, dtype=float))
    if not np.all(np.isfinite(b_values)):
        raise InvalidParameter("fields must be finite")
    ctl = step_control or StepControl()
    gamma = constants.gamma

    states = np.zeros((b_values.size, 3), dtype=float)
    states[:, 2] = 1.0
    dets_static = gamma * b_values

    t_start = 0.0
    for seg in plan.segments:
        if isinstance(seg, IdealPulse):
            states = states @ _pulse_matrix(seg).T
        elif isinstance(seg, FreeEvolution):
            if noise_trajectory is None:
                states = _precess_z(states, dets_static * seg.duration)
            else:
                states = _run_swept(states, 0.0, 0.0, 0.0, seg.duration,
                                    dets_static, noise_trajectory, gamma,
                                    t_start, ctl)
            t_start += seg.duration
        elif isinstance(seg, SweptDrive):
            if noise_trajectory is None:
                states = _apply_swept_exact(states, seg, dets_static)
            else:
                states = _run_swept(states, seg.rabi, seg.phase_start,
                                    seg.phase_rate, seg.duration, dets_static,
                                    noise_trajectory, gamma, t_start, ctl)
            t_start += seg.duration
        else:
            raise InvalidParameter(f"unknown segment type {type(seg)!r}")
    return states[:, 2].copy()


def _precess_z(states, angles):
    """Rotate each state (m, 3) about +z by its own angle (m,)."""
    c, s = np.cos(angles), np.sin(angles)
    x = states[:, 0] * c - states[:, 1] * s
    y = states[:, 0] * s + states[:, 1] * c
    return np.stack([x, y, states[:, 2]], axis=1)


def _apply_swept_exact(states, seg: SweptDrive, dets_static):
    """Closed-form propagation of a noise-free linearly swept drive.

    In the frame that co-rotates with the drive phase phi(t) = phi0 + r*t the
    Larmor vector is the constant (rabi, 0, gamma*B - r), so the segment is

        s <- Rz(phi0 + r*T) . Rot((rabi, 0, gamma*B - r), |.|*T) . Rz(-phi0) . s

    (Rabi, Ramsey & Schwinger, Rev. Mod. Phys. 26, 167 (1954)), evaluated as
    one (m, 3, 3) stack over the field grid.
    """
    if seg.rabi == 0.0:
        # no drive, so the phase ramp is irrelevant: plain free evolution
        return _precess_z(states, dets_static * seg.duration)
    wz = dets_static - seg.phase_rate
    r = np.hypot(seg.rabi, wz)
    frame = core._rotation_matrices(seg.rabi / r, 0.0, wz / r, r * seg.duration)
    enter = core._rotation_matrices(0.0, 0.0, 1.0, -seg.phase_start)
    leave = core._rotation_matrices(
        0.0, 0.0, 1.0, seg.phase_start + seg.phase_rate * seg.duration)
    return np.einsum("mij,mj->mi", leave @ frame @ enter, states)


def _run_swept(states, rabi, phase_start, phase_rate, duration, dets_static,
               noise_trajectory, gamma, t_start, ctl):
    """Mesh propagation of one free or swept segment under a noise trajectory."""
    def phase_fn(t):
        return phase_start + phase_rate * np.asarray(t, dtype=float)

    def det_fn(t):
        t = np.asarray(t, dtype=float)
        offs = gamma * np.asarray(noise_trajectory(t_start + t), dtype=float)
        if offs.ndim == 0:
            offs = np.full(t.shape, float(offs))
        if offs.ndim == 1:
            offs = offs[:, None]
        # offs is now (n, 1) shared noise or (n, m) one stream per channel
        return dets_static[None, :] + offs

    out, _ = core._swept_refine(states, rabi, phase_fn, det_fn, duration, ctl)
    return out

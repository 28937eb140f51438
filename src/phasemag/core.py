"""Bloch-vector state and exact rotation propagators for a driven two-level spin.

In the rotating frame of the drive the spin sees an effective field described
by a drive amplitude Omega along the equatorial direction fixed by the drive
phase rho, and a detuning gamma*B along z.  The Bloch vector s precesses about
the instantaneous Larmor vector

    R(t) = (Omega cos rho, Omega sin rho, gamma*B),      ds/dt = R(t) x s(t),

at angular rate |R|.  Sign convention: positive detuning precesses the Bloch
vector from +x toward +y (right-handed about +z).  Signal formulas produced by
the sequence layer are even in this choice; it is fixed here so tests are
deterministic.

Propagation is always by exact rotations, each held as its Cayley-Klein
pair (a, b), the first row of its SU(2) matrix [[a, b], [-b*, a*]]
(Goldstein, Classical Mechanics, sec. 4.5).  One kernel serves every
propagator: ``_pairs`` builds the pairs of rotations about given vectors
from their half angles, ``_mul`` composes two pairs with four complex
multiplies, ``_reduce`` takes the time-ordered product of a stack of them
pairwise along its last axis (the slices; any leading axes, such as
channels, are carried along), and ``_apply`` rotates Bloch vectors by a
pair once, at the end.  From |0> a pair reaches (a, -b*), so the readout
s_z is |a|^2 - |b|^2.
Time-dependent controls are handled on meshes of such rotations.
``propagate_swept`` carries one state.  It samples the drive phase and the
detuning through functions of an array of times, each returning a scalar
or one value per time (any other shape is rejected), and each of its
slices is the 4th-order commutator-free Magnus step (Blanes & Moan, Appl.
Numer. Math. 56, 1519 (2006); Blanes, Casas, Oteo & Ros, Phys. Rep. 470,
151 (2009)): with R sampled at the two Gauss nodes of the slice, two exact
rotations about h*(A1*R1 + A2*R2) and then h*(A2*R1 + A1*R2),
A1,2 = 1/4 +- sqrt(3)/6.  That mesh is halved (``_swept_refine``) until a
Richardson error estimate meets ``tol``, from a start of at most
``_MAX_MESH`` slices, and takes at most ``_MAX_DEPTH`` halvings, else
``ConvergenceFailure``.  The noisy sweeps of ``sequences.execute_batch``
need no such mesh: the noise is held at its mean on each knot interval
(``noise.OUBank.held``), so they compose one exact ``_pairs`` rotation
per interval through ``_compose``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import (TWO_PI, check_finite, check_nonnegative,
                        check_positive)
from .errors import ConvergenceFailure, InvalidParameter

__all__ = [
    "SpinState",
    "DriveParams",
    "ConvergenceReport",
    "propagate_constant",
    "propagate_swept",
    "propagate_swept_report",
    "apply_ideal_pulse",
    "apply_resonant_pulse",
]

_NORM_SLACK = 1e-6
# default start: slices per 2*pi of drive-phase sweep and per Larmor turn.
# From 32 the CF4 step (error ~ h^4) meets tol after one or two halvings on
# quadratic drive-phase ramps; a coarser start would trust a first
# Richardson difference taken before the h^4 regime sets in
_STEPS_PER_PHASE_TURN = 32
_STEPS_PER_LARMOR_TURN = 32
# and the fewest slices a lab-frame mesh starts at
_MIN_STEPS = 16
# most halvings the lab-frame mesh's Richardson refinement may take to
# meet its tolerance
_MAX_DEPTH = 12
# The lab-frame step, the 4th-order commutator-free Magnus step (Blanes &
# Moan, Appl. Numer. Math. 56, 1519 (2006)): a slice [t, t + h] samples R at
# the Gauss nodes t + C1*h and t + C2*h, then rotates exactly about
# h*(A1*R1 + A2*R2) and then about h*(A2*R1 + A1*R2), so the first rotation
# leans on the earlier node
_SQRT3_6 = math.sqrt(3.0) / 6.0
_NODES = (0.5 - _SQRT3_6, 0.5 + _SQRT3_6)
_A1 = 0.25 + _SQRT3_6
_A2 = 0.25 - _SQRT3_6
# rotations per block of the composition (slices x rotations x states):
# 2**15 keeps a block's arrays near a core's cache; on a 2-core VM 2**17
# made the noisy sweeps of 601 fields 1.8 times slower
_BLOCK = 32768
# most slices times channels a mesh may be composed of (the lab-frame
# mesh's start, a noisy sweep's knot intervals times fields), checked
# before composing: 218 times the 128 x 601 of a sweep of the largest
# shipped noisy run
_MAX_MESH = 1 << 24


@dataclass(frozen=True)
class SpinState:
    """Two-level quantum state as a Bloch vector (s_x, s_y, s_z)."""

    s_x: float
    s_y: float
    s_z: float

    def __post_init__(self):
        n = self.norm()
        if not math.isfinite(n):
            raise InvalidParameter("Bloch components must be finite")
        if n > 1.0 + _NORM_SLACK:
            raise InvalidParameter(f"Bloch norm {n} exceeds 1")

    def norm(self) -> float:
        return math.sqrt(self.s_x**2 + self.s_y**2 + self.s_z**2)

    def as_array(self) -> np.ndarray:
        return np.array([self.s_x, self.s_y, self.s_z], dtype=float)

    @classmethod
    def from_array(cls, arr) -> "SpinState":
        x, y, z = np.asarray(arr, dtype=float)
        return cls(float(x), float(y), float(z))

    @classmethod
    def up(cls) -> "SpinState":
        """Initial state |0>, Bloch vector +z."""
        return cls(0.0, 0.0, 1.0)


@dataclass(frozen=True)
class DriveParams:
    """Instantaneous control parameters: Rabi rate, drive phase, detuning.

    All angular frequencies in rad/s, phase in radians.  ``detuning`` is the
    coefficient of the z axis, i.e. gamma*B for a signal field B.
    """

    rabi: float
    phase: float
    detuning: float

    def __post_init__(self):
        check_nonnegative("rabi", self.rabi)
        check_finite("phase", self.phase)
        check_finite("detuning", self.detuning)


@dataclass(frozen=True)
class ConvergenceReport:
    """Refinement diagnostics for one swept propagation."""

    steps: int
    error_history: tuple
    converged: bool


# ---------------------------------------------------------------------------
# rotations as Cayley-Klein pairs
# ---------------------------------------------------------------------------

def _pairs(wx, wy, wz, dt, r=None):
    """Cayley-Klein pairs of the rotations about (wx, wy, wz) by |w|*dt.

    The arguments broadcast to a common shape, which is the shape of both
    returned arrays: with r = |w|, a = cos(r dt/2) - i sin(r dt/2) wz/r and
    b = -sin(r dt/2) (wy + i wx)/r.  A zero w gives the identity.  A caller
    may pass r itself: a rotation by many turns is off by r's rounding
    times its angle, and ``np.hypot`` keeps that rounding within an ulp.
    """
    if r is None:
        r = np.sqrt(wx * wx + wy * wy + wz * wz)
    half = 0.5 * (r * dt)
    # -sin(r dt/2)/r, written straight into the parts of a and b
    k = np.divide(np.sin(-half), r, out=np.zeros(half.shape), where=r > 0.0)
    a = np.empty(half.shape, dtype=complex)
    b = np.empty(half.shape, dtype=complex)
    np.cos(half, out=a.real)
    np.multiply(k, wz, out=a.imag)
    np.multiply(k, wy, out=b.real)
    np.multiply(k, wx, out=b.imag)
    return a, b


def _axis_pair(axis_phase: float, angle: float):
    """Pair of the rotation by ``angle`` about the equatorial axis
    (cos axis_phase, sin axis_phase, 0), as Python complex numbers."""
    s = math.sin(0.5 * angle)
    return (complex(math.cos(0.5 * angle)),
            complex(-s * math.sin(axis_phase), -s * math.cos(axis_phase)))


def _mul(later, earlier):
    """Pair of the rotation ``earlier`` followed by ``later``."""
    a2, b2 = later
    a1, b1 = earlier
    return a2 * a1 - b2 * np.conj(b1), a2 * b1 + b2 * np.conj(a1)


def _reduce(a: np.ndarray, b: np.ndarray):
    """Time-ordered product of pairs along the last axis, ``a[..., 0],
    b[..., 0]`` acting first.  Pairwise reduction keeps the pass count
    logarithmic, and with the slices on the last axis each level runs
    numpy's inner loop along the slices rather than once per row of
    channels."""
    while a.shape[-1] > 1:
        if a.shape[-1] % 2 == 1:
            pa, pb = _mul((a[..., 1:-1:2], b[..., 1:-1:2]),
                          (a[..., 0:-1:2], b[..., 0:-1:2]))
            a = np.concatenate((pa, a[..., -1:]), axis=-1)
            b = np.concatenate((pb, b[..., -1:]), axis=-1)
        else:
            a, b = _mul((a[..., 1::2], b[..., 1::2]),
                        (a[..., 0::2], b[..., 0::2]))
    return a[..., 0], b[..., 0]


def _apply(a, b, v) -> np.ndarray:
    """Rotate the Bloch vectors ``v`` (..., 3) by the pairs (a, b) (...).

    This is U (v.sigma) U^dagger with U = [[a, b], [-b*, a*]], the
    quaternion rotation q v q* written in the pair: with xi = v_x + i v_y,

        xi' = a*^2 xi - b*^2 xi* - 2 a* b* v_z,
        v_z' = (|a|^2 - |b|^2) v_z + 2 Re(a* b xi),

    divided by |q|^2 = |a|^2 + |b|^2, which keeps the rounding drift of a
    product of many rotations out of the length of v.
    """
    ca, cb = np.conj(a), np.conj(b)
    xi = v[..., 0] + 1j * v[..., 1]
    na = (a * ca).real
    nb = (b * cb).real
    vz = v[..., 2]
    z = (na - nb) * vz + 2.0 * (ca * b * xi).real
    turned = ca * ca * xi - cb * cb * np.conj(xi) - 2.0 * vz * (ca * cb)
    norm = na + nb
    out = np.empty(np.shape(turned) + (3,))
    np.divide(turned.real, norm, out=out[..., 0])
    np.divide(turned.imag, norm, out=out[..., 1])
    np.divide(z, norm, out=out[..., 2])
    return out


def _sample(fn: Callable, ts: np.ndarray) -> np.ndarray:
    """Evaluate a time function on an array of times.

    ``fn`` is called once, with the whole array, and whatever it raises
    propagates.  A scalar result is broadcast over ``ts``; any other result
    must hold one value per time, else ``InvalidParameter``.
    """
    vals = np.asarray(fn(ts), dtype=float)
    if vals.ndim == 0:
        return np.full(ts.shape, float(vals))
    if vals.shape != ts.shape:
        raise InvalidParameter(
            f"a phase or detuning function must return a scalar or one value "
            f"per time; got shape {vals.shape} for {ts.size} times")
    return vals


def _compose(n_slices: int, per_slice: int, pairs: Callable):
    """Pairs of the rotations of ``n_slices`` mesh slices, in time order.

    ``pairs(start, stop)`` returns the pairs of the rotations of the slices
    in [start, stop), in the order they act along the last axis; the
    leading axes (channels) are kept.  It is called block by block,
    at most ``_BLOCK`` rotations' worth at a time, ``per_slice`` being the
    rotations of one slice over every leading axis, so the memory does not
    grow with the mesh.
    """
    # a power of two, so that the pairwise tree of a full block halves
    # evenly at every level and never copies an odd slice along
    block = 1 << max(0, (_BLOCK // per_slice).bit_length() - 1)
    total = None
    for start in range(0, n_slices, block):
        part = _reduce(*pairs(start, min(start + block, n_slices)))
        total = part if total is None else _mul(part, total)
    return total


def _swept_axes(rabi: float, phase_fn, det_fn, dt: float, start: int,
                stop: int):
    """Arguments of ``_pairs`` for lab-frame slices [start, stop) of length dt.

    Each slice is two rotations, about A1*R1 + A2*R2 and then A2*R1 + A1*R2
    by dt times their length, with R sampled at its two Gauss nodes; both
    nodes of every slice are sampled in one call of each function.
    """
    ts = ((np.arange(start, stop)[:, None] + _NODES) * dt).ravel()
    phases = _sample(phase_fn, ts)
    w = []
    for comp in (rabi * np.cos(phases), rabi * np.sin(phases),
                 _sample(det_fn, ts)):
        r1, r2 = comp[0::2], comp[1::2]
        w.append(np.stack((_A1 * r1 + _A2 * r2, _A2 * r1 + _A1 * r2),
                          axis=1).ravel())
    return (*w, dt)


def _compose_swept(rabi: float, phase_fn, det_fn, duration: float,
                   n_steps: int):
    """Pair of ``n_steps`` equal lab-frame slices (``_swept_axes``),
    sampled and composed block by block (``_compose``)."""
    dt = duration / n_steps
    return _compose(n_steps, 2, lambda start, stop: _pairs(*_swept_axes(
        rabi, phase_fn, det_fn, dt, start, stop)))


def _initial_mesh(rabi: float, phase_fn, det_fn, duration: float) -> int:
    """First mesh of a lab-frame refinement, in slices.

    It puts ``_STEPS_PER_PHASE_TURN`` slices in each turn of the drive phase
    and ``_STEPS_PER_LARMOR_TURN`` in each Larmor turn, and at least
    ``_MIN_STEPS`` in all.
    """
    ts = np.linspace(0.0, duration, 257)
    phases = _sample(phase_fn, ts)
    dets = _sample(det_fn, ts)
    if not (np.all(np.isfinite(phases)) and np.all(np.isfinite(dets))):
        raise InvalidParameter("the drive phase and detuning must be finite")
    span = float(np.sum(np.abs(np.diff(phases))))
    r_max = math.hypot(rabi, float(np.max(np.abs(dets))) if dets.size else 0.0)
    turns = duration * r_max / TWO_PI
    n_phase = _STEPS_PER_PHASE_TURN * span / TWO_PI
    n_larmor = _STEPS_PER_LARMOR_TURN * turns
    return max(_MIN_STEPS, int(math.ceil(n_phase)), int(math.ceil(n_larmor)))


def _swept_refine(state: np.ndarray, rabi: float, phase_fn, det_fn,
                  duration: float, tol: float):
    """Richardson-refined ``_compose_swept`` applied to one state (3,), and
    the report.  Core of ``propagate_swept``.

    The mesh halves from the start of ``_initial_mesh`` until the change of
    every Bloch component under one halving is at most ``tol``; the
    report holds the final slice count and one change per halving.  More
    than ``_MAX_DEPTH`` halvings raise ``ConvergenceFailure``, and a
    start of more than ``_MAX_MESH`` slices ``InvalidParameter``, before
    anything is composed.
    """
    if duration == 0.0:
        return state.copy(), ConvergenceReport(0, (), True)
    n0 = _initial_mesh(rabi, phase_fn, det_fn, duration)
    if not n0 <= _MAX_MESH:
        raise InvalidParameter(f"the mesh would start at {n0:.3g} slices, "
                               f"more than {_MAX_MESH}")
    history = []
    out = _apply(*_compose_swept(rabi, phase_fn, det_fn, duration, n0), state)
    for depth in range(1, _MAX_DEPTH + 1):
        coarse = out
        out = _apply(*_compose_swept(rabi, phase_fn, det_fn, duration,
                                     n0 << depth), state)
        history.append(float(np.max(np.abs(out - coarse))))
        if history[-1] <= tol:
            return out, ConvergenceReport(n0 << depth, tuple(history), True)
    raise ConvergenceFailure(
        f"mesh refinement stalled at {n0 << _MAX_DEPTH} steps with error "
        f"{history[-1]:.3e} > tol {tol:.1e}",
        error_history=history,
    )


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def propagate_constant(state: SpinState, d: DriveParams, duration: float) -> SpinState:
    """Evolve under constant controls: one exact rotation about the Larmor axis.

    The rotation angle is |R| * duration.  Negative duration reverses the
    evolution (rotation by the negated angle), which is the time-reversal
    used by the invariant tests.  Bloch norm is preserved to rounding.
    """
    check_finite("duration", duration)
    r = math.hypot(d.rabi, d.detuning)
    if r == 0.0 or duration == 0.0:
        return state
    pair = _pairs(d.rabi * math.cos(d.phase), d.rabi * math.sin(d.phase),
                  d.detuning, duration)
    return SpinState.from_array(_apply(*pair, state.as_array()))


def propagate_swept(state: SpinState, rabi: float,
                    phase_fn: Callable[[float], float],
                    detuning_fn: Callable[[float], float],
                    duration: float, tol: float = 1e-6) -> SpinState:
    """Evolve under a time-dependent drive phase and detuning.

    Composes exact rotations over a mesh, two per slice from the 4th-order
    commutator-free Magnus step (Blanes & Moan, 2006) at the slice's Gauss
    nodes, halving the step from the start of ``_initial_mesh`` until the
    change under one halving is at most ``tol`` (positive and finite,
    else ``InvalidParameter``) for every Bloch component.  Deterministic for
    fixed inputs.  Raises ``ConvergenceFailure`` if the tolerance is not
    met within ``_MAX_DEPTH`` halvings.

    ``phase_fn`` and ``detuning_fn`` are called with arrays of times and
    may return a scalar (a constant) or one value per time; any other
    shape raises ``InvalidParameter``, and an exception they raise
    propagates unchanged.  One state is propagated per call.
    """
    out, _ = propagate_swept_report(state, rabi, phase_fn, detuning_fn,
                                    duration, tol)
    return out


def propagate_swept_report(state: SpinState, rabi: float,
                           phase_fn: Callable[[float], float],
                           detuning_fn: Callable[[float], float],
                           duration: float, tol: float = 1e-6):
    """Like ``propagate_swept`` but also returns the ConvergenceReport."""
    check_nonnegative("rabi", rabi)
    check_nonnegative("duration", duration)
    check_positive("tol", tol)
    out, report = _swept_refine(state.as_array(), rabi, phase_fn, detuning_fn,
                                duration, tol)
    return SpinState.from_array(out), report


def apply_ideal_pulse(state: SpinState, axis_phase: float, angle: float) -> SpinState:
    """Instantaneous rotation about the equatorial axis at ``axis_phase``.

    The axis is (cos axis_phase, sin axis_phase, 0); the rotation sense is
    right-handed about that axis, so (0,0,1) under a pi/2 pulse about +x
    goes to (0,-1,0).
    """
    return SpinState.from_array(_apply(*_axis_pair(axis_phase, angle),
                                       state.as_array()))


def apply_resonant_pulse(state: SpinState, rabi: float, axis_phase: float,
                         angle: float) -> SpinState:
    """Finite-duration resonant pulse of duration angle/rabi.

    Equivalent to ``apply_ideal_pulse`` at zero detuning; provided for
    robustness studies against the instantaneous idealization.
    """
    check_positive("rabi", rabi)
    d = DriveParams(rabi=rabi, phase=axis_phase, detuning=0.0)
    return propagate_constant(state, d, angle / rabi)

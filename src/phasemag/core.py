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

Propagation is always by exact axis-angle rotations.  Time-dependent controls
are handled on a mesh that is refined (halving the step) until a Richardson
error estimate meets tolerance; both meshes below share that loop
(``_refine``).  Each slice of ``propagate_swept`` is the 4th-order
commutator-free Magnus step (Blanes & Moan, Appl. Numer. Math. 56, 1519
(2006); Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)): with R
sampled at the two Gauss nodes of the slice, two exact rotations about
h*(a1*R1 + a2*R2) and then h*(a2*R1 + a1*R2), a1,2 = 1/4 +- sqrt(3)/6.  The
noisy co-rotating mesh of ``sequences.execute_batch`` sees
R(t) = (Omega, 0, w(t)) with w linear between the noise knots, so it cuts
each knot interval into equal slices and takes the classic 4th-order Magnus
step there, one exact rotation about h*R(t_mid) + (h^3/12) R' x R(t_mid)
per slice (Iserles & Norsett, Phil. Trans. R. Soc. A 357, 983 (1999); see
``_knot_refine``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import TWO_PI
from .errors import ConvergenceFailure, InvalidParameter

__all__ = [
    "SpinState",
    "DriveParams",
    "LarmorVector",
    "StepControl",
    "ConvergenceReport",
    "larmor_from_drive",
    "propagate_constant",
    "propagate_swept",
    "propagate_swept_report",
    "apply_ideal_pulse",
    "apply_resonant_pulse",
]

_NORM_SLACK = 1e-6
# default start: slices per 2*pi of drive-phase sweep and per Larmor turn
_STEPS_PER_PHASE_TURN = 64
_STEPS_PER_LARMOR_TURN = 64
# The lab-frame step rule as (nodes, rows): a slice [t, t + h] samples R at
# t + c*h for each node c, then applies one exact rotation about
# h * sum_j row[j] * R_j per row, first row first.  It is the 4th-order
# commutator-free Magnus step at the two Gauss nodes (Blanes & Moan, Appl.
# Numer. Math. 56, 1519 (2006)); the first exponential leans on the
# earlier node
_SQRT3_6 = math.sqrt(3.0) / 6.0
_CF4 = ((0.5 - _SQRT3_6, 0.5 + _SQRT3_6),
        ((0.25 + _SQRT3_6, 0.25 - _SQRT3_6),
         (0.25 - _SQRT3_6, 0.25 + _SQRT3_6)))
# rotations per block of the composition (slices x rows x channels)
_BLOCK = 262144


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
        if not self.rabi >= 0:
            raise InvalidParameter(f"rabi must be >= 0, got {self.rabi}")
        if not math.isfinite(self.phase):
            raise InvalidParameter("phase must be finite")
        if not math.isfinite(self.detuning):
            raise InvalidParameter("detuning must be finite")


@dataclass(frozen=True)
class LarmorVector:
    """Effective-field axis in spherical form: |R|, polar angle, azimuth."""

    magnitude: float
    polar_angle: float
    azimuth: float


@dataclass(frozen=True)
class StepControl:
    """Mesh policy for time-dependent propagation.

    The initial mesh has at least ``min_steps`` slices, 64 per 2*pi of
    drive-phase sweep and 64 per Larmor period; the mesh is then halved
    until the Richardson estimate (change of any Bloch component under one
    halving) drops below ``tol``, up to ``max_depth`` halvings.
    ``core.propagate_swept`` takes a 4th-order step on each slice, so from
    this start one halving usually meets ``tol``.

    The noisy swept segments of ``sequences.execute_batch`` run on a mesh
    aligned with the noise knots: each knot interval is cut into 2**j
    equal slices, j the smallest that keeps h*|R| <= pi on every slice and
    gives at least ``min_steps`` slices, and each slice takes one 4th-order
    Magnus rotation.  That mesh halves from there under the same ``tol``
    and ``max_depth``.
    """

    tol: float = 1e-6
    max_depth: int = 12
    min_steps: int = 16

    def __post_init__(self):
        if not self.tol > 0:
            raise InvalidParameter("tol must be positive")
        if self.max_depth < 1:
            raise InvalidParameter("max_depth must be >= 1")


@dataclass(frozen=True)
class ConvergenceReport:
    """Refinement diagnostics for one swept propagation."""

    steps: int
    error_history: tuple
    converged: bool


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------

def _rotate(vec: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotate ``vec`` about unit ``axis`` by ``angle`` (right-handed)."""
    c = math.cos(angle)
    s = math.sin(angle)
    cross = np.cross(axis, vec)
    return vec * c + cross * s + axis * np.dot(axis, vec) * (1.0 - c)


def _rotation_matrices(nx, ny, nz, angle) -> np.ndarray:
    """Axis-angle rotation matrices, vectorized over leading dimensions.

    ``nx, ny, nz`` are unit-axis components and ``angle`` rotation angles,
    all broadcastable to a common shape; returns that shape + (3, 3).
    """
    nx, ny, nz, angle = np.broadcast_arrays(nx, ny, nz, angle)
    c = np.cos(angle)
    s = np.sin(angle)
    k = 1.0 - c
    # products shared between entries, evaluated as k * nx * ny = (k*nx)*ny
    kx, ky, kz = k * nx, k * ny, k * nz
    kxy, kxz, kyz = kx * ny, kx * nz, ky * nz
    sx, sy, sz = s * nx, s * ny, s * nz
    mats = np.empty(angle.shape + (3, 3), dtype=float)
    mats[..., 0, 0] = c + kx * nx
    mats[..., 0, 1] = kxy - sz
    mats[..., 0, 2] = kxz + sy
    mats[..., 1, 0] = kxy + sz
    mats[..., 1, 1] = c + ky * ny
    mats[..., 1, 2] = kyz - sx
    mats[..., 2, 0] = kxz - sy
    mats[..., 2, 1] = kyz + sx
    mats[..., 2, 2] = c + kz * nz
    return mats


def _reduce_time_ordered(mats: np.ndarray) -> np.ndarray:
    """Product of a stack of matrices preserving time order.

    ``mats[0]`` acts first, so the result equals ``mats[-1] @ ... @ mats[0]``.
    Pairwise reduction keeps the pass count logarithmic.
    """
    while mats.shape[0] > 1:
        if mats.shape[0] % 2 == 1:
            tail = mats[-1:]
            mats = np.concatenate([np.matmul(mats[1:-1:2], mats[0:-1:2]), tail], axis=0)
        else:
            mats = np.matmul(mats[1::2], mats[0::2])
    return mats[0]


def _combine(rows, comp: np.ndarray) -> np.ndarray:
    """Weighted node sums, one per row: (n, J, ...) -> (n * K, ...).

    Row k of the result for slice i is sum_j rows[k][j] * comp[i, j], and
    the rows of one slice are consecutive, so the stack stays time-ordered.
    """
    out = []
    for row in rows:
        acc = row[0] * comp[:, 0]
        for j in range(1, len(row)):
            acc = acc + row[j] * comp[:, j]
        out.append(acc)
    stacked = np.stack(out, axis=1)
    return stacked.reshape((-1,) + stacked.shape[2:])


def _unit_axes(wx, wy, wz, dt):
    """Unit axes and angles of the rotations about dt * (wx, wy, wz).

    A zero vector gives the +z axis and angle 0.
    """
    r = np.sqrt(wx * wx + wy * wy + wz * wz)
    pos = r > 0.0
    safe = np.where(pos, r, 1.0)
    nx = np.where(pos, wx / safe, 0.0)
    ny = np.where(pos, wy / safe, 0.0)
    nz = np.where(pos, wz / safe, 1.0)
    return nx, ny, nz, np.where(pos, r * dt, 0.0)


def _step_axes(rabi: float, phases: np.ndarray, dets: np.ndarray, rows,
               dt: float):
    """Unit rotation axes and angles of the exponentials of a step rule.

    ``phases`` has shape (n, J) and ``dets`` (n, J) or (n, J, m) for a
    batch of m detuning channels sharing one phase profile, sampled at the
    J nodes of each of n slices.  Each row of ``rows`` gives one rotation
    about dt * sum_j row[j] * R_j; the result is flattened to n * K
    rotations in the order they act.
    """
    rx = rabi * np.cos(phases)
    ry = rabi * np.sin(phases)
    if dets.ndim == 3:
        rx = rx[..., None]
        ry = ry[..., None]
    wx, wy, wz = (_combine(rows, c) for c in (rx, ry, dets))
    return _unit_axes(wx, wy, wz, dt)


def _sample(fn: Callable, ts: np.ndarray) -> np.ndarray:
    """Evaluate a time function on an array of times.

    ``fn`` is called with the whole array, and whatever it raises
    propagates.  A scalar result is broadcast over ``ts``; a result whose
    shape does not follow ``ts`` is replaced by one call per time.
    """
    vals = np.asarray(fn(ts), dtype=float)
    if vals.ndim == 0:
        return np.full(ts.shape, float(vals))
    if vals.shape[0] == ts.shape[0] and vals.ndim <= 2:
        return vals
    return np.array([float(fn(t)) for t in ts], dtype=float)


def _compose(states: np.ndarray, n_slices: int, per_slice: int,
             axes: Callable) -> np.ndarray:
    """Apply the rotations of ``n_slices`` mesh slices to ``states``.

    ``axes(start, stop)`` returns the unit axes and angles of the
    ``per_slice`` rotations of each slice in [start, stop), in the order
    they act along the first dimension.  It is called block by block, at
    most ``_BLOCK`` rotations' worth over all channels at a time, so the
    memory does not grow with the mesh.  ``states`` is (3,) or (m, 3).
    """
    batch = states.ndim == 2
    m = states.shape[0] if batch else 1
    block = max(1, _BLOCK // (m * per_slice))
    total = None
    for start in range(0, n_slices, block):
        stop = min(start + block, n_slices)
        part = _reduce_time_ordered(_rotation_matrices(*axes(start, stop)))
        total = part if total is None else part @ total
    if batch:
        return np.einsum("mij,mj->mi", total, states)
    return total @ states


def _compose_swept(states: np.ndarray, rabi: float, phase_fn, det_fn,
                   duration: float, n_steps: int) -> np.ndarray:
    """Apply ``n_steps`` equal ``_CF4`` slices to ``states``.

    ``states`` is (3,) or (m, 3); ``det_fn`` evaluated on an array of n
    times must return (n,) or (n, m) to match.  The phase and the detuning
    are sampled block by block (``_compose``).
    """
    nodes, rows = _CF4
    dt = duration / n_steps

    def axes(start, stop):
        ts = ((np.arange(start, stop)[:, None] + np.asarray(nodes)) * dt).ravel()
        shape = (stop - start, len(nodes))
        phases = _sample(phase_fn, ts).reshape(shape)
        dets = _sample(det_fn, ts)
        dets = dets.reshape(shape + dets.shape[1:])
        return _step_axes(rabi, phases, dets, rows, dt)

    return _compose(states, n_steps, len(rows), axes)


def _compose_knots(states: np.ndarray, rabi: float, lengths: np.ndarray,
                   dets: np.ndarray, depth: int) -> np.ndarray:
    """Apply the knot-aligned Magnus mesh of ``_knot_refine`` to ``states``.

    Interval k, of length ``lengths[k]``, is cut into 2**depth equal
    slices; ``dets`` (K+1, m) holds w at the interval edges for each of the
    m states (m, 3).  On a slice of length h where w changes by dw, R(t) =
    (rabi, 0, w(t)) is linear, and the 4th-order Magnus exponent
    h*R(t_mid) + (h^3/12) R' x R(t_mid) is the single rotation about
    h * (rabi, rabi*h*dw/12, w(t_mid)).
    """
    sub = 1 << depth

    def axes(start, stop):
        idx = np.arange(start, stop)
        k = idx >> depth
        h = (lengths[k] / sub)[:, None]
        dw = (dets[k + 1] - dets[k]) / sub
        w_mid = dets[k] + ((idx & (sub - 1)) + 0.5)[:, None] * dw
        return _unit_axes(rabi, rabi * h * dw / 12.0, w_mid, h)

    return _compose(states, lengths.size << depth, 1, axes)


def _initial_mesh(rabi: float, phase_fn, det_fn, duration: float,
                  ctl: StepControl) -> int:
    """First mesh of a lab-frame refinement, in slices.

    It puts ``_STEPS_PER_PHASE_TURN`` slices in each turn of the drive phase
    and ``_STEPS_PER_LARMOR_TURN`` in each Larmor turn, and at least
    ``ctl.min_steps`` in all.
    """
    ts = np.linspace(0.0, duration, 257)
    phases = _sample(phase_fn, ts)
    dets = _sample(det_fn, ts)
    span = float(np.sum(np.abs(np.diff(phases))))
    r_max = math.hypot(rabi, float(np.max(np.abs(dets))) if dets.size else 0.0)
    turns = duration * r_max / TWO_PI
    n_phase = _STEPS_PER_PHASE_TURN * span / TWO_PI
    n_larmor = _STEPS_PER_LARMOR_TURN * turns
    return max(ctl.min_steps, int(math.ceil(n_phase)), int(math.ceil(n_larmor)))


def _refine(compose: Callable, ctl: StepControl):
    """Richardson refinement, shared by the lab-frame and the knot mesh.

    ``compose(d)`` propagates on the start mesh halved d times and returns
    the states and the slice count.  The mesh halves until the change of
    every Bloch component under one halving is at most ``ctl.tol``;
    ``ConvergenceFailure`` after ``ctl.max_depth`` halvings.
    """
    history = []
    prev = None
    for depth in range(ctl.max_depth + 1):
        out, steps = compose(depth)
        if prev is not None:
            err = float(np.max(np.abs(out - prev)))
            history.append(err)
            if err <= ctl.tol:
                return out, ConvergenceReport(steps, tuple(history), True)
        prev = out
    raise ConvergenceFailure(
        f"mesh refinement stalled at {steps} steps with error "
        f"{history[-1]:.3e} > tol {ctl.tol:.1e}",
        error_history=history,
    )


def _swept_refine(states: np.ndarray, rabi: float, phase_fn, det_fn,
                  duration: float, ctl: StepControl):
    """Richardson-refined ``_CF4`` composition.  Core of ``propagate_swept``.

    The mesh halves from the start of ``_initial_mesh`` (``_refine``).
    """
    if duration == 0.0:
        return states.copy(), ConvergenceReport(0, (), True)
    n0 = _initial_mesh(rabi, phase_fn, det_fn, duration, ctl)
    return _refine(lambda d: (_compose_swept(states, rabi, phase_fn, det_fn,
                                             duration, n0 << d), n0 << d),
                   ctl)


def _knot_refine(states: np.ndarray, rabi: float, lengths: np.ndarray,
                 dets: np.ndarray, ctl: StepControl):
    """Richardson-refined propagation under R(t) = (rabi, 0, w(t)), w
    linear on each of K intervals.  Core of the noisy co-rotating mesh.

    ``lengths`` (K,) are the interval lengths and ``dets`` (K+1, m) the
    values of w at their edges, one column per state of ``states`` (m, 3).
    Each interval is cut into 2**j equal slices and each slice takes the
    one-rotation 4th-order Magnus step of ``_compose_knots``, which is
    exact for constant R, so the error follows the slope of w alone.  The
    start j is the smallest that gives at least ``ctl.min_steps`` slices
    and h*|R| <= pi on every slice (the convergence radius of the Magnus
    series); |w| is piecewise linear, so its maximum on an interval sits at
    an edge and that bound is exact.  The mesh halves from there
    (``_refine``).
    """
    if not np.any(lengths > 0.0):
        return states.copy(), ConvergenceReport(0, (), True)
    r_max = np.hypot(rabi, np.max(np.maximum(np.abs(dets[:-1]),
                                             np.abs(dets[1:])), axis=1))
    reach = float(np.max(lengths * r_max)) / math.pi
    if not math.isfinite(reach):
        raise InvalidParameter("the Larmor rate must be finite")
    start = 0
    while (lengths.size << start) < ctl.min_steps or reach > (1 << start):
        start += 1
    return _refine(lambda d: (_compose_knots(states, rabi, lengths, dets,
                                             start + d),
                              lengths.size << (start + d)), ctl)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def larmor_from_drive(d: DriveParams) -> LarmorVector:
    """Spherical decomposition of the effective field for given controls.

    Magnitude is hypot(rabi, detuning); the polar angle satisfies
    cos(theta) = detuning / magnitude; the azimuth is the drive phase.
    The degenerate zero-field case returns magnitude 0 with theta 0 by
    convention.
    """
    r = math.hypot(d.rabi, d.detuning)
    if r == 0.0:
        return LarmorVector(0.0, 0.0, d.phase)
    theta = math.acos(max(-1.0, min(1.0, d.detuning / r)))
    return LarmorVector(r, theta, d.phase)


def propagate_constant(state: SpinState, d: DriveParams, duration: float) -> SpinState:
    """Evolve under constant controls: one exact rotation about the Larmor axis.

    The rotation angle is |R| * duration.  Negative duration reverses the
    evolution (rotation by the negated angle), which is the time-reversal
    used by the invariant tests.  Bloch norm is preserved to rounding.
    """
    if not math.isfinite(duration):
        raise InvalidParameter("duration must be finite")
    r = math.hypot(d.rabi, d.detuning)
    if r == 0.0 or duration == 0.0:
        return state
    axis = np.array([
        d.rabi * math.cos(d.phase) / r,
        d.rabi * math.sin(d.phase) / r,
        d.detuning / r,
    ])
    return SpinState.from_array(_rotate(state.as_array(), axis, r * duration))


def propagate_swept(state: SpinState, rabi: float,
                    phase_fn: Callable[[float], float],
                    detuning_fn: Callable[[float], float],
                    duration: float,
                    step_control: StepControl | None = None) -> SpinState:
    """Evolve under a time-dependent drive phase and detuning.

    Composes exact rotations over a mesh, two per slice from the 4th-order
    commutator-free Magnus step (Blanes & Moan, 2006) at the slice's Gauss
    nodes, halving the step until the change under one halving is below
    ``step_control.tol`` for every Bloch component.  Deterministic for fixed
    inputs.  Raises ``ConvergenceFailure`` if the tolerance is not met within
    ``max_depth`` halvings.

    ``phase_fn`` and ``detuning_fn`` are called with arrays of times and
    may return a scalar (a constant) or one value per time; an exception
    they raise propagates unchanged.
    """
    out, _ = propagate_swept_report(state, rabi, phase_fn, detuning_fn,
                                    duration, step_control)
    return out


def propagate_swept_report(state: SpinState, rabi: float,
                           phase_fn: Callable[[float], float],
                           detuning_fn: Callable[[float], float],
                           duration: float,
                           step_control: StepControl | None = None):
    """Like ``propagate_swept`` but also returns the ConvergenceReport."""
    if not duration >= 0:
        raise InvalidParameter(f"duration must be >= 0, got {duration}")
    if not rabi >= 0:
        raise InvalidParameter(f"rabi must be >= 0, got {rabi}")
    ctl = step_control or StepControl()
    out, report = _swept_refine(state.as_array(), rabi, phase_fn, detuning_fn,
                                duration, ctl)
    return SpinState.from_array(out), report


def apply_ideal_pulse(state: SpinState, axis_phase: float, angle: float) -> SpinState:
    """Instantaneous rotation about the equatorial axis at ``axis_phase``.

    The axis is (cos axis_phase, sin axis_phase, 0); the rotation sense is
    right-handed about that axis, so (0,0,1) under a pi/2 pulse about +x
    goes to (0,-1,0).
    """
    axis = np.array([math.cos(axis_phase), math.sin(axis_phase), 0.0])
    return SpinState.from_array(_rotate(state.as_array(), axis, angle))


def apply_resonant_pulse(state: SpinState, rabi: float, axis_phase: float,
                         angle: float) -> SpinState:
    """Finite-duration resonant pulse of duration angle/rabi.

    Equivalent to ``apply_ideal_pulse`` at zero detuning; provided for
    robustness studies against the instantaneous idealization.
    """
    if not rabi > 0:
        raise InvalidParameter(f"rabi must be positive, got {rabi}")
    d = DriveParams(rabi=rabi, phase=axis_phase, detuning=0.0)
    return propagate_constant(state, d, angle / rabi)

"""Closed-form references the benchmark checks phasemag's outputs against.

Nothing here imports phasemag: each reference is written from the physics,
so a defect in the package cannot cancel out of the comparison.

* Rotating-frame propagator (Rabi, Ramsey & Schwinger, Rev. Mod. Phys. 26,
  167 (1954)).  A drive of Rabi rate Omega whose phase ramps linearly,
  phi(t) = phi0 + r*t, at detuning gamma*B is static in the frame that
  co-rotates with phi.  One segment of duration T therefore equals
  Rz(phi0 + r*T) . Rot((Omega, 0, gamma*B - r), T) . Rz(-phi0): three
  rotations and no time mesh.
* Ornstein-Uhlenbeck dephasing exponents (Cywinski et al., Phys. Rev. B 77,
  174509 (2008)).  For a Lorentzian bath of variance delta^2 and correlation
  time tau_c, with x = T/tau_c,
      chi_FID  = delta^2 tau_c^2 (x - 1 + e^-x)
      chi_echo = delta^2 tau_c^2 (x - 3 + 4 e^-x/2 - e^-x).
  Both brackets cancel catastrophically for x << 1 (the echo bracket starts
  at x^3/12), so small x uses their Taylor series.
* A white bath of level S0 gives chi_FID = chi_echo = S0*T/2.

Sequence conventions follow the package documentation: preparation pi/2
about +x, refocusing pi about +y, readout pi/2 about -x, signal = final s_z;
positive detuning precesses +x toward +y.
"""

from __future__ import annotations

import math

import numpy as np

HALF_PI = 0.5 * math.pi

# Series branch below this x; the direct forms lose at most ~1e-13 above it.
_SERIES_X = 0.5
_SERIES_TERMS = 30


# ---------------------------------------------------------------------------
# rotating-frame propagator
# ---------------------------------------------------------------------------

def _rotate(states, axis, angle):
    """Rodrigues rotation of ``states`` (m, 3) about ``axis`` by ``angle``.

    ``axis`` is (3,) or (m, 3) and need not be normalised; ``angle`` is a
    scalar or (m,).  Right-handed about the axis.
    """
    axis = np.broadcast_to(np.asarray(axis, dtype=float), states.shape)
    norm = np.linalg.norm(axis, axis=1)
    safe = np.where(norm > 0.0, norm, 1.0)
    n = axis / safe[:, None]
    angle = np.where(norm > 0.0, np.broadcast_to(angle, norm.shape), 0.0)
    c = np.cos(angle)[:, None]
    s = np.sin(angle)[:, None]
    dot = np.sum(n * states, axis=1)[:, None]
    return states * c + np.cross(n, states) * s + n * dot * (1.0 - c)


def _rz(states, angle):
    return _rotate(states, (0.0, 0.0, 1.0), angle)


def pulse(axis_phase, angle):
    """Instantaneous rotation about (cos axis_phase, sin axis_phase, 0)."""
    return ("pulse", float(axis_phase), float(angle))


def free(duration):
    """Free precession about +z at the static detuning."""
    return ("free", float(duration))


def swept(rabi, phase_start, phase_rate, duration):
    """Constant-amplitude drive with phase phase_start + phase_rate * t."""
    return ("swept", float(rabi), float(phase_start), float(phase_rate),
            float(duration))


def protocol_segments(protocol, duration, rabi=None, n_rotations=None):
    """Segment list of the ramsey, hahn or berry protocol.

    berry: each half sweeps the phase through N turns at rate +/- 4*pi*N/T;
    the second half starts at 2*pi*N so the control path stays closed.
    """
    if protocol == "ramsey":
        return [pulse(0.0, HALF_PI), free(duration), pulse(math.pi, HALF_PI)]
    if protocol == "hahn":
        return [pulse(0.0, HALF_PI), free(duration / 2.0),
                pulse(HALF_PI, math.pi), free(duration / 2.0),
                pulse(math.pi, HALF_PI)]
    if protocol == "berry":
        rate = 4.0 * math.pi * n_rotations / duration
        half = duration / 2.0
        return [pulse(0.0, HALF_PI),
                swept(rabi, 0.0, rate, half),
                pulse(HALF_PI, math.pi),
                swept(rabi, 2.0 * math.pi * n_rotations, -rate, half),
                pulse(math.pi, HALF_PI)]
    raise ValueError(f"unknown protocol {protocol!r}")


def propagate(segments, detunings, states=None):
    """Bloch vectors after ``segments`` for each static detuning gamma*B.

    ``detunings`` is (m,) in rad/s; ``states`` defaults to +z for every
    channel.  Returns (m, 3).
    """
    det = np.atleast_1d(np.asarray(detunings, dtype=float))
    if states is None:
        states = np.zeros((det.size, 3))
        states[:, 2] = 1.0
    else:
        states = np.array(states, dtype=float).reshape(det.size, 3)
    zeros = np.zeros_like(det)
    for seg in segments:
        kind = seg[0]
        if kind == "pulse":
            _, phase, angle = seg
            states = _rotate(states, (math.cos(phase), math.sin(phase), 0.0),
                             angle)
        elif kind == "free":
            states = _rz(states, det * seg[1])
        elif kind == "swept":
            _, rabi, phi0, rate, dur = seg
            states = _rz(states, -phi0)
            axis = np.stack([np.full_like(det, rabi), zeros, det - rate], axis=1)
            states = _rotate(states, axis, np.linalg.norm(axis, axis=1) * dur)
            states = _rz(states, phi0 + rate * dur)
        else:
            raise ValueError(f"unknown segment {kind!r}")
    return states


def propagate_drive(state, rabi, phase_fn, detuning_fn, duration):
    """Bloch vector after a drive of any phase and detuning law.

    Integrates ds/dt = R(t) x s with the Larmor vector
    R = (rabi cos phi(t), rabi sin phi(t), detuning(t)) by an explicit
    8th-order Runge-Kutta method (DOP853) at tolerance 1e-12: brute force
    with no time mesh or rotation composition in common with the package.
    """
    from scipy import integrate

    def rhs(t, s):
        ph = phase_fn(t)
        rx, ry, rz = rabi * math.cos(ph), rabi * math.sin(ph), float(detuning_fn(t))
        return (ry * s[2] - rz * s[1], rz * s[0] - rx * s[2], rx * s[1] - ry * s[0])

    sol = integrate.solve_ivp(rhs, (0.0, duration), np.asarray(state, dtype=float),
                              method="DOP853", rtol=1e-12, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


def signal(protocol, fields, gamma, duration, rabi=None, n_rotations=None):
    """Noise-free signal P = s_z for static fields (tesla)."""
    det = gamma * np.atleast_1d(np.asarray(fields, dtype=float))
    segs = protocol_segments(protocol, duration, rabi, n_rotations)
    return propagate(segs, det)[:, 2]


def berry_field_range(rabi, n_rotations, gamma):
    """Field of the last chirp minimum, where 4*pi*N*(1 - cos theta) = pi."""
    c = 1.0 - 1.0 / (4.0 * n_rotations)
    return rabi * c / math.sqrt(1.0 - c * c) / gamma


def ramsey_field_range(duration, gamma):
    """One free-precession fringe, 2*pi/(gamma*T)."""
    return 2.0 * math.pi / (gamma * duration)


# ---------------------------------------------------------------------------
# dephasing exponents
# ---------------------------------------------------------------------------

def _fid_bracket(x):
    """x - 1 + exp(-x), accurate for every x >= 0."""
    if x < _SERIES_X:
        term, total = 1.0, 0.0
        for k in range(1, _SERIES_TERMS + 1):
            term *= -x / k
            if k >= 2:
                total += term
        return total
    return x - 1.0 + math.exp(-x)


def _echo_bracket(x):
    """x - 3 + 4 exp(-x/2) - exp(-x), accurate for every x >= 0."""
    if x < _SERIES_X:
        term, total = 1.0, 0.0
        for k in range(1, _SERIES_TERMS + 1):
            term *= -x / k
            if k >= 3:
                total += term * (4.0 * 0.5**k - 1.0)
        return total
    return x - 3.0 + 4.0 * math.exp(-0.5 * x) - math.exp(-x)


def lorentzian_chi_fid(delta, tau_c, duration):
    """Free-precession exponent of an OU bath (variance delta^2, time tau_c)."""
    return delta**2 * tau_c**2 * _fid_bracket(duration / tau_c)


def lorentzian_chi_echo(delta, tau_c, duration):
    """Two-pulse echo exponent of an OU bath."""
    return delta**2 * tau_c**2 * _echo_bracket(duration / tau_c)


def white_chi(level, duration):
    """Free-precession and echo exponent of a flat one-sided PSD."""
    return 0.5 * level * duration


def one_over_e_time(chi_of_t, guess):
    """Solve chi(T) = 1 for a chi increasing in T, by bisection in log T."""
    lo = hi = float(guess)
    while chi_of_t(lo) >= 1.0:
        lo /= 2.0
    while chi_of_t(hi) <= 1.0:
        hi *= 2.0
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if chi_of_t(mid) < 1.0:
            lo = mid
        else:
            hi = mid
        if hi / lo - 1.0 < 1e-13:
            break
    return math.sqrt(lo * hi)

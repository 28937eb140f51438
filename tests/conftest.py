"""Shared fixtures and independent oracles for the test suite."""

import math
from pathlib import Path

import numpy as np
import pytest

from phasemag.noise import Lorentzian, OneOverF, calibrate_noise

# coherence-time targets used across the noise and acceptance tests
T2_STAR = 50e-6
T2_ECHO = 500e-6


@pytest.fixture(scope="session")
def calibrated_noise() -> Lorentzian:
    return calibrate_noise(T2_STAR, T2_ECHO)


@pytest.fixture(scope="session")
def repo_docs() -> Path:
    return Path(__file__).resolve().parent.parent / "docs" / "examples"


def rotation_matrix(axis, angle):
    """Reference axis-angle rotation, independent of the library kernels."""
    axis = np.asarray(axis, dtype=float)
    n = axis / np.linalg.norm(axis)
    c, s = math.cos(angle), math.sin(angle)
    k = 1.0 - c
    nx, ny, nz = n
    return np.array([
        [c + k * nx * nx, k * nx * ny - s * nz, k * nx * nz + s * ny],
        [k * nx * ny + s * nz, c + k * ny * ny, k * ny * nz - s * nx],
        [k * nx * nz - s * ny, k * ny * nz + s * nx, c + k * nz * nz],
    ])


def swept_exact(state_vec, rabi, detuning, phase_start, phase_rate, duration):
    """Closed-form propagation for a linear phase sweep.

    In the frame co-rotating with the drive phase the generator is constant,
    (rabi, 0, detuning - rate), so the lab-frame propagator is
    Rz(rho0 + rate*T) @ Rot(axis, |axis|*T) @ Rz(-rho0).  Serves as an
    independent oracle for the mesh-composed propagator.
    """
    axis = np.array([rabi, 0.0, detuning - phase_rate])
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        core = np.eye(3)
    else:
        core = rotation_matrix(axis, norm * duration)
    rz = rotation_matrix([0, 0, 1], phase_start + phase_rate * duration)
    rz_back = rotation_matrix([0, 0, 1], -phase_start)
    return rz @ core @ rz_back @ np.asarray(state_vec, dtype=float)


def chi_reference(S, echo, duration):
    """(1/pi) int_0^inf S(w) F(wT)/w^2 dw by piecewise numeric quadrature.

    An oracle for the closed-form exponents that shares none of their
    algebra: it only evaluates ``S.psd``.  F is F1(x) = 8 sin^4(x/4) if
    ``echo`` else F0(x) = 2 sin^2(x/2).  Edges are log-spaced (factor <= 2)
    from far below the bath's lowest corner (1/tau_c, omega_min) up to the
    first filter half-period pi/T, and again from there to the top of the
    band.  Below pi/T the whole integrand is integrated; above it F is split
    into its mean and cosines, F0 = 1 - cos x and F1 = 3 - 4 cos(x/2) + cos x,
    and each cosine piece is a weighted (QAWO) ``quad``, so the oscillations
    cost nothing.  Lorentzian and white baths are cut at W = 1e16/T: S is
    non-increasing, so the tail is at most max(F) S(W)/(pi W), which the
    oracle asserts is below 1e-14 of the result.  A 1/f band ends at
    omega_max and has no tail.
    """
    from scipy import integrate

    T = duration
    if echo:
        f_max, mean, waves = 8.0, 3.0, ((-4.0, 0.5 * T), (1.0, T))

        def filt(x):
            return 8.0 * math.sin(x / 4.0) ** 4
    else:
        f_max, mean, waves = 2.0, 1.0, ((-1.0, T),)

        def filt(x):
            return 2.0 * math.sin(x / 2.0) ** 2

    def g(w):
        return float(S.psd(w)) / (w * w)

    knee = math.pi / T
    if isinstance(S, OneOverF):
        lo, hi, corner = S.omega_min, S.omega_max, S.omega_min
    else:
        lo, hi = 0.0, 1e16 / T
        corner = 1.0 / S.tau_c if isinstance(S, Lorentzian) else knee
    start = max(lo, 1e-3 * min(corner, knee))

    def ladder(a, b):
        if b <= a:
            return []
        return list(np.geomspace(a, b, int(math.ceil(math.log2(b / a))) + 1))

    edges = sorted(set([lo, start] + ladder(start, min(knee, hi))
                       + ladder(max(knee, start), hi)))
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= knee:
            total += integrate.quad(lambda w: g(w) * filt(w * T), a, b,
                                    epsabs=0.0, epsrel=1e-13, limit=200)[0]
            continue
        base = integrate.quad(g, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        total += mean * base
        for c, freq in waves:
            total += c * integrate.quad(g, a, b, weight="cos", wvar=freq,
                                        epsabs=1e-12 * base, epsrel=1e-13,
                                        limit=200)[0]
    tail = 0.0 if isinstance(S, OneOverF) else f_max * float(S.psd(hi)) / hi
    assert tail <= 1e-14 * total
    return total / math.pi

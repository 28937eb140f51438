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


def knot_integral(bank, t0, t1):
    """Integral over [t0, t1] of the linear interpolant of ``bank``'s knots,
    one value per channel.

    An oracle for ``OUBank.held`` that shares no code with it: the
    trapezoid rule on t0, the knots strictly inside and t1, each read by
    ``np.interp``, is exact for a function linear between those points.
    """
    knots = np.arange(bank.values.shape[0]) * bank.dt
    ts = np.concatenate(([t0], knots[(knots > t0) & (knots < t1)], [t1]))
    vals = np.stack([np.interp(ts, knots, col) for col in bank.values.T], axis=1)
    return 0.5 * np.diff(ts) @ (vals[1:] + vals[:-1])


def held_noise_ode(plan, bs, bank, gamma):
    """s_z at the readout of ``plan`` for each field of ``bs``, from |0>.

    An oracle for the noisy executor that shares no code with it: DOP853 on
    ds/dt = R(t) x s in the lab frame, with R = (rabi cos phi, rabi sin phi,
    gamma*B + w) and the drive phase phi as each segment gives it.  It is
    restarted at every knot of ``bank`` and at every segment end, and on
    each such interval w is held at the mean of the bank's knot values,
    interpolated linearly (``np.interp``), at the interval's two edges.
    Channel j of a bank with one channel per field is field j's noise; a
    one-channel bank is every field's.  Pulses are ``rotation_matrix``.
    """
    from scipy.integrate import solve_ivp

    bs = np.asarray(bs, dtype=float)
    m = bs.size
    knots = np.arange(bank.values.shape[0]) * bank.dt
    noise = np.broadcast_to(bank.values, (knots.size, m))

    def noise_at(t):
        return np.array([np.interp(t, knots, noise[:, j]) for j in range(m)])

    s = np.tile([0.0, 0.0, 1.0], (m, 1))
    t0 = 0.0
    for seg in plan.segments:
        if hasattr(seg, "axis_phase"):
            axis = [math.cos(seg.axis_phase), math.sin(seg.axis_phase), 0.0]
            s = s @ rotation_matrix(axis, seg.angle).T
            continue
        rabi = getattr(seg, "rabi", 0.0)
        phase0 = getattr(seg, "phase_start", 0.0)
        rate = getattr(seg, "phase_rate", 0.0)
        t1 = t0 + seg.duration
        edges = np.concatenate(([t0], knots[(knots > t0) & (knots < t1)], [t1]))
        for a, b in zip(edges[:-1], edges[1:]):
            wz = gamma * bs + 0.5 * (noise_at(a) + noise_at(b))

            def rhs(t, y, t0=t0, wz=wz):
                phase = phase0 + rate * (t - t0)
                r = np.empty((m, 3))
                r[:, 0] = rabi * math.cos(phase)
                r[:, 1] = rabi * math.sin(phase)
                r[:, 2] = wz
                return np.cross(r, y.reshape(m, 3)).ravel()

            s = solve_ivp(rhs, (a, b), s.ravel(), method="DOP853", rtol=1e-12,
                          atol=1e-12).y[:, -1].reshape(m, 3)
        t0 = t1
    return s[:, 2]


def rotation_matrices(nx, ny, nz, angle) -> np.ndarray:
    """Axis-angle rotation matrices, vectorized over leading dimensions.

    The 3x3 kernel the propagators used before they composed Cayley-Klein
    pairs, kept as a reference for them.  ``nx, ny, nz`` are unit-axis
    components and ``angle`` rotation angles, all broadcastable to a common
    shape; returns that shape + (3, 3), in the inputs' float type (so
    ``np.longdouble`` inputs give an extended-precision reference).
    """
    nx, ny, nz, angle = np.broadcast_arrays(nx, ny, nz, angle)
    c = np.cos(angle)
    s = np.sin(angle)
    k = 1.0 - c
    kx, ky, kz = k * nx, k * ny, k * nz
    kxy, kxz, kyz = kx * ny, kx * nz, ky * nz
    sx, sy, sz = s * nx, s * ny, s * nz
    mats = np.empty(angle.shape + (3, 3), dtype=np.result_type(c, nx))
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


def reduce_time_ordered(mats: np.ndarray) -> np.ndarray:
    """Product of a stack of matrices preserving time order.

    ``mats[0]`` acts first, so the result equals ``mats[-1] @ ... @ mats[0]``.
    """
    while mats.shape[0] > 1:
        if mats.shape[0] % 2 == 1:
            tail = mats[-1:]
            mats = np.concatenate([np.matmul(mats[1:-1:2], mats[0:-1:2]), tail], axis=0)
        else:
            mats = np.matmul(mats[1::2], mats[0::2])
    return mats[0]


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


def _gap_variance_bracket(y):
    """2y - 3 + 4e^-y - e^-2y: the variance of the phase an OU gap of
    y = gap/tau_c adds given the gap's start value, in units of
    (tau_c delta)^2 (Gillespie, Phys. Rev. E 54, 2084 (1996)).  The closed
    form cancels at small y (the bracket starts at 2y^3/3), so below
    y = 0.5 it is summed as its series sum_{k>=3} (-1)^k (4 - 2^k) y^k / k!."""
    if y >= 0.5:
        return 2.0 * y - 3.0 + 4.0 * math.exp(-y) - math.exp(-2.0 * y)
    return sum((-1) ** k * (4.0 - 2.0 ** k) * y ** k / math.factorial(k)
               for k in range(3, 26))


def ou_phases_reference(S, t_grid, echo, rng, n_traj):
    """(n_traj, len(t_grid)) OU phases by the gap-by-gap Gillespie recursion.

    An oracle for ``noise._phase_map``, which writes the same recursion as
    one precomputed linear map for each group of requested times: this one
    walks the gaps between the knots (0, the times and, for the echo, their
    halves) one at a time on the same normals.  Row 0 of the (2 gaps + 1,
    n_traj) draw from ``rng`` seeds the stationary start, rows 2k+1 and
    2k+2 drive gap k.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    knots = np.unique(np.concatenate(
        ([0.0], t_grid, t_grid / 2.0) if echo else ([0.0], t_grid)))
    y = np.diff(knots) / S.tau_c
    one_minus_a = -np.expm1(-y)
    a = 1.0 - one_minus_a
    tau_d = S.tau_c * S.delta
    l11 = S.delta * np.sqrt(one_minus_a * (1.0 + a))
    l21 = tau_d * one_minus_a * np.sqrt(one_minus_a / (1.0 + a))
    var_i = np.array([_gap_variance_bracket(v) for v in y]) * tau_d**2
    l22 = np.sqrt(var_i - l21 * l21)
    mean_i = S.tau_c * one_minus_a

    z = rng.standard_normal((2 * y.size + 1, n_traj))
    x = S.delta * z[0]
    phase = np.zeros((knots.size, n_traj))
    for k in range(y.size):
        z1, z2 = z[2 * k + 1], z[2 * k + 2]
        phase[k + 1] = phase[k] + mean_i[k] * x + l21[k] * z1 + l22[k] * z2
        x = a[k] * x + l11[k] * z1
    at_t = phase[np.searchsorted(knots, t_grid)]
    if echo:
        at_t = 2.0 * phase[np.searchsorted(knots, t_grid / 2.0)] - at_t
    return at_t.T


def ou_recursion_reference(S, n_steps, dt, n_traj, seed_key):
    """(n_steps+1, n_traj) OU detunings by the step-by-step recursion.

    An oracle for ``noise._ou_block``, which sums the same recursion as a
    doubling prefix scan: this one walks x[k+1] = a*x[k] +
    delta*sqrt(1-a^2)*z[k+1] one row at a time, from x[0] = delta*z[0], on
    the same (n_steps+1, n_traj) draw from ``default_rng(seed_key)``.
    """
    z = np.random.default_rng(seed_key).standard_normal((n_steps + 1, n_traj))
    a = math.exp(-dt / S.tau_c)
    x = S.delta * math.sqrt(1.0 - a * a) * z
    x[0] = S.delta * z[0]
    for k in range(n_steps):
        x[k + 1] += a * x[k]
    return x

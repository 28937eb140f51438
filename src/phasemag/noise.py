"""Noise spectra, filter functions, the dephasing integral and its oracle.

Spectral conventions, all in one place to avoid factor-of-two drift:

* S(omega) is a ONE-SIDED power spectral density of the detuning noise
  (units (rad/s)^2 per rad/s), evaluated for omega >= 0.
* Lorentzian family: S(omega) = 2*Delta^2*tau_c / (1 + omega^2*tau_c^2),
  the PSD of an Ornstein-Uhlenbeck detuning process with stationary
  variance Delta^2 and autocorrelation Delta^2*exp(-|t|/tau_c).
* Filter functions: F0(x) = 2*sin^2(x/2) passes static/low frequency,
  F1(x) = 8*sin^4(x/4) blocks it (echo-like).
* Dephasing exponent of the alternating-sweep sequence:

      chi(T) = A^2/pi * int_0^inf S(w) F0(wT)/w^2 dw
              +  1/pi * int_0^inf S(w) F1(wT)/w^2 dw

  and coherence W(T) = exp(-chi(T)).  A pure free-precession sequence has
  exponent equal to the first integral alone (A = 1 with no echo term) and
  a two-pulse echo the second alone.

With these conventions the Ornstein-Uhlenbeck time-domain oracle satisfies
<cos(int detuning dt)> = exp(-chi) exactly in the Gaussian limit, which the
tests exercise against the quadrature path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from .constants import NV
from .errors import (CalibrationFailure, FitFailure, InvalidParameter,
                     QuadratureFailure)

__all__ = [
    "Lorentzian",
    "White",
    "OneOverF",
    "SpectralDensity",
    "FilterFunctionKind",
    "QuadratureSpec",
    "DecoherenceTerms",
    "CoherenceCurve",
    "SpectralOverlay",
    "OUTrajectory",
    "OUBank",
    "filter_function",
    "ou_bank",
    "ramsey_exponent",
    "echo_exponent",
    "decoherence_function",
    "coherence_decay",
    "fit_T2g",
    "calibrate_noise",
    "ou_trajectory",
    "mc_free_precession_decay",
    "spectral_overlay",
]


# ---------------------------------------------------------------------------
# spectral density families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lorentzian:
    """S(w) = 2*delta^2*tau_c / (1 + w^2 tau_c^2)."""

    delta: float
    tau_c: float

    def __post_init__(self):
        if not self.delta > 0 or not self.tau_c > 0:
            raise InvalidParameter("delta and tau_c must be positive")

    def psd(self, omega):
        omega = np.asarray(omega, dtype=float)
        return 2.0 * self.delta**2 * self.tau_c / (1.0 + (omega * self.tau_c) ** 2)

    def tail_integral(self, w: float) -> float:
        """Exact int_w^inf S(x)/x^2 dx = 2*delta^2*tau_c^2*(u - atan(u)), u = 1/(tau_c*w).

        The series branch avoids the catastrophic cancellation of the naive
        1/w - tau_c*(pi/2 - atan(tau_c*w)) form at large cutoffs.
        """
        u = 1.0 / (self.tau_c * w)
        if u < 1e-2:
            g = u**3 / 3.0 * (1.0 - 0.6 * u * u + (3.0 / 7.0) * u**4)
        else:
            g = u - math.atan(u)
        return 2.0 * self.delta**2 * self.tau_c**2 * g

    def corner_frequencies(self):
        return (1.0 / self.tau_c,)

    def hard_cutoff(self):
        return None


@dataclass(frozen=True)
class White:
    """Flat S(w) = level."""

    level: float

    def __post_init__(self):
        if not self.level >= 0:
            raise InvalidParameter("level must be nonnegative")

    def psd(self, omega):
        return np.full_like(np.asarray(omega, dtype=float), self.level)

    def tail_integral(self, w: float) -> float:
        return self.level / w

    def corner_frequencies(self):
        return ()

    def hard_cutoff(self):
        return None


@dataclass(frozen=True)
class OneOverF:
    """S(w) = amplitude / w inside [omega_min, omega_max], zero outside."""

    amplitude: float
    omega_min: float
    omega_max: float

    def __post_init__(self):
        if not self.amplitude >= 0:
            raise InvalidParameter("amplitude must be nonnegative")
        if not 0 < self.omega_min < self.omega_max:
            raise InvalidParameter("need 0 < omega_min < omega_max")

    def psd(self, omega):
        omega = np.asarray(omega, dtype=float)
        inside = (omega >= self.omega_min) & (omega <= self.omega_max)
        with np.errstate(divide="ignore"):
            vals = np.where(inside, self.amplitude / np.maximum(omega, 1e-300), 0.0)
        return vals

    def tail_integral(self, w: float) -> float:
        lo = max(w, self.omega_min)
        if lo >= self.omega_max:
            return 0.0
        return self.amplitude * (lo**-2 - self.omega_max**-2) / 2.0

    def corner_frequencies(self):
        return (self.omega_min, self.omega_max)

    def hard_cutoff(self):
        return self.omega_max


SpectralDensity = Union[Lorentzian, White, OneOverF]


class FilterFunctionKind(Enum):
    GEOMETRIC_F0 = "F0"
    DYNAMIC_F1 = "F1"


def filter_function(kind: FilterFunctionKind, x):
    """F0(x) = 2 sin^2(x/2);  F1(x) = 8 sin^4(x/4)."""
    x = np.asarray(x, dtype=float)
    if kind is FilterFunctionKind.GEOMETRIC_F0:
        return 2.0 * np.sin(x / 2.0) ** 2
    if kind is FilterFunctionKind.DYNAMIC_F1:
        return 8.0 * np.sin(x / 4.0) ** 4
    raise InvalidParameter(f"unknown filter kind {kind!r}")


# mean value of each filter over one oscillation period, used for the
# large-frequency tail where S varies slowly over a period
_FILTER_MEAN = {FilterFunctionKind.GEOMETRIC_F0: 1.0,
                FilterFunctionKind.DYNAMIC_F1: 3.0}


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy policy for the frequency-domain integrals."""

    rel_tol: float = 1e-4
    points: int = 32
    max_doublings: int = 6
    tail_rel: float = 1e-7
    subdivide: int = 1

    def __post_init__(self):
        if not self.rel_tol > 0 or self.points < 2 or self.subdivide < 1:
            raise InvalidParameter("invalid quadrature spec")


_GL_CACHE: dict = {}


def _gl_nodes(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _segment_edges(S: SpectralDensity, duration: float, n_periods: int,
                   subdivide: int) -> np.ndarray:
    """Half-period ladder k*pi/T with dyadic refinement toward 0.

    Refinement resolves spectral corners that sit far below the first
    filter oscillation (e.g. 1/tau_c for a quasi-static bath).
    """
    step = math.pi / duration
    edges = [step * k for k in range(n_periods + 1)]
    corners = [c for c in S.corner_frequencies() if 0 < c < step]
    if corners:
        lowest = min(corners)
        j_max = min(60, int(math.ceil(math.log2(step / (lowest / 8.0)))))
        edges.extend(step / 2.0**j for j in range(1, j_max + 1))
    inside = [c for c in S.corner_frequencies() if step < c < edges[-1]]
    edges.extend(inside)
    edges = np.unique(np.asarray(edges, dtype=float))
    if subdivide > 1:
        fine = []
        for a, b in zip(edges[:-1], edges[1:]):
            fine.append(np.linspace(a, b, subdivide + 1)[:-1])
        edges = np.concatenate(fine + [edges[-1:]])
    return edges


def _weighted_filter_integral(S: SpectralDensity, kind: FilterFunctionKind,
                              duration: float, quad: QuadratureSpec) -> float:
    """(1/pi) * int_0^inf S(w) F(w*T) / w^2 dw with error control."""
    fbar = _FILTER_MEAN[kind]

    def integrand(w):
        w = np.asarray(w, dtype=float)
        x = w * duration
        if kind is FilterFunctionKind.GEOMETRIC_F0:
            # stable near 0: 2 sin^2(x/2)/w^2 -> T^2/2
            half = np.sin(x / 2.0)
            weight = 2.0 * half * half / np.where(w > 0, w * w, 1.0)
            weight = np.where(w > 0, weight, duration**2 / 2.0)
        else:
            q = np.sin(x / 4.0)
            weight = 8.0 * q**4 / np.where(w > 0, w * w, 1.0)
            weight = np.where(w > 0, weight, 0.0)
        return S.psd(w) * weight

    def evaluate(n_periods: int, points: int):
        edges = _segment_edges(S, duration, n_periods, quad.subdivide)
        x, wts = _gl_nodes(points)
        a, b = edges[:-1], edges[1:]
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        nodes = mid[:, None] + half[:, None] * x[None, :]
        vals = integrand(nodes)
        body = float(np.sum(wts[None, :] * vals * half[:, None]))
        w_hi = float(edges[-1])
        tail = fbar * S.tail_integral(w_hi)
        # slow-variation error of replacing F by its mean in the tail
        tail_err = 2.0 * float(S.psd(w_hi)) / (w_hi**2 * duration)
        return body + tail, tail, tail_err

    # grow the cutoff until the tail approximation error is negligible
    n_periods = 64
    value = tail = tail_err = 0.0
    for _ in range(16):
        value, tail, tail_err = evaluate(n_periods, quad.points)
        scale = max(abs(value), 1e-300)
        if tail_err <= quad.tail_rel * scale:
            break
        n_periods *= 2
    else:
        raise QuadratureFailure(
            f"tail not controlled at cutoff {n_periods} half-periods "
            f"(tail error {tail_err:.3e} vs value {value:.3e})"
        )

    # node-doubling error estimate
    points = quad.points
    for _ in range(quad.max_doublings):
        refined, _, _ = evaluate(n_periods, points * 2)
        scale = max(abs(refined), 1e-300)
        err = abs(refined - value) / scale
        value, points = refined, points * 2
        if err <= quad.rel_tol:
            return value / math.pi
    raise QuadratureFailure(
        f"relative error target {quad.rel_tol:.1e} not met at {points} "
        f"nodes per segment (last change {err:.3e})"
    )


def ramsey_exponent(S: SpectralDensity, duration: float,
                    quad: Optional[QuadratureSpec] = None) -> float:
    """Dephasing exponent of free precession: (1/pi) int S F0/w^2."""
    if not duration > 0:
        raise InvalidParameter(f"duration must be positive, got {duration}")
    return _weighted_filter_integral(S, FilterFunctionKind.GEOMETRIC_F0,
                                     duration, quad or QuadratureSpec())


def echo_exponent(S: SpectralDensity, duration: float,
                  quad: Optional[QuadratureSpec] = None) -> float:
    """Dephasing exponent of a two-pulse echo: (1/pi) int S F1/w^2."""
    if not duration > 0:
        raise InvalidParameter(f"duration must be positive, got {duration}")
    return _weighted_filter_integral(S, FilterFunctionKind.DYNAMIC_F1,
                                     duration, quad or QuadratureSpec())


@dataclass(frozen=True)
class DecoherenceTerms:
    """chi(T) split into its two filter contributions."""

    geometric: float
    dynamic: float

    @property
    def total(self) -> float:
        return self.geometric + self.dynamic


def decoherence_function(S: SpectralDensity, adiabaticity: float,
                         duration: float,
                         quad: Optional[QuadratureSpec] = None) -> DecoherenceTerms:
    """chi(T) = A^2 * (F0 term) + (F1 term); both terms returned separately.

    The A dependence is a pure A^2 prefactor on the first term, so
    chi(A) - chi(0) = A^2 * [chi(1) - chi(0)] holds exactly.
    """
    if not adiabaticity >= 0:
        raise InvalidParameter(f"adiabaticity must be >= 0, got {adiabaticity}")
    if isinstance(S, White) and S.level == 0.0:
        return DecoherenceTerms(0.0, 0.0)
    i0 = ramsey_exponent(S, duration, quad)
    i1 = echo_exponent(S, duration, quad)
    return DecoherenceTerms(geometric=adiabaticity**2 * i0, dynamic=i1)


@dataclass(frozen=True)
class CoherenceCurve:
    """Sampled coherence decay with an optional squared-exponential fit."""

    times: tuple
    values: tuple
    t2g: Optional[float] = None
    residual: Optional[float] = None
    stretch_exponent: int = 2


def coherence_decay(S: SpectralDensity, adiabaticity: float, t_grid,
                    quad: Optional[QuadratureSpec] = None) -> CoherenceCurve:
    """W(T) = exp(-chi(T)) on an increasing grid of interaction times."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0 or np.any(np.diff(t_grid) <= 0):
        raise InvalidParameter("t_grid must be nonempty and increasing")
    w = [math.exp(-decoherence_function(S, adiabaticity, float(t), quad).total)
         for t in t_grid]
    return CoherenceCurve(times=tuple(float(t) for t in t_grid),
                          values=tuple(w))


def fit_T2g(samples) -> tuple[float, float]:
    """Least-squares fit of amplitude*exp(-(T/T2g)^2) to (T, P) samples.

    Returns (T2g, rms residual).  Raises FitFailure when the samples carry
    no decay (within noise of a constant) and InvalidParameter for fewer
    than 4 samples.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 4:
        raise InvalidParameter("need at least 4 (T, P) samples")
    t, p = arr[:, 0], arr[:, 1]
    if float(np.ptp(p)) < 1e-3:
        raise FitFailure("no decay detected: samples are constant within noise")

    def model(tt, amp, t2g):
        return amp * np.exp(-((tt / t2g) ** 2))

    amp0 = float(np.max(p))
    below = t[p < amp0 / math.e]
    t2g0 = float(below[0]) if below.size else float(t[-1])
    t2g0 = max(t2g0, 1e-3 * float(t[-1]))
    from scipy import optimize

    try:
        popt, _ = optimize.curve_fit(model, t, p, p0=(amp0, t2g0),
                                     bounds=([0.0, 1e-6 * t[-1]],
                                             [2.0, 1e6 * t[-1]]),
                                     maxfev=20000)
    except Exception as exc:  # scipy raises RuntimeError on non-convergence
        raise FitFailure(f"squared-exponential fit failed: {exc}") from exc
    amp, t2g = float(popt[0]), float(popt[1])
    if t2g > 50.0 * float(t[-1]):
        raise FitFailure("no decay detected within the sampled time span")
    residual = float(np.sqrt(np.mean((model(t, amp, t2g) - p) ** 2)))
    return t2g, residual


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def _one_over_e_time(exponent_fn, S: SpectralDensity, guess: float,
                     quad: QuadratureSpec) -> float:
    """Solve exponent(T) = 1 by bracketed root search (exponent is monotone)."""

    def f(t):
        return exponent_fn(S, t, quad) - 1.0

    lo, hi = guess, guess
    flo, fhi = f(lo), f(hi)
    for _ in range(60):
        if flo < 0:
            break
        lo /= 4.0
        flo = f(lo)
    for _ in range(60):
        if fhi > 0:
            break
        hi *= 4.0
        fhi = f(hi)
    if not (flo < 0 < fhi):
        raise CalibrationFailure("could not bracket the 1/e decay time")
    from scipy import optimize

    return float(optimize.brentq(f, lo, hi, xtol=guess * 1e-9, rtol=1e-12))


def calibrate_noise(t2_star: float, t2: float,
                    quad: Optional[QuadratureSpec] = None,
                    tol: float = 0.05) -> Lorentzian:
    """Find (delta, tau_c) whose free-precession and echo 1/e times match targets.

    Two-dimensional root search in log parameters, with the exponents
    evaluated through the quadrature pipeline (pure F0 filter for the
    free-precession target, pure F1 for the echo target).  Raises
    CalibrationFailure when the targets cannot be met within ``tol`` —
    in particular for t2 <= t2_star*(1 + 2*tol), where the echo gain the
    family always provides cannot be distinguished from the tolerance.
    """
    if not t2_star > 0 or not t2 > 0:
        raise InvalidParameter("targets must be positive")
    if t2 < t2_star:
        raise InvalidParameter("echo target must not be below the free-precession target")
    if t2 <= t2_star * (1.0 + 2.0 * tol):
        raise CalibrationFailure(
            f"targets t2={t2:g}, t2_star={t2_star:g} are degenerate for a "
            f"Lorentzian bath at tolerance {tol:g}"
        )
    quad = quad or QuadratureSpec()
    delta0 = math.sqrt(2.0) / t2_star
    tau0 = delta0**2 * t2**3 / 12.0

    def residual(logp):
        S = Lorentzian(delta=math.exp(logp[0]), tau_c=math.exp(logp[1]))
        r = _one_over_e_time(ramsey_exponent, S, t2_star, quad)
        e = _one_over_e_time(echo_exponent, S, t2, quad)
        return [math.log(r / t2_star), math.log(e / t2)]

    from scipy import optimize

    try:
        sol = optimize.root(residual, [math.log(delta0), math.log(tau0)],
                            method="hybr", options={"xtol": 1e-10})
        S = Lorentzian(delta=math.exp(sol.x[0]), tau_c=math.exp(sol.x[1]))
        achieved_r = _one_over_e_time(ramsey_exponent, S, t2_star, quad)
        achieved_e = _one_over_e_time(echo_exponent, S, t2, quad)
    except CalibrationFailure:
        raise
    except Exception as exc:
        raise CalibrationFailure(f"root search failed: {exc}") from exc
    if abs(achieved_r / t2_star - 1.0) > tol or abs(achieved_e / t2 - 1.0) > tol:
        raise CalibrationFailure(
            f"best candidate reaches 1/e times ({achieved_r:.3e}, {achieved_e:.3e}) "
            f"vs targets ({t2_star:.3e}, {t2:.3e})",
            best=S,
        )
    return S


# ---------------------------------------------------------------------------
# time-domain oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OUTrajectory:
    """Sampled Ornstein-Uhlenbeck detuning noise, callable as field offset.

    ``values`` are detunings in rad/s; calling the trajectory linearly
    interpolates and converts to field units through gamma.
    """

    times: np.ndarray
    values: np.ndarray
    gamma: float

    def __call__(self, t):
        return np.interp(t, self.times, self.values) / self.gamma

    def detuning(self, t):
        return np.interp(t, self.times, self.values)


def ou_trajectory(S: Lorentzian, duration: float, dt: float, seed,
                  gamma: float = NV.gamma) -> OUTrajectory:
    """Exact-discretization OU trajectory matching the Lorentzian PSD.

    The update x[k+1] = a*x[k] + delta*sqrt(1-a^2)*z with a = exp(-dt/tau_c)
    reproduces the stationary autocovariance delta^2 exp(-|t|/tau_c) at the
    grid points exactly.  ``seed`` is an int or a sequence of ints (a
    ``numpy.random.default_rng`` key); the trajectory is reproducible
    bit-for-bit for a fixed seed.
    """
    n = _ou_steps(S, duration, dt)
    x = _ou_block(S, n, dt, 1, seed)[:, 0]
    return OUTrajectory(times=np.arange(n + 1) * dt, values=x, gamma=gamma)


def _ou_steps(S: Lorentzian, duration: float, dt: float) -> int:
    """Number of dt steps spanning ``duration``, after validating the grid."""
    if not isinstance(S, Lorentzian):
        raise InvalidParameter("trajectory generation needs a Lorentzian density")
    if not duration > 0 or not dt > 0:
        raise InvalidParameter("duration and dt must be positive")
    if dt > S.tau_c / 10.0:
        raise InvalidParameter(
            f"dt={dt:g} too coarse; need dt <= tau_c/10 = {S.tau_c / 10.0:g}"
        )
    return int(math.ceil(duration / dt))


def _ou_block(S: Lorentzian, n_steps: int, dt: float, n_traj: int,
              seed_key) -> np.ndarray:
    """(n_steps+1, n_traj) stationary OU detunings in rad/s, one column per run.

    Every trajectory generator uses this recursion.  All normals are drawn
    as one C-ordered block from ``default_rng(seed_key)``: row k holds step
    k of every trajectory, and with ``n_traj`` = 1 the column is the plain
    1-D draw ``standard_normal(n_steps + 1)`` of the same key.  One column
    runs the recursion on Python floats, which is the same IEEE arithmetic
    as the row operation without its per-step numpy overhead.
    """
    z = np.random.default_rng(seed_key).standard_normal((n_steps + 1, n_traj))
    a = math.exp(-dt / S.tau_c)
    sigma_step = S.delta * math.sqrt(1.0 - a * a)
    x = sigma_step * z
    x[0] = S.delta * z[0]
    if n_traj == 1:
        col = x[:, 0].tolist()
        for k in range(n_steps):
            col[k + 1] += a * col[k]
        x[:, 0] = col
        return x
    for k in range(n_steps):
        x[k + 1] += a * x[k]
    return x


def mc_free_precession_decay(S: Lorentzian, t_grid, n_traj: int, seed: int,
                             echo: bool = False,
                             chunk: int = 512) -> np.ndarray:
    """Monte-Carlo <cos(accumulated phase)> over OU detuning trajectories.

    ``echo=False`` integrates the detuning straight over [0, T]; ``echo=True``
    flips the sign at T/2 (two-pulse echo).  Trajectories are generated in
    chunks whose random streams derive from (seed, chunk index), so the result
    is independent of chunking and scheduling order.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 0):
        raise InvalidParameter("times must be nonnegative")
    t_max = float(np.max(t_grid))
    if t_max == 0.0:
        return np.ones_like(t_grid)
    dt = min(S.tau_c / 10.0, t_max / 1024.0)
    n_steps = int(math.ceil(t_max / dt)) + 1

    def phase_at(cum, times_needed):
        idx = np.clip((times_needed / dt).astype(int), 0, n_steps - 1)
        frac = times_needed / dt - idx
        return cum[:, idx] + frac[None, :] * (cum[:, idx + 1] - cum[:, idx])

    total = np.zeros_like(t_grid)
    done = 0
    chunk_index = 0
    while done < n_traj:
        m = min(chunk, n_traj - done)
        x = _ou_block(S, n_steps, dt, m, [seed, chunk_index]).T
        cum = np.empty((m, n_steps + 1), dtype=float)
        cum[:, 0] = 0.0
        np.cumsum((x[:, 1:] + x[:, :-1]) * (dt / 2.0), axis=1, out=cum[:, 1:])
        if echo:
            phi = 2.0 * phase_at(cum, t_grid / 2.0) - phase_at(cum, t_grid)
        else:
            phi = phase_at(cum, t_grid)
        total += np.sum(np.cos(phi), axis=0)
        done += m
        chunk_index += 1
    return total / n_traj


@dataclass(frozen=True)
class OUBank:
    """Ensemble of OU trajectories on a shared uniform grid.

    Calling the bank with times (n,) returns field offsets of shape
    (n, n_traj), the layout the batched sequence executor consumes.
    """

    times: np.ndarray
    values: np.ndarray  # (n_steps+1, n_traj) detunings in rad/s
    gamma: float

    @property
    def n_traj(self) -> int:
        return self.values.shape[1]

    def __call__(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        dt = self.times[1] - self.times[0]
        idx = np.clip((t / dt).astype(int), 0, len(self.times) - 2)
        frac = t / dt - idx
        return (self.values[idx, :]
                + frac[:, None] * (self.values[idx + 1, :] - self.values[idx, :])
                ) / self.gamma


def ou_bank(S: Lorentzian, duration: float, dt: float, n_traj: int, seed: int,
            gamma: float = NV.gamma) -> OUBank:
    """Generate ``n_traj`` exact-discretization OU trajectories at once."""
    n = _ou_steps(S, duration, dt)
    return OUBank(times=np.arange(n + 1) * dt,
                  values=_ou_block(S, n, dt, n_traj, [seed, 0]), gamma=gamma)


@dataclass(frozen=True)
class SpectralOverlay:
    """Integrand components of chi on a frequency grid, for plotting."""

    omega: np.ndarray
    psd: np.ndarray
    geometric_weight: np.ndarray
    dynamic_weight: np.ndarray


def spectral_overlay(S: SpectralDensity, adiabaticity: float, duration: float,
                     omega_grid) -> SpectralOverlay:
    """Tabulate S(w), A^2*F0(wT)/w^2 and F1(wT)/w^2 on a positive grid."""
    omega = np.asarray(omega_grid, dtype=float)
    if omega.size == 0 or np.any(omega <= 0) or np.any(np.diff(omega) <= 0):
        raise InvalidParameter("omega_grid must be positive and increasing")
    x = omega * duration
    f0 = filter_function(FilterFunctionKind.GEOMETRIC_F0, x)
    f1 = filter_function(FilterFunctionKind.DYNAMIC_F1, x)
    return SpectralOverlay(
        omega=omega,
        psd=np.asarray(S.psd(omega), dtype=float),
        geometric_weight=adiabaticity**2 * f0 / omega**2,
        dynamic_weight=f1 / omega**2,
    )

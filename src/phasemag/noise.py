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
* Each built-in family has both integrals in closed form, so no quadrature
  runs.  Lorentzian, with x = T/tau_c (Cywinski et al., Phys. Rev. B 77,
  174509 (2008)): Delta^2 tau_c^2 (x - 1 + e^-x) for F0 and
  Delta^2 tau_c^2 (x - 3 + 4 e^(-x/2) - e^-x) for F1.  White: S0*T/2 for
  both.  1/f: (A T^2/pi) [P(w_max T) - P(w_min T)], with P the antiderivative
  of F(u)/u^3 written through the cosine integral Ci.

With these conventions the Ornstein-Uhlenbeck time-domain oracle satisfies
<cos(int detuning dt)> = exp(-chi) exactly, since the phase is Gaussian,
which the tests check against the closed-form exponents.  The oracle
(``mc_free_precession_decay``) draws each trajectory's detuning and its
time integral jointly and exactly at the requested times only (Gillespie,
Phys. Rev. E 54, 2084 (1996)), so no time step enters.  Those draws are a
fixed linear map of the normals, so each call builds the map once, from
the gap coefficients, and applies it to every chunk of trajectories: one
normals draw (the same ``default_rng([seed, chunk])`` stream and row layout
as the gap-by-gap recursion), one matrix product per block of gaps, one
cos and one sum.  The echo's 2 I(T/2) - I(T) is folded into the map's
rows.  Up to ``_ONE_BLOCK`` gaps (32 echo times) are one block; longer
grids go in blocks of ``_GAP_BLOCK`` gaps, so besides the chunk's normals
memory is of order times x block size, never gaps x gaps.  The sequence
executor takes its noise as an ``OUBank``: trajectories sampled exactly on
uniform knots and interpolated linearly, one per column (``ou_bank`` draws
many, ``ou_trajectory`` one).  ``OUBank.detuning_integral`` gives the exact
integral of that interpolant, which makes noisy free evolution one z
rotation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .constants import NV
from .errors import CalibrationFailure, FitFailure, InvalidParameter
from .solve import NoRoot, find_root

__all__ = [
    "Lorentzian",
    "White",
    "OneOverF",
    "SpectralDensity",
    "FilterFunctionKind",
    "DecoherenceTerms",
    "CoherenceCurve",
    "SpectralOverlay",
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
        if not 0 < self.delta < math.inf or not 0 < self.tau_c < math.inf:
            raise InvalidParameter("delta and tau_c must be positive and finite")
        if not 2.0 * self.delta * self.delta * self.tau_c < math.inf:
            raise InvalidParameter(
                f"the spectral level 2*delta^2*tau_c overflows for "
                f"delta={self.delta:g}, tau_c={self.tau_c:g}")

    def psd(self, omega):
        omega = np.asarray(omega, dtype=float)
        level = 2.0 * self.delta**2 * self.tau_c
        # (w tau_c)^2 overflows above w tau_c ~ 1.3e154.  Beyond 1e150 the 1
        # is below rounding, and level / (w tau_c) / (w tau_c) underflows
        # towards the limit 0 instead; w tau_c itself overflows only where
        # that quotient is 0 anyway.
        with np.errstate(over="ignore"):
            u = omega * self.tau_c
        near, far = np.minimum(u, 1e150), np.maximum(u, 1e150)
        return np.where(u <= 1e150, level / (1.0 + near * near),
                        level / far / far)


@dataclass(frozen=True)
class White:
    """Flat S(w) = level."""

    level: float

    def __post_init__(self):
        if not 0 <= self.level < math.inf:
            raise InvalidParameter("level must be nonnegative and finite")

    def psd(self, omega):
        return np.full_like(np.asarray(omega, dtype=float), self.level)


@dataclass(frozen=True)
class OneOverF:
    """S(w) = amplitude / w inside [omega_min, omega_max], zero outside."""

    amplitude: float
    omega_min: float
    omega_max: float

    def __post_init__(self):
        if not 0 <= self.amplitude < math.inf:
            raise InvalidParameter("amplitude must be nonnegative and finite")
        if not 0 < self.omega_min < self.omega_max < math.inf:
            raise InvalidParameter("need 0 < omega_min < omega_max < inf")

    def psd(self, omega):
        omega = np.asarray(omega, dtype=float)
        inside = (omega >= self.omega_min) & (omega <= self.omega_max)
        with np.errstate(divide="ignore"):
            vals = np.where(inside, self.amplitude / np.maximum(omega, 1e-300), 0.0)
        return vals


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


def _check_duration(duration: float) -> None:
    if not 0 < duration < math.inf:
        raise InvalidParameter(f"duration must be positive and finite, got {duration}")


# adiabaticity**2 overflows a float above about 1.3e154
_MAX_ADIABATICITY = 1e150


def _check_adiabaticity(adiabaticity: float) -> None:
    if not 0 <= adiabaticity < _MAX_ADIABATICITY:
        raise InvalidParameter(f"adiabaticity must lie in [0, {_MAX_ADIABATICITY:g}), "
                               f"got {adiabaticity}")


def _ou_bracket(x: float, echo: bool) -> float:
    """x - 1 + e^-x, or x - 3 + 4e^(-x/2) - e^-x for the echo (x >= 0).

    Both cancel catastrophically at small x (the echo bracket starts at
    x^3/12), so below x = 0.5 they are summed as the Taylor series
    sum_{k>=2} c_k (-x)^k / k!, with c_k = 1, resp. c_k = 4/2^k - 1.
    """
    if x >= 0.5:
        if echo:
            return x - 3.0 + 4.0 * math.exp(-0.5 * x) - math.exp(-x)
        return x - 1.0 + math.exp(-x)
    total, term = 0.0, -x
    for k in range(2, 20):
        term *= -x / k
        total += term * (4.0 / 2.0**k - 1.0 if echo else 1.0)
    return total


# the echo bracket's Taylor series as a table: the powers k = 2..19 of x
# and their coefficients (4/2^k - 1) (-1)^k / k!
_ECHO_POWERS = np.arange(2, 20)
_ECHO_COEFS = np.array([(4.0 / 2.0**k - 1.0) * (-1.0)**k / math.factorial(k)
                        for k in range(2, 20)])


def _echo_brackets(x: np.ndarray) -> np.ndarray:
    """``_ou_bracket(x, echo=True)`` of each element of the array x >= 0."""
    small = np.minimum(x, 0.5)
    return np.where(x >= 0.5, x - 3.0 + 4.0 * np.exp(-0.5 * x) - np.exp(-x),
                    np.power.outer(small, _ECHO_POWERS) @ _ECHO_COEFS)


def _one_over_f_primitive(u: float, echo: bool) -> float:
    """Antiderivative in u of F(u)/u^3: G(u), or H(u) for the echo.

    G(u) = -sin^2(u/2)/u^2 - sin(u)/(2u) + Ci(u)/2 has G'(u) = F0(u)/u^3,
    and F1(u) = 4 F0(u/2) - F0(u) gives H(u) = G(u/2) - G(u) + ln(2)/2.
    The constant makes H vanish at u = 0: G(u/2) - G(u) tends to -ln(2)/2,
    and a band far below 1/T would cancel that constant between its two
    ends.  Below u = 0.5, H is therefore summed as its series
    sum_{k>=1} g_k (4^-k - 1) u^2k, with g_k the u^2k coefficient of G:
    (-1)^k [1/(4k (2k)!) - 1/(2 (2k+1)!) - 1/(2 (2k+2)!)].
    """
    if echo and u < 0.5:
        total, fact, sign = 0.0, 1.0, 1.0  # fact = (2k)!
        for k in range(1, 12):
            fact *= (2 * k - 1) * (2 * k)
            sign = -sign
            g_k = sign * (1.0 / (4 * k * fact) - 1.0 / (2 * fact * (2 * k + 1))
                          - 1.0 / (2 * fact * (2 * k + 1) * (2 * k + 2)))
            total += g_k * (4.0**-k - 1.0) * u ** (2 * k)
        return total

    from scipy.special import sici  # lazy: `import phasemag` loads no scipy

    def g(v):
        return (-(math.sin(0.5 * v) / v) ** 2 - math.sin(v) / (2.0 * v)
                + 0.5 * float(sici(v)[1]))

    return g(0.5 * u) - g(u) + 0.5 * math.log(2.0) if echo else g(u)


def _exponent(S: SpectralDensity, duration: float, echo: bool) -> float:
    """(1/pi) int_0^inf S(w) F(wT)/w^2 dw in closed form, F = F1 if echo else F0."""
    _check_duration(duration)
    if isinstance(S, Lorentzian):
        scale = S.delta * S.tau_c
        return scale * scale * _ou_bracket(duration / S.tau_c, echo)
    if isinstance(S, White):
        return 0.5 * S.level * duration
    if isinstance(S, OneOverF):
        # u = wT turns the band integral into (A T^2/pi) int F(u)/u^3 du
        return (S.amplitude * duration * duration / math.pi
                * (_one_over_f_primitive(S.omega_max * duration, echo)
                   - _one_over_f_primitive(S.omega_min * duration, echo)))
    raise InvalidParameter(f"unsupported spectral density {S!r}")


def ramsey_exponent(S: SpectralDensity, duration: float) -> float:
    """Dephasing exponent of free precession: (1/pi) int S F0/w^2."""
    return _exponent(S, duration, echo=False)


def echo_exponent(S: SpectralDensity, duration: float) -> float:
    """Dephasing exponent of a two-pulse echo: (1/pi) int S F1/w^2."""
    return _exponent(S, duration, echo=True)


@dataclass(frozen=True)
class DecoherenceTerms:
    """chi(T) split into its two filter contributions."""

    geometric: float
    dynamic: float

    @property
    def total(self) -> float:
        return self.geometric + self.dynamic


def decoherence_function(S: SpectralDensity, adiabaticity: float,
                         duration: float) -> DecoherenceTerms:
    """chi(T) = A^2 * (F0 term) + (F1 term); both terms returned separately.

    The A dependence is a pure A^2 prefactor on the first term, so
    chi(A) - chi(0) = A^2 * [chi(1) - chi(0)] holds exactly.
    """
    _check_adiabaticity(adiabaticity)
    i0 = ramsey_exponent(S, duration)
    i1 = echo_exponent(S, duration)
    return DecoherenceTerms(geometric=adiabaticity**2 * i0, dynamic=i1)


@dataclass(frozen=True)
class CoherenceCurve:
    """Sampled coherence decay W(T) at increasing times T."""

    times: tuple
    values: tuple


def coherence_decay(S: SpectralDensity, adiabaticity: float,
                    t_grid) -> CoherenceCurve:
    """W(T) = exp(-chi(T)) on an increasing grid of interaction times."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0 or np.any(np.diff(t_grid) <= 0):
        raise InvalidParameter("t_grid must be nonempty and increasing")
    w = [math.exp(-decoherence_function(S, adiabaticity, float(t)).total)
         for t in t_grid]
    return CoherenceCurve(times=tuple(float(t) for t in t_grid),
                          values=tuple(w))


def fit_T2g(samples) -> tuple[float, float]:
    """Least-squares fit of amplitude*exp(-(T/T2g)^2) to (T, P) samples.

    The fit is separable (variable projection; Golub & Pereyra, SIAM J.
    Numer. Anal. 10, 413 (1973)): for a fixed T2g the best amplitude in
    [0, 2] is clip(p.e / e.e, 0, 2), with e = exp(-(T/T2g)^2).  The
    projected cost R(T2g) = |p - amplitude*e|^2 then has the derivative
    -2 amplitude (p - amplitude*e).de/dT2g.  Starting at the first sample
    below max(P)/e, the bracket grows downhill until that derivative
    changes sign, and Brent's root (``solve.find_root``) solves it to
    rounding: the nearest local least-squares optimum, exact where an
    iterative fit stops at its tolerance.  Where the derivative is zero at
    the start (no positive amplitude fits there) the start is returned.
    Returns (T2g, rms residual).  Raises FitFailure when the samples carry
    no decay (within noise of a constant, no sign change, or T2g beyond 50
    times the sampled span) and InvalidParameter for fewer than 4 samples.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 4:
        raise InvalidParameter("need at least 4 (T, P) samples")
    t, p = arr[:, 0], arr[:, 1]
    if float(np.ptp(p)) < 1e-3:
        raise FitFailure("no decay detected: samples are constant within noise")
    tt = t * t

    def project(t2g):
        e = np.exp(-tt / (t2g * t2g))
        ee = float(e @ e)
        amp = min(max(float(p @ e) / ee, 0.0), 2.0) if ee > 0 else 0.0
        return amp, e

    def cost_slope(t2g):
        # dR/dT2g without its positive factor 4/T2g^3; the sign is all
        # the root needs
        amp, e = project(t2g)
        return -amp * float((p - amp * e) @ (tt * e))

    amp0 = float(np.max(p))
    below = t[p < amp0 / math.e]
    t2g0 = float(below[0]) if below.size else float(t[-1])
    t2g0 = max(t2g0, 1e-3 * float(t[-1]))
    try:
        # a zero slope at the start means the best amplitude there is 0 and
        # R is flat around it: already a stationary point of the bounded fit
        t2g = (t2g0 if cost_slope(t2g0) == 0 else
               find_root(cost_slope, t2g0, t2g0, grow=2.0, steps=60, xtol=0.0))
    except NoRoot as exc:
        raise FitFailure(f"squared-exponential fit failed: {exc}") from None
    if t2g > 50.0 * float(t[-1]):
        raise FitFailure("no decay detected within the sampled time span")
    amp, e = project(t2g)
    residual = float(np.sqrt(np.mean((amp * e - p) ** 2)))
    return t2g, residual


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

# relative tolerance of a calibrated bath's 1/e times on their targets
_CALIBRATE_TOL = 0.05


def _one_over_e_time(exponent_fn, S: SpectralDensity, guess: float) -> float:
    """Solve exponent(T) = 1 by bracketed root search (exponent is monotone)."""
    try:
        return find_root(lambda t: exponent_fn(S, t) - 1.0, guess, guess,
                         grow=4.0, steps=60, xtol=guess * 1e-9, rtol=1e-12)
    except NoRoot:
        raise CalibrationFailure("could not bracket the 1/e decay time") from None


def _bracket_inverse(q: float, echo: bool) -> float:
    """The x > 0 at which the OU bracket (``_ou_bracket``) equals q > 0."""
    # small-x asymptotes: x^2/2, and x^3/12 for the echo
    guess = (12.0 * q) ** (1.0 / 3.0) if echo else math.sqrt(2.0 * q)
    return find_root(lambda x: _ou_bracket(x, echo) - q, guess, guess,
                     grow=4.0, steps=60, xtol=0.0)


def calibrate_noise(t2_star: float, t2: float) -> Lorentzian:
    """Find (delta, tau_c) whose free-precession and echo 1/e times match targets.

    A Lorentzian's exponents are delta^2 tau_c^2 g(T/tau_c), with g the
    free-precession or the echo bracket of ``_ou_bracket``.  With
    q = 1/(delta*tau_c)^2 each 1/e time is tau_c*g^-1(q), so the ratio
    t2/t2_star = g_echo^-1(q)/g_free^-1(q) depends on q alone and falls
    monotonically from about 162 at q = 1e-12 towards 1 at large q.  One
    bracketed root in q, starting from the quasi-static guess 18*(t2_star/
    t2)^6, therefore solves the calibration; then tau_c = t2_star/g_free^-1(q)
    and delta = 1/(tau_c*sqrt(q)).  The result is checked against the
    targets by solving exponent(T) = 1 for each time afresh.  Raises
    CalibrationFailure when the targets cannot be met within 5 %
    (``_CALIBRATE_TOL``) — in particular for t2 <= 1.1*t2_star, where the
    echo gain the family always provides cannot be distinguished from the
    tolerance.
    """
    if not 0 < t2_star < math.inf or not 0 < t2 < math.inf:
        raise InvalidParameter("targets must be positive and finite")
    if t2 < t2_star:
        raise InvalidParameter("echo target must not be below the free-precession target")
    if t2 <= t2_star * (1.0 + 2.0 * _CALIBRATE_TOL):
        raise CalibrationFailure(
            f"targets t2={t2:g}, t2_star={t2_star:g} are degenerate for a "
            f"Lorentzian bath at tolerance {_CALIBRATE_TOL:g}"
        )
    log_ratio = math.log(t2) - math.log(t2_star)

    def excess(q):
        # increasing in q: target ratio over the ratio q gives, in logs
        return log_ratio - math.log(_bracket_inverse(q, True)
                                    / _bracket_inverse(q, False))

    q0 = 18.0 * math.exp(-6.0 * log_ratio)
    try:
        q = find_root(excess, q0, q0, grow=4.0, steps=60, xtol=0.0,
                      rtol=1e-13)
        tau_c = t2_star / _bracket_inverse(q, False)
        S = Lorentzian(delta=1.0 / (tau_c * math.sqrt(q)), tau_c=tau_c)
    except (NoRoot, InvalidParameter) as exc:
        raise CalibrationFailure(
            f"no Lorentzian bath meets t2_star={t2_star:g}, t2={t2:g}: {exc}"
        ) from None
    achieved_r = _one_over_e_time(ramsey_exponent, S, t2_star)
    achieved_e = _one_over_e_time(echo_exponent, S, t2)
    if (abs(achieved_r / t2_star - 1.0) > _CALIBRATE_TOL
            or abs(achieved_e / t2 - 1.0) > _CALIBRATE_TOL):
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
class OUBank:
    """Ornstein-Uhlenbeck detuning trajectories on shared uniform knots.

    ``times`` are the knots k*dt and ``values`` has shape (n_steps+1,
    n_traj): detunings in rad/s, one column per trajectory, linear in
    between knots.  Calling the bank with times (n,) returns field offsets
    (detuning / ``gamma``) of shape (n, n_traj), the layout the batched
    sequence executor consumes.
    """

    times: np.ndarray
    values: np.ndarray
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

    def detuning_integral(self, t0: float, t1: float) -> np.ndarray:
        """Integral of the interpolated detuning over [t0, t1], in rad.

        The interpolant is linear between knots, so the integral is the
        trapezoid sum over the knots inside [t0, t1] plus the two partial
        intervals at the ends, with no quadrature error.  Returns one value
        per trajectory, shape (n_traj,).
        """
        dt = self.times[1] - self.times[0]
        v = self.values

        def locate(t):
            k = min(max(int(t / dt), 0), len(self.times) - 2)
            return k, t / dt - k

        def from_knot(k, f):
            # integral, in units of dt, from knot k to the fraction f past it
            return f * (v[k] + 0.5 * f * (v[k + 1] - v[k]))

        k0, f0 = locate(t0)
        k1, f1 = locate(t1)
        inner = 0.5 * np.sum(v[k0:k1] + v[k0 + 1:k1 + 1], axis=0)
        return dt * (inner + from_knot(k1, f1) - from_knot(k0, f0))


def ou_trajectory(S: Lorentzian, duration: float, dt: float, seed,
                  gamma: float = NV.gamma) -> OUBank:
    """One exact-discretization OU trajectory, as a one-channel ``OUBank``.

    The update x[k+1] = a*x[k] + delta*sqrt(1-a^2)*z with a = exp(-dt/tau_c)
    reproduces the stationary autocovariance delta^2 exp(-|t|/tau_c) at the
    grid points exactly.  ``seed`` is an int >= 0 or a sequence of them (a
    ``numpy.random.default_rng`` key); the trajectory is reproducible
    bit-for-bit for a fixed seed.  The sequence executor applies its one
    channel to every field.
    """
    n = _ou_steps(S, duration, dt)
    return OUBank(times=np.arange(n + 1) * dt,
                  values=_ou_block(S, n, dt, 1, seed), gamma=gamma)


# most dt steps one trajectory may span: 8 MiB of knots per channel, and
# the noisy swept-drive mesh puts at least one slice in each knot interval
_MAX_OU_STEPS = 1 << 20


def _ou_steps(S: Lorentzian, duration: float, dt: float) -> int:
    """Number of dt steps spanning ``duration``, after validating the grid.

    Raises InvalidParameter above ``_MAX_OU_STEPS`` steps, before anything
    is allocated.
    """
    if not isinstance(S, Lorentzian):
        raise InvalidParameter("trajectory generation needs a Lorentzian density")
    if not duration > 0 or not dt > 0:
        raise InvalidParameter("duration and dt must be positive")
    if dt > S.tau_c / 10.0:
        raise InvalidParameter(
            f"dt={dt:g} too coarse; need dt <= tau_c/10 = {S.tau_c / 10.0:g}"
        )
    steps = duration / dt
    if not steps <= _MAX_OU_STEPS:
        raise InvalidParameter(
            f"an OU trajectory of {duration:g} s in steps of {dt:g} s needs "
            f"{steps:.3g} steps, more than {_MAX_OU_STEPS}")
    return int(math.ceil(steps))


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
    z = _rng(seed_key).standard_normal((n_steps + 1, n_traj))
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


def check_count(name: str, value) -> int:
    """``value`` as an int, or InvalidParameter unless it is an integer >= 1."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < 1):
        raise InvalidParameter(f"{name} must be >= 1 and an integer, "
                               f"got {value!r}")
    return int(value)


def _rng(seed_key) -> np.random.Generator:
    """``default_rng(seed_key)``, or InvalidParameter for a key numpy refuses."""
    try:
        return np.random.default_rng(seed_key)
    except (TypeError, ValueError):
        raise InvalidParameter("seeds must be integers >= 0, got the key "
                               f"{seed_key!r}") from None


# gaps per block of the Monte-Carlo phase map.  Up to _ONE_BLOCK gaps (an
# echo grid of 32 requested times) are one block, applied as one product.
# Longer grids are cut into blocks of _GAP_BLOCK gaps: no (gaps x gaps)
# array is formed, and a block costs about 4*_GAP_BLOCK multiply-adds per
# requested phase and trajectory, against about 10 per gap and trajectory
# for the gap-by-gap recursion.
_ONE_BLOCK = 64
_GAP_BLOCK = 16


def _gap_block(a, l11, l21, l22, mean):
    """Coefficients of I and x at the knots of one block of OU gaps.

    Returns (P, X), each (n+1, 2n+1) for n gaps.  Row j holds the
    coefficients of I(knot j) - I(knot 0), resp. x(knot j), on column 0,
    the value x at the block's first knot, and on columns 2i+1 and 2i+2,
    the two normals that drive gap i (``_ou_phases``).  Of a value that
    enters x at knot c, a_c ... a_(j-1) is left at knot j: a cumulative
    product down each column.
    """
    n = a.size
    j = np.arange(n + 1)
    # source c = 0 is the block's start value, c = i+1 the value noise of
    # gap i, which enters x at knot i+1; knot j holds those with c <= j
    held = j[:, None] >= j
    steps = np.ones((n + 1, n + 1))
    steps[1:] = np.where(held[:n], a[:, None], 1.0)
    x_src = np.where(held, np.cumprod(steps, axis=0), 0.0)
    x_src[:, 1:] *= l11
    rise = mean[:, None] * x_src[:n]
    rise[j[:n], j[1:]] = l21
    p_src = np.zeros((n + 1, n + 1))
    np.cumsum(rise, axis=0, out=p_src[1:])
    P = np.empty((n + 1, 2 * n + 1))
    X = np.zeros((n + 1, 2 * n + 1))
    P[:, 0], P[:, 1::2] = p_src[:, 0], p_src[:, 1:]
    P[:, 2::2] = np.where(held[:, 1:], l22, 0.0)
    X[:, 0], X[:, 1::2] = x_src[:, 0], x_src[:, 1:]
    return P, X


@dataclass(frozen=True)
class _PhaseMap:
    """The phases at the requested times as a linear map of the normals.

    ``n_normals`` is the row count of the normals block the map takes.
    ``blocks`` holds (rows, lo, hi, matrix, start) for each block of gaps:
    ``matrix`` takes normals rows [lo, hi), and ``start`` the (I, x) at the
    block's first knot, to the block's share of the outputs ``rows``
    followed by the (I, x) at its last knot.  The first block has no
    ``start``: its x starts as delta times normals row 0, which is in its
    ``matrix``.  A single block is one product.
    """

    n_normals: int
    n_out: int
    blocks: tuple

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """(n_out, n_traj) phases for the (n_normals, n_traj) normals ``z``."""
        if len(self.blocks) == 1:
            return self.blocks[0][3] @ z
        out = np.zeros((self.n_out, z.shape[1]))
        state = None
        for rows, lo, hi, matrix, start in self.blocks:
            y = matrix @ z[lo:hi]
            if start is not None:
                y += start @ state
            out[rows] += y[:rows.size]
            state = y[rows.size:]
        return out


def _phase_map(S: Lorentzian, t_grid: np.ndarray, echo: bool) -> _PhaseMap:
    """Build the map from a chunk's normals to its phases at ``t_grid``.

    The gaps between the knots (0, the requested times and, for the echo,
    their halves) get their Gillespie coefficients once (``_ou_phases``).
    Each block of gaps (all of them up to ``_ONE_BLOCK``, else
    ``_GAP_BLOCK``) then becomes one matrix, whose rows are the requested
    phases it contributes to, with the echo's 2 I(T/2) - I(T) folded in,
    plus its end state when a block follows.
    """
    knots = np.unique(np.concatenate(
        ([0.0], t_grid, t_grid / 2.0) if echo else ([0.0], t_grid)))
    # each requested phase sums weight * I over one knot, or two for the echo
    idx = np.searchsorted(knots, t_grid)[:, None]
    weight = np.array([1.0])
    if echo:
        idx = np.hstack([np.searchsorted(knots, t_grid / 2.0)[:, None], idx])
        weight = np.array([2.0, -1.0])

    y = np.diff(knots) / S.tau_c
    one_minus_a = -np.expm1(-y)
    a = 1.0 - one_minus_a
    tau_d = S.tau_c * S.delta
    l11 = S.delta * np.sqrt(one_minus_a * (1.0 + a))
    r21 = one_minus_a * np.sqrt(one_minus_a / (1.0 + a))
    l21 = tau_d * r21
    l22 = tau_d * np.sqrt(_echo_brackets(2.0 * y) - r21 * r21)
    mean_i = S.tau_c * one_minus_a

    n_gaps = y.size
    size = max(1, n_gaps if n_gaps <= _ONE_BLOCK else _GAP_BLOCK)
    n_blocks = max(1, -(-n_gaps // size))
    # knot k > 0 ends gap k-1; knot 0 starts block 0
    block_of = np.maximum(idx - 1, 0) // size
    blocks = []
    for b in range(n_blocks):
        k0, k1 = b * size, min((b + 1) * size, n_gaps)
        gaps = slice(k0, k1)
        P, X = _gap_block(a[gaps], l11[gaps], l21[gaps], l22[gaps],
                          mean_i[gaps])
        hit = block_of == b
        rows = np.flatnonzero(hit.any(axis=1))
        w = np.where(hit[rows], weight, 0.0)
        local = np.where(hit[rows], idx[rows] - k0, 0)
        coef = sum(w[:, i, None] * P[local[:, i]] for i in range(weight.size))
        start_i = w.sum(axis=1)
        if b < n_blocks - 1:
            coef = np.vstack([coef, P[-1], X[-1]])
            start_i = np.concatenate([start_i, [1.0, 0.0]])
        if b == 0:
            coef[:, 0] *= S.delta
            blocks.append((rows, 0, 2 * k1 + 1, coef, None))
        else:
            blocks.append((rows, 2 * k0 + 1, 2 * k1 + 1, coef[:, 1:],
                           np.column_stack([start_i, coef[:, 0]])))
    return _PhaseMap(n_normals=2 * n_gaps + 1, n_out=t_grid.size,
                     blocks=tuple(blocks))


def _ou_phases(S: Lorentzian, t_grid: np.ndarray, echo: bool, rng,
               n_traj: int) -> np.ndarray:
    """(n_traj, len(t_grid)) accumulated phases of stationary OU trajectories.

    The OU value x and its integral I are drawn jointly and exactly on the
    union of the requested times (and, for the echo, their halves), so no
    time step enters (Gillespie, Phys. Rev. E 54, 2084 (1996)).  Over a gap
    h, with y = h/tau_c and a = e^-y, (x', dI) given x is Gaussian with
    means a*x and tau_c*(1-a)*x, variances delta^2 (1-a^2) and
    delta^2 tau_c^2 (2y - 3 + 4a - a^2) (the echo bracket at 2y, which is
    free of cancellation), and covariance delta^2 tau_c (1-a)^2; it is
    drawn through the 2x2 Cholesky factor.  The phase is I(T), or
    2 I(T/2) - I(T) for the echo.  Row 0 of the normals from ``rng`` seeds
    the stationary start, rows 2k+1 and 2k+2 drive gap k.  The phases are
    therefore a fixed linear map of the normals (``_phase_map``), applied
    here to one draw of (2 gaps + 1, n_traj) normals.
    """
    phase_map = _phase_map(S, t_grid, echo)
    return phase_map(rng.standard_normal((phase_map.n_normals, n_traj))).T


def mc_free_precession_decay(S: Lorentzian, t_grid, n_traj: int, seed: int,
                             echo: bool = False,
                             chunk: int = 512) -> np.ndarray:
    """Monte-Carlo <cos(accumulated phase)> over OU detuning trajectories.

    ``echo=False`` integrates the detuning straight over [0, T]; ``echo=True``
    flips the sign at T/2 (two-pulse echo).  Each trajectory's value and
    integral are sampled exactly at the requested times and their halves
    (``_ou_phases``; Gillespie, Phys. Rev. E 54, 2084 (1996)), so the only
    error is the sampling error of ``n_traj`` runs.  Trajectories are
    generated in chunks whose random streams derive from (seed, chunk
    index), so the result does not depend on the order the chunks run in.
    The map from normals to phases is built once per call; each chunk is
    then one normals draw, one matrix product per block of gaps, one cos
    and one sum.  Besides the chunk's (2 gaps + 1, chunk) normals, memory
    holds the (times, chunk) phases and the block matrices: at most about
    times x (2 ``_ONE_BLOCK`` + 1) numbers for one block, and
    4 times x ``_GAP_BLOCK`` + 4 gaps for more.
    """
    if not isinstance(S, Lorentzian):
        raise InvalidParameter("the Monte-Carlo decay needs a Lorentzian density")
    n_traj = check_count("n_traj", n_traj)
    chunk = check_count("chunk", chunk)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0 or not np.all((t_grid >= 0) & (t_grid < math.inf)):
        raise InvalidParameter("times must be nonnegative and finite, at least one")
    if float(np.max(t_grid)) == 0.0:
        return np.ones_like(t_grid)
    phase_map = _phase_map(S, t_grid.ravel(), echo)
    total = np.zeros(t_grid.size)
    for index, done in enumerate(range(0, n_traj, chunk)):
        z = _rng([seed, index]).standard_normal(
            (phase_map.n_normals, min(chunk, n_traj - done)))
        phases = phase_map(z)
        total += np.sum(np.cos(phases, out=phases), axis=1)
    return (total / n_traj).reshape(t_grid.shape)


def ou_bank(S: Lorentzian, duration: float, dt: float, n_traj: int, seed: int,
            gamma: float = NV.gamma) -> OUBank:
    """Generate ``n_traj`` exact-discretization OU trajectories at once."""
    n_traj = check_count("n_traj", n_traj)
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
    _check_adiabaticity(adiabaticity)
    _check_duration(duration)
    omega = np.asarray(omega_grid, dtype=float)
    if omega.size == 0 or np.any(omega <= 0) or np.any(np.diff(omega) <= 0):
        raise InvalidParameter("omega_grid must be positive and increasing")
    # the weights are at most 2*A^2/w^2 and 8/w^2; w^2 and those bounds
    # must neither underflow to 0 nor overflow
    lo, hi = float(omega[0]), float(omega[-1])
    top = max(2.0 * adiabaticity * adiabaticity, 8.0)
    if not (lo * lo > 0.0 and hi * hi < math.inf and top / (lo * lo) < math.inf):
        raise InvalidParameter(
            f"omega_grid [{lo:g}, {hi:g}] rad/s: w^2 or the filter weights "
            f"leave the float range")
    x = omega * duration
    f0 = filter_function(FilterFunctionKind.GEOMETRIC_F0, x)
    f1 = filter_function(FilterFunctionKind.DYNAMIC_F1, x)
    return SpectralOverlay(
        omega=omega,
        psd=np.asarray(S.psd(omega), dtype=float),
        geometric_weight=adiabaticity**2 * f0 / omega**2,
        dynamic_weight=f1 / omega**2,
    )

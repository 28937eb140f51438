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
  of F(u)/u^3 written through the cosine integral Ci, which is computed
  here (``_cosine_integral``: its power series up to 4, its auxiliary
  functions f and g from a continued fraction above), so numpy suffices.

With these conventions the Ornstein-Uhlenbeck time-domain oracle satisfies
<cos(int detuning dt)> = exp(-chi) exactly, since the phase is Gaussian,
which the tests check against the closed-form exponents.  The oracle
(``mc_free_precession_decay``) draws each trajectory's detuning and its
time integral jointly and exactly at the requested times only (Gillespie,
Phys. Rev. E 54, 2084 (1996)), so no time step enters.  Those draws are a
fixed linear map of the normals.  The requested times go in groups of at
most ``_GROUP_GAPS`` gaps (64 free-precession times, or 32 echo times with
their halves); each group builds the map of its distinct times once, from
the gap coefficients, with the echo's 2 I(T/2) - I(T) folded into its rows,
and factors it into a square triangular L with the same covariance.  Every
chunk of ``_CHUNK`` trajectories is then one draw of one normal per
distinct time (chunk k of group g from ``default_rng([seed, k, g])``, of
group 0 from ``[seed, k]``), one product with L, one cos and one sum.  So
memory holds one group's map and normals at a time, however long the grid.

The sequence executor takes its noise as an ``OUBank``: detunings delta(t)
in rad/s, sampled exactly on uniform knots, one trajectory per column
(``ou_bank`` draws many, ``ou_trajectory`` one), so ``execute`` sees
gamma*b + delta(t).  It reads a bank only through ``OUBank.held``: the
knot intervals clipped to a segment, with delta held at its mean on each.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .constants import (check_adiabaticity, check_count, check_nonnegative,
                        check_positive)
from .errors import CalibrationFailure, FitFailure, InvalidParameter, OutOfRange
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
        check_positive("delta", self.delta)
        check_positive("tau_c", self.tau_c)
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
        check_nonnegative("level", self.level)

    def psd(self, omega):
        return np.full_like(np.asarray(omega, dtype=float), self.level)


@dataclass(frozen=True)
class OneOverF:
    """S(w) = amplitude / w inside [omega_min, omega_max], zero outside."""

    amplitude: float
    omega_min: float
    omega_max: float

    def __post_init__(self):
        check_nonnegative("amplitude", self.amplitude)
        if not 0 < self.omega_min < self.omega_max < math.inf:
            raise InvalidParameter("need 0 < omega_min < omega_max < inf")

    def psd(self, omega):
        omega = np.asarray(omega, dtype=float)
        inside = (omega >= self.omega_min) & (omega <= self.omega_max)
        return np.where(inside, self.amplitude / np.maximum(omega, 1e-300), 0.0)


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


# the smallest normal float
_TINY = sys.float_info.min

# both OU brackets' Taylor series sum_{k>=2} c_k (-x)^k / k!, k = 2..19: per
# bracket (free, echo), the coefficients c_k (-1)^k / k! of x^(k-2), with
# c_k = 1, resp. 4/2^k - 1
_OU_SERIES = tuple(tuple((4.0 / 2.0**k - 1.0 if echo else 1.0) * (-1.0)**k
                         / math.factorial(k) for k in range(2, 20))
                   for echo in (False, True))


def _horner(coefs: tuple, x: float) -> float:
    """sum_i coefs[i] x^i, by Horner's rule."""
    total = 0.0
    for c in reversed(coefs):
        total = total * x + c
    return total


def _ou_bracket(x: float, echo: bool) -> float:
    """x - 1 + e^-x, or x - 3 + 4e^(-x/2) - e^-x for the echo (x >= 0).

    Both cancel catastrophically at small x (the echo bracket starts at
    x^3/12), so below x = 0.5 they are summed as their Taylor series
    (``_OU_SERIES``) by Horner's rule.  Floats only: the Monte-Carlo map
    calls it once per gap.
    """
    if x >= 0.5:
        if echo:
            return x - 3.0 + 4.0 * math.exp(-0.5 * x) - math.exp(-x)
        return x - 1.0 + math.exp(-x)
    return x * x * _horner(_OU_SERIES[echo], x)


# g_k (4^-k - 1) for k = 1..11: the echo series of ``_one_over_f_exponent``
_ONE_OVER_F_ECHO = tuple(
    (-1.0)**k * (4.0**-k - 1.0) / math.factorial(2 * k)
    * (0.25 / k - 0.5 / (2 * k + 1) - 0.5 / ((2 * k + 1) * (2 * k + 2)))
    for k in range(1, 12))

_EULER_GAMMA = 0.5772156649015329
# Ci(x) - gamma - ln x = sum_{k>=1} (-x^2)^k / (2k (2k)!), k = 1..16 (A&S
# 5.2.16), summed up to x = 4, where its terms reach 4 and still round off
# near 1e-15 of Ci
_CI_SERIES = tuple((-1.0)**k / (2 * k * math.factorial(2 * k)) for k in range(1, 17))
_CI_SWITCH = 4.0


def _ci_fraction(x: float, levels: int) -> complex:
    """S = z^2 (e^z E1(z) - 1/z + 1/z^2) at z = ix, from ``levels`` levels of
    the continued fraction e^z E1(z) = 1/(z+1- 1/(z+3- 4/(z+5- ...)))
    (A&S 5.1.22, contracted), summed from the bottom.

    With t the fraction below its first level, e^z E1(z) = w = 1/(z+1-t)
    and S = t + (1-t)^2 w, in which no O(1/x) terms cancel; S ~ 2/z.  Since
    e^(ix) E1(ix) = g - i f, the auxiliary functions of Ci (A&S 5.2.8-9) are
    f = (1 + Im S / x) / x and g = (1 - Re S) / x^2.
    """
    z = complex(0.0, x)
    t = 0j
    for k in range(levels, 0, -1):
        t = k * k / (z + (2 * k + 1) - t)
    return t + (1.0 - t) ** 2 / (z + 1.0 - t)


def _ci_auxiliary(x: float) -> complex:
    """S of ``_ci_fraction`` for x > 4, from 4 + 220/x levels, whose
    truncation error falls like exp(-c sqrt(levels x)): 59 levels at x = 4,
    where 52 hold 5e-16, and 26 at x = 10, where 23 do.  Within 1.5e-15 of
    a 50-digit reference from 4 to 1e6."""
    return _ci_fraction(x, 4 + int(220.0 / x))


def _cosine_integral(x: float) -> float:
    """Ci(x) = -int_x^inf cos(t)/t dt for 0 < x < inf.

    Up to x = 4 its power series (``_CI_SERIES``), above it
    f sin x - g cos x with the auxiliary functions of ``_ci_auxiliary``.
    Within 3e-15 of max(|Ci|, min(1, 1/x)) of a 40-digit reference.
    """
    if x <= _CI_SWITCH:
        y = x * x
        return _EULER_GAMMA + math.log(x) + y * _horner(_CI_SERIES, y)
    s = _ci_auxiliary(x)
    sin, cos = math.sin(x), math.cos(x)
    return (sin + (s.imag * sin - (1.0 - s.real) * cos) / x) / x


def _one_over_f_q(u: float) -> float:
    """Q(u) = -u^2 G(u) for u > 4, G of ``_one_over_f_g``: with Ci written
    through f and g, Q = (1 - Im S sin u - Re S cos u) / 2, which tends to
    1/2 with no O(1/u) terms to cancel.  Past u = 1e17, S is below the
    rounding of 1/2."""
    if u > 1e17:
        return 0.5
    s = _ci_auxiliary(u)
    return 0.5 * (1.0 - s.imag * math.sin(u) - s.real * math.cos(u))


def _one_over_f_g(omega: float, duration: float) -> float:
    """G(u) = -sin^2(u/2)/u^2 - sin(u)/(2u) + Ci(u)/2 at u = omega*T, the
    antiderivative of F0(u)/u^3.  Below u = 1e-8 it is -3/4 + (gamma +
    ln u)/2 to rounding, with ln u taken from the factors, so an underflowed
    omega*T keeps its value."""
    u = omega * duration
    if u > _CI_SWITCH:
        return -_one_over_f_q(u) / u / u
    if u < 1e-8:
        return 0.5 * (_EULER_GAMMA + math.log(omega) + math.log(duration)) - 0.75
    return (-(math.sin(0.5 * u) / u) ** 2 - math.sin(u) / (2.0 * u)
            + 0.5 * _cosine_integral(u))


def _product(*factors: float) -> float:
    """The product of finite factors >= 0, with no overflow or underflow on
    the way (each factor's exponent is summed apart from its mantissa);
    OutOfRange if the product itself overflows."""
    mantissa, exponent = 1.0, 0
    for f in factors:
        m, e = math.frexp(f)
        mantissa, exponent = mantissa * m, exponent + e
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        raise OutOfRange("the dephasing exponent overflows a float") from None


def _one_over_f_exponent(S: OneOverF, duration: float, echo: bool) -> float:
    """(A T^2/pi) [P(w_max T) - P(w_min T)]: P = G of ``_one_over_f_g``, or
    for the echo H(u) = G(u/2) - G(u) + ln(2)/2, as F1(u) = 4 F0(u/2) - F0(u).

    H vanishes at u = 0 and tends to ln(2)/2; three forms keep the digits of
    a band u_min = w_min T to u_max = w_max T:

    * u_min above 4 (8 for the echo), far above 1/T: with Q of
      ``_one_over_f_q``, the exponent is (A / pi / w_min^2) [Q(u_min) -
      (w_min / w_max)^2 Q(u_max)], and for the echo the same with
      -u^2 (H - ln(2)/2) = 4 Q(u/2) - Q(u), which tends to 3/2.  No O(1/u)
      terms and no constant cancel between the ends.
    * the echo with u_max below 1/2, far below 1/T: H(u) = u^2 h(u^2) with
      h(v) = sum_{k>=1} g_k (4^-k - 1) v^(k-1) (``_ONE_OVER_F_ECHO``) and
      g_k the u^2k coefficient of G, (-1)^k [1/(4k (2k)!) - 1/(2 (2k+1)!)
      - 1/(2 (2k+2)!)]: the exponent is (A / pi) w_max^2 T^4 [h(u_max^2) -
      (w_min / w_max)^2 h(u_min^2)].
    * otherwise (A T^2 / pi) times the difference of G, or for the echo of
      H, its series below u = 1/2 and G(u/2) - G(u) above, with ln(2)/2
      added only when the band straddles 1/2.

    The factors are multiplied by ``_product``, so an out-of-range w*T or
    w^2 costs no digits and an exponent past the float range raises
    OutOfRange.  The integrand is >= 0, so a difference that rounding puts
    below 0 (w_max within a few ulps of w_min) counts as 0.
    """
    wa, wb = S.omega_min, S.omega_max
    a, b = wa * duration, wb * duration
    scale = S.amplitude / math.pi
    if a > (8.0 if echo else _CI_SWITCH):
        if echo:
            qa = 4.0 * _one_over_f_q(0.5 * a) - _one_over_f_q(a)
            qb = 4.0 * _one_over_f_q(0.5 * b) - _one_over_f_q(b)
        else:
            qa, qb = _one_over_f_q(a), _one_over_f_q(b)
        return _product(scale, 1.0 / wa, 1.0 / wa, max(qa - (wa / wb) ** 2 * qb, 0.0))
    if echo and b < 0.5:
        h = (_horner(_ONE_OVER_F_ECHO, b * b)
             - (wa / wb) ** 2 * _horner(_ONE_OVER_F_ECHO, a * a))
        return _product(scale, wb, wb, duration, duration, duration, duration,
                        max(h, 0.0))

    def primitive(w, u):
        if not echo:
            return _one_over_f_g(w, duration)
        if u < 0.5:
            return u * u * _horner(_ONE_OVER_F_ECHO, u * u)
        return _one_over_f_g(0.5 * w, duration) - _one_over_f_g(w, duration)

    lo, hi = primitive(wa, a), primitive(wb, b)
    if echo and a < 0.5:
        hi += 0.5 * math.log(2.0)
    return _product(scale, duration, duration, max(hi - lo, 0.0))


def _lorentzian_far(S: Lorentzian, duration: float, echo: bool) -> float:
    """(delta tau_c)^2 g(T/tau_c) where (delta tau_c)^2, g or their product
    is not a normal float: delta^2 tau_c T g(x)/x for x >= 1 (an overflowed
    x counts as 1e300, where g(x)/x is 1 to rounding) and delta^2 T^2
    g(x)/x^2 below (the series ``_OU_SERIES`` under x = 1/2), multiplied by
    ``_product``, so the exponent keeps its digits or raises OutOfRange."""
    x = duration / S.tau_c
    if x >= 1.0:
        x = min(x, 1e300)
        return _product(S.delta, S.delta, S.tau_c, duration,
                        _ou_bracket(x, echo) / x)
    ratio = (_ou_bracket(x, echo) / x / x if x >= 0.5
             else _horner(_OU_SERIES[echo], x))
    return _product(S.delta, S.delta, duration, duration, ratio)


def _exponent(S: SpectralDensity, duration: float, echo: bool) -> float:
    """(1/pi) int_0^inf S(w) F(wT)/w^2 dw in closed form, F = F1 if echo else F0."""
    check_positive("duration", duration)
    if isinstance(S, Lorentzian):
        # (delta tau_c)^2 g(T/tau_c), g the bracket of ``_ou_bracket``, as
        # long as its factors and itself are normal floats
        scale = S.delta * S.tau_c
        square = scale * scale
        bracket = _ou_bracket(duration / S.tau_c, echo)
        value = square * bracket
        if square >= _TINY and bracket >= _TINY and _TINY <= value < math.inf:
            return value
        return _lorentzian_far(S, duration, echo)
    if isinstance(S, White):
        return 0.5 * S.level * duration
    if isinstance(S, OneOverF):
        # u = wT turns the band integral into (A T^2/pi) int F(u)/u^3 du
        return _one_over_f_exponent(S, duration, echo)
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
    check_adiabaticity(adiabaticity)
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
    times = t_grid.tolist()
    w = [math.exp(-decoherence_function(S, adiabaticity, t).total) for t in times]
    return CoherenceCurve(times=tuple(times), values=tuple(w))


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


def calibrate_noise(t2_star: float, t2: float) -> Lorentzian:
    """Find (delta, tau_c) whose free-precession and echo 1/e times match targets.

    A Lorentzian's exponents are delta^2 tau_c^2 g(T/tau_c), with g the
    free-precession or the echo bracket of ``_ou_bracket``.  With
    u = t2_star/tau_c and r = t2/t2_star the targets read
    (delta tau_c)^2 g_free(u) = 1 = (delta tau_c)^2 g_echo(r u), so
    g_echo(r u) = g_free(u) fixes u alone.  The log of that quotient rises
    in u, from log(r^3 u/6) -> -inf at u -> 0 to log(r) > 0, so one
    bracketed root, started at the exact quasi-static root u = 6/r^3 of
    u^2/2 = (r u)^3/12, solves the calibration; then tau_c = t2_star/u and
    delta = 1/(tau_c sqrt(g_free(u))).  The result is checked against the
    targets by solving exponent(T) = 1 for each time afresh.  Raises
    CalibrationFailure when the targets cannot be met within 5 %
    (``_CALIBRATE_TOL``): for t2 <= 1.1*t2_star, where the echo gain the
    family always provides cannot be told from the tolerance, and for r
    above about 3e51, where g_free(6/r^3) underflows.
    """
    check_positive("t2_star", t2_star)
    check_positive("t2", t2)
    if t2 < t2_star:
        raise InvalidParameter("echo target must not be below the free-precession target")
    if t2 <= t2_star * (1.0 + 2.0 * _CALIBRATE_TOL):
        raise CalibrationFailure(
            f"targets t2={t2:g}, t2_star={t2_star:g} are degenerate for a "
            f"Lorentzian bath at tolerance {_CALIBRATE_TOL:g}"
        )
    r = t2 / t2_star
    u0 = 6.0 / (r * r * r)
    # g_free(u) < u^2/2, so a normal g_free(u0) also means a normal u0
    if not _ou_bracket(u0, False) >= _TINY:
        raise CalibrationFailure(
            f"no Lorentzian bath meets t2_star={t2_star:g}, t2={t2:g}: g_free "
            f"underflows at the quasi-static start u = 6 (t2_star/t2)^3 = {u0:g}")
    try:
        u = find_root(lambda u: math.log(_ou_bracket(r * u, True)
                                         / _ou_bracket(u, False)),
                      u0, u0, grow=4.0, steps=60, xtol=0.0)
        # delta = 1/(tau_c sqrt(g_free(u))) with no divisor that can underflow
        S = Lorentzian(delta=u / t2_star / math.sqrt(_ou_bracket(u, False)),
                       tau_c=t2_star / u)
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
            f"vs targets ({t2_star:.3e}, {t2:.3e})")
    return S


# ---------------------------------------------------------------------------
# time-domain oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OUBank:
    """Ornstein-Uhlenbeck detuning trajectories on shared uniform knots.

    Knot k lies at the time k*``dt``, and ``values`` has shape (knots,
    n_traj): detunings in rad/s, one column per trajectory.  ``dt`` must be
    positive and finite, and the values finite with at least two knots.
    The sequence executor reads a bank only through ``held``.
    """

    dt: float
    values: np.ndarray

    def __post_init__(self):
        dt = float(check_positive("dt", self.dt))
        values = np.asarray(self.values, dtype=float)
        if not (values.ndim == 2 and values.shape[0] >= 2):
            raise InvalidParameter(
                f"a bank needs values (knots, channels) on at least two "
                f"knots, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise InvalidParameter("knot values must be finite")
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "values", values)

    @property
    def n_traj(self) -> int:
        return self.values.shape[1]

    def held(self, t0: float, t1: float) -> tuple[np.ndarray, np.ndarray]:
        """The noise over [t0, t1] as held pieces: (lengths (K,) in s,
        means (K, n_traj) in rad/s).

        The pieces are the knot intervals clipped to [t0, t1], and on each
        the detuning is held at the mean of the knots' linear interpolant
        at its two edges, so ``lengths @ means`` is that interpolant's
        exact integral.  A t1 past the last knot by more than 1e-9 of t1
        raises InvalidParameter; within that slack, left for an n*dt that
        rounds just below the duration the knots were drawn for, the last
        interval is extended.
        """
        v = self.values
        knots_end = self.dt * (v.shape[0] - 1)
        if knots_end < t1 * (1.0 - 1e-9):
            raise InvalidParameter(
                f"noise knots end at {knots_end:g} s, before t1 = {t1:g} s")
        times = np.arange(v.shape[0]) * self.dt
        inner = (times > t0) & (times < t1)
        lengths = np.diff(np.concatenate(([t0], times[inner], [t1])))
        pos = np.array([t0, t1]) / self.dt
        k = np.minimum(np.maximum(pos.astype(int), 0), v.shape[0] - 2)
        ends = v[k] + (pos - k)[:, None] * (v[k + 1] - v[k])
        edges = np.concatenate((ends[:1], v[inner], ends[1:]))
        return lengths, 0.5 * (edges[:-1] + edges[1:])


def ou_trajectory(S: Lorentzian, duration: float, dt: float, seed) -> OUBank:
    """One exact-discretization OU trajectory, as a one-channel ``OUBank``.

    The update x[k+1] = a*x[k] + delta*sqrt(1-a^2)*z with a = exp(-dt/tau_c)
    reproduces the stationary autocovariance delta^2 exp(-|t|/tau_c) at the
    grid points exactly.  ``seed`` is an int >= 0 or a sequence of them (a
    ``numpy.random.default_rng`` key); the trajectory is reproducible
    bit-for-bit for a fixed seed.  The sequence executor applies its one
    channel to every field.
    """
    n = _ou_steps(S, duration, dt)
    return OUBank(dt=dt, values=_ou_block(S, n, dt, 1, seed))


# most dt steps one trajectory may span: 8 MiB of knots per channel, and
# a noisy sweep turns once per knot interval and field
_MAX_OU_STEPS = 1 << 20


def _ou_steps(S: Lorentzian, duration: float, dt: float) -> int:
    """Number of dt steps spanning ``duration``, after validating the grid.

    Raises InvalidParameter above ``_MAX_OU_STEPS`` steps, before anything
    is allocated.
    """
    if not isinstance(S, Lorentzian):
        raise InvalidParameter("trajectory generation needs a Lorentzian density")
    check_positive("duration", duration)
    check_positive("dt", dt)
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

    Every trajectory generator uses this.  All normals are drawn as one
    C-ordered block from ``default_rng(seed_key)``: row k holds step k of
    every trajectory, and with ``n_traj`` = 1 the column is the plain 1-D
    draw ``standard_normal(n_steps + 1)`` of the same key.  Scaled in place
    (row 0 by delta, the rest by delta*sqrt(1-a^2), a = exp(-dt/tau_c)),
    they drive the first-order linear recursion x[k+1] = a*x[k] + ...,
    which is summed as a doubling prefix scan (Blelloch 1990): the pass of
    stride d adds a^d times row k-d to row k, so after it row k holds
    sum_{j<2d} a^j * (scaled row k-j), and ceil(log2(n_steps+1)) passes
    give the recursion to rounding.  a^d is exp(-d*dt/tau_c); where it
    underflows to 0 it drops only terms far below rounding.
    """
    x = _rng(seed_key).standard_normal((n_steps + 1, n_traj))
    a = math.exp(-dt / S.tau_c)
    x[1:] *= S.delta * math.sqrt(1.0 - a * a)
    x[0] *= S.delta
    d = 1
    while d <= n_steps:
        x[d:] += math.exp(-d * dt / S.tau_c) * x[:-d]
        d *= 2
    return x


def _rng(seed_key) -> np.random.Generator:
    """``default_rng(seed_key)``, or InvalidParameter for a key numpy refuses."""
    try:
        return np.random.default_rng(seed_key)
    except (TypeError, ValueError):
        raise InvalidParameter("seeds must be integers >= 0, got the key "
                               f"{seed_key!r}") from None


# most gaps one phase map of the Monte-Carlo oracle spans: a group of
# requested times is _GROUP_GAPS free-precession times, or half as many
# echo times with their halves
_GROUP_GAPS = 64
# trajectories per Monte-Carlo normals draw; it fixes every seed's streams
_CHUNK = 512


def _phase_map(S: Lorentzian, t_grid: np.ndarray, echo: bool) -> np.ndarray:
    """(times, 2 gaps + 1) map from a draw of normals to the OU phases.

    The OU value x and its integral I are drawn jointly and exactly on the
    knots 0, ``t_grid`` and, for the echo, its halves (Gillespie, Phys.
    Rev. E 54, 2084 (1996)).  Over a gap h, with y = h/tau_c and a = e^-y,
    (x', dI) given x is Gaussian with means a*x and tau_c*(1-a)*x,
    variances delta^2 (1-a^2) and delta^2 tau_c^2 (2y - 3 + 4a - a^2) (the
    echo bracket at 2y, which is free of cancellation), and covariance
    delta^2 tau_c (1-a)^2; it is drawn through the 2x2 Cholesky factor.
    Row 0 of the normals seeds the stationary start x = delta z, rows 2k+1
    and 2k+2 drive gap k, so the phases are a fixed linear map of them:
    row j of P holds the coefficients of I at knot j.  Of a value that
    enters x at knot c, a_c ... a_(j-1) is left at knot j, a cumulative
    product down each column.  The phase is I(T), or 2 I(T/2) - I(T) for
    the echo.  The oracle samples these phases through the triangular
    factor of this map (``_phase_factor``).
    """
    knots = np.unique(np.concatenate(
        ([0.0], t_grid, t_grid / 2.0) if echo else ([0.0], t_grid)))
    y = np.diff(knots) / S.tau_c
    one_minus_a = -np.expm1(-y)
    a = 1.0 - one_minus_a
    tau_d = S.tau_c * S.delta
    l11 = S.delta * np.sqrt(one_minus_a * (1.0 + a))
    r21 = one_minus_a * np.sqrt(one_minus_a / (1.0 + a))
    l21 = tau_d * r21
    bracket = np.array([_ou_bracket(2.0 * v, True) for v in y.tolist()])
    l22 = tau_d * np.sqrt(bracket - r21 * r21)
    mean_i = S.tau_c * one_minus_a

    n = y.size
    j = np.arange(n + 1)
    # source c = 0 is the start value, c = i+1 the value noise of gap i,
    # which enters x at knot i+1; knot j holds those with c <= j
    held = j[:, None] >= j
    steps = np.ones((n + 1, n + 1))
    steps[1:] = np.where(held[:n], a[:, None], 1.0)
    x_src = np.where(held, np.cumprod(steps, axis=0), 0.0)
    x_src[:, 1:] *= l11
    rise = mean_i[:, None] * x_src[:n]
    rise[j[:n], j[1:]] = l21
    p_src = np.zeros((n + 1, n + 1))
    np.cumsum(rise, axis=0, out=p_src[1:])
    P = np.empty((n + 1, 2 * n + 1))
    P[:, 0], P[:, 1::2] = p_src[:, 0], p_src[:, 1:]
    P[:, 2::2] = np.where(held[:, 1:], l22, 0.0)

    phase = P[np.searchsorted(knots, t_grid)]
    if echo:
        phase = 2.0 * P[np.searchsorted(knots, t_grid / 2.0)] - phase
    phase[:, 0] *= S.delta
    return phase


def _phase_factor(S: Lorentzian, t_grid: np.ndarray,
                  echo: bool) -> tuple[np.ndarray, np.ndarray]:
    """(L, row): L L^T = P P^T for the ``_phase_map`` P of the distinct
    times of ``t_grid`` in sorted order, and the row of L of each time.

    P z with z ~ N(0, I) has the law of L w with w ~ N(0, I) and one normal
    per distinct time.  L = R^T from the QR of P^T, not a Cholesky factor
    of P P^T, whose condition reaches millions on a quasi-static bath.
    Sorting makes L, and so the oracle's result, independent of the order
    and repeats of the times; a zero time's row is exactly 0.
    """
    distinct, row = np.unique(t_grid, return_inverse=True)
    return np.linalg.qr(_phase_map(S, distinct, echo).T, mode="r").T, row


def mc_free_precession_decay(S: Lorentzian, t_grid, n_traj: int, seed: int,
                             echo: bool = False) -> np.ndarray:
    """Monte-Carlo <cos(accumulated phase)> over OU detuning trajectories.

    ``echo=False`` integrates the detuning straight over [0, T]; ``echo=True``
    flips the sign at T/2 (two-pulse echo).  Each trajectory's value and
    integral are sampled exactly at the requested times and their halves
    (``_phase_map``; Gillespie, Phys. Rev. E 54, 2084 (1996)), so the only
    error is the sampling error of ``n_traj`` runs.  The requested times, in
    the order given, go in groups of ``_GROUP_GAPS`` (free precession) or
    ``_GROUP_GAPS`` / 2 (echo), and each group has its own map and its own
    trajectories.  Those come in chunks of ``_CHUNK``: chunk k of group 0
    from the stream (seed, k), of group g > 0 from (seed, k, g), so the
    result does not depend on the order the chunks run in, and a grid of
    one group keeps its streams whatever its length.  A group's phases have
    the law of L w, with L the triangular factor of its map
    (``_phase_factor``) and w one normal per distinct time, so each chunk
    is one (distinct times, chunk) normals draw, one product with L, one
    cos and one sum, and each requested time reads the mean cos of its
    distinct time.  Memory holds one group's map, factor, normals and
    phases at a time: about 2 x (times in a group) x _CHUNK numbers,
    whatever the grid's length.
    """
    if not isinstance(S, Lorentzian):
        raise InvalidParameter("the Monte-Carlo decay needs a Lorentzian density")
    n_traj = check_count("n_traj", n_traj)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0 or not np.all((t_grid >= 0) & (t_grid < math.inf)):
        raise InvalidParameter("times must be nonnegative and finite, at least one")
    if float(np.max(t_grid)) == 0.0:
        return np.ones_like(t_grid)
    times = t_grid.ravel()
    size = _GROUP_GAPS // 2 if echo else _GROUP_GAPS
    total = np.empty(times.size)
    for group, lo in enumerate(range(0, times.size, size)):
        factor, row = _phase_factor(S, times[lo:lo + size], echo)
        cos_sum = np.zeros(factor.shape[0])
        for index, done in enumerate(range(0, n_traj, _CHUNK)):
            key = [seed, index, group] if group else [seed, index]
            w = _rng(key).standard_normal(
                (factor.shape[1], min(_CHUNK, n_traj - done)))
            phases = factor @ w
            cos_sum += np.sum(np.cos(phases, out=phases), axis=1)
        total[lo:lo + size] = cos_sum[row]
    return (total / n_traj).reshape(t_grid.shape)


def ou_bank(S: Lorentzian, duration: float, dt: float, n_traj: int,
            seed) -> OUBank:
    """Generate ``n_traj`` exact-discretization OU trajectories at once.

    ``seed`` is an int >= 0 or a tuple or list of them, and the normals
    come from the key (seed..., 0): an int seed s draws from [s, 0].
    """
    n_traj = check_count("n_traj", n_traj)
    n = _ou_steps(S, duration, dt)
    key = [*seed, 0] if isinstance(seed, (tuple, list)) else [seed, 0]
    return OUBank(dt=dt, values=_ou_block(S, n, dt, n_traj, key))


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
    check_adiabaticity(adiabaticity)
    check_positive("duration", duration)
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

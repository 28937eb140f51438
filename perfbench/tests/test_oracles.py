"""The benchmark's closed forms, checked against brute force, not phasemag."""

import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from scipy import integrate

import oracles

GAMMA = 2.0 * math.pi * 28.0e9


def _ode_signal(protocol, b, duration, rabi=None, n_rotations=None):
    """Integrate ds/dt = R(t) x s through each segment with a tight ODE solver."""
    det = GAMMA * b
    s = np.array([0.0, 0.0, 1.0])
    for seg in oracles.protocol_segments(protocol, duration, rabi, n_rotations):
        if seg[0] == "pulse":
            s = oracles.propagate([seg], [det], s)[0]
            continue
        if seg[0] == "free":
            rabi_, phi0, rate, dur = 0.0, 0.0, 0.0, seg[1]
        else:
            _, rabi_, phi0, rate, dur = seg
        s = oracles.propagate_drive(s, rabi_, lambda t, phi0=phi0, rate=rate: phi0 + rate * t,
                                    lambda t: det, dur)
    return s[2]


def test_drive_reference_matches_the_linear_ramp_closed_form():
    rabi, phi0, rate, duration, det = 2.0 * math.pi * 4e6, 0.7, 3e6, 3e-6, 2e6
    start = np.array([0.36, -0.48, 0.8])
    got = oracles.propagate_drive(start, rabi, lambda t: phi0 + rate * t,
                                  lambda t: det, duration)
    want = oracles.propagate([oracles.swept(rabi, phi0, rate, duration)], [det], start)[0]
    assert np.allclose(got, want, atol=1e-9)


def test_drive_reference_follows_a_time_dependent_detuning():
    # no drive: a rotation about z by the integral of the detuning
    duration, d0, d2 = 4e-6, 3e6, 2e17
    got = oracles.propagate_drive([1.0, 0.0, 0.0], 0.0, lambda t: 0.0,
                                  lambda t: d0 + d2 * t * t, duration)
    angle = d0 * duration + d2 * duration**3 / 3.0
    assert np.allclose(got, [math.cos(angle), math.sin(angle), 0.0], atol=1e-9)


@pytest.mark.parametrize("b", [0.0, 0.03e-3, 0.11e-3, 0.4e-3])
def test_berry_closed_form_matches_ode(b):
    rabi, n, duration = 2.0 * math.pi * 3e6, 2, 2e-6
    got = oracles.signal("berry", [b], GAMMA, duration, rabi, n)[0]
    assert got == pytest.approx(_ode_signal("berry", b, duration, rabi, n), abs=1e-8)


def test_free_precession_and_echo():
    b = np.linspace(0.0, 0.3e-3, 7)
    duration = 5e-6
    assert np.allclose(oracles.signal("ramsey", b, GAMMA, duration),
                       np.cos(GAMMA * b * duration), atol=1e-12)
    assert np.allclose(oracles.signal("hahn", b, GAMMA, duration), 1.0, atol=1e-12)
    assert oracles.signal("ramsey", [0.2e-3], GAMMA, duration)[0] == pytest.approx(
        _ode_signal("ramsey", 0.2e-3, duration), abs=1e-8)


def test_berry_adiabatic_limit_is_the_chirp():
    # A = 2*pi*N/(Omega*T) = 0.01: deviation ~ 23*A^2 from the adiabatic formula
    rabi, n, duration = 2.0 * math.pi * 5e6, 3, 60e-6
    b = np.linspace(0.0, oracles.berry_field_range(rabi, n, GAMMA), 41)
    det = GAMMA * b
    chirp = np.cos(4.0 * math.pi * n * (1.0 - det / np.hypot(det, rabi)))
    got = oracles.signal("berry", b, GAMMA, duration, rabi, n)
    assert np.max(np.abs(got - chirp)) < 0.01


def test_field_ranges():
    rabi, n = 2.0 * math.pi * 5e6, 3
    b = oracles.berry_field_range(rabi, n, GAMMA)
    det = GAMMA * b
    assert 4.0 * math.pi * n * (1.0 - det / math.hypot(det, rabi)) == pytest.approx(math.pi)
    assert oracles.ramsey_field_range(8e-6, GAMMA) * GAMMA * 8e-6 == pytest.approx(2 * math.pi)


def _exact_brackets(x):
    getcontext().prec = 60
    x = Decimal(repr(x))
    return (x - 1 + (-x).exp(), x - 3 + 4 * (-x / 2).exp() - (-x).exp())


@pytest.mark.parametrize("x", [1.25e-4, 1e-3, 0.01, 0.3, 0.49, 0.51, 2.0, 40.0])
def test_chi_brackets_to_full_precision(x):
    fid, echo = _exact_brackets(x)
    assert oracles.lorentzian_chi_fid(1.0, 1.0, x) == pytest.approx(float(fid), rel=1e-13)
    assert oracles.lorentzian_chi_echo(1.0, 1.0, x) == pytest.approx(float(echo), rel=1e-12)


def test_naive_echo_form_cancels_where_ours_does_not():
    x = 1e-6 / 8e-3
    naive = x - 3.0 + 4.0 * math.exp(-x / 2.0) - math.exp(-x)
    exact = float(_exact_brackets(x)[1])
    assert abs(naive / exact - 1.0) > 1e-6
    assert oracles.lorentzian_chi_echo(1.0, 1.0, x) == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("duration", [2e-6, 20e-6, 200e-6])
def test_chi_matches_ou_autocorrelation_integrals(duration):
    delta, tau_c = 2.0 * math.pi * 5e3, 20e-6

    def cov(u):
        return delta**2 * math.exp(-abs(u) / tau_c)

    # chi = Var(phase)/2 with phase = int sign(t) x(t) dt
    fid = integrate.quad(lambda u: (duration - u) * cov(u), 0.0, duration,
                         epsabs=0, epsrel=1e-12)[0]
    half = duration / 2.0
    same = integrate.quad(lambda u: (half - u) * cov(u), 0.0, half,
                          epsabs=0, epsrel=1e-12)[0]
    cross = integrate.dblquad(lambda u, t: cov(u - t), 0.0, half,
                              half, duration, epsabs=0, epsrel=1e-12)[0]
    echo = 2.0 * same - cross
    assert oracles.lorentzian_chi_fid(delta, tau_c, duration) == pytest.approx(fid, rel=1e-9)
    assert oracles.lorentzian_chi_echo(delta, tau_c, duration) == pytest.approx(echo, rel=1e-8)


def test_white_chi_is_the_filter_integral():
    level, duration = 3e5, 7e-6
    # (1/pi) int_0^inf S0 * 2 sin^2(wT/2) / w^2 dw, substituting w = u/T
    # on [0, U] plus the tail, where 2 sin^2(u/2) averages to 1
    upper = 2000.0 * math.pi
    body = integrate.quad(lambda u: 2.0 * math.sin(u / 2.0) ** 2 / u**2, 0.0, upper,
                          limit=4000)[0]
    val = body + 1.0 / upper
    assert oracles.white_chi(level, duration) == pytest.approx(
        level * duration * val / math.pi, rel=1e-6)


def test_one_over_e_time():
    delta, tau_c = 28313.15, 8.16e-3
    t = oracles.one_over_e_time(lambda x: oracles.lorentzian_chi_fid(delta, tau_c, x), 1e-6)
    assert oracles.lorentzian_chi_fid(delta, tau_c, t) == pytest.approx(1.0, rel=1e-12)
    assert t == pytest.approx(50e-6, rel=0.05)

"""Spectral densities, filter functions, dephasing integral and its oracle."""

import decimal
import functools
import hashlib
import math
import sys
import tracemalloc

import numpy as np
import pytest

from phasemag import noise
from phasemag.errors import (CalibrationFailure, FitFailure, InvalidParameter,
                             OutOfRange, PhasemagError)
from phasemag.noise import (FilterFunctionKind, Lorentzian, OneOverF, White,
                            calibrate_noise, coherence_decay, decoherence_function,
                            echo_exponent, filter_function, fit_T2g,
                            mc_free_precession_decay, ou_bank, ou_trajectory,
                            ramsey_exponent, spectral_overlay)

from conftest import (T2_ECHO, T2_STAR, chi_reference, ou_phases_reference,
                      ou_recursion_reference)

F0 = FilterFunctionKind.GEOMETRIC_F0
F1 = FilterFunctionKind.DYNAMIC_F1


class TestFilterFunctions:
    def test_anchor_values(self):
        assert filter_function(F0, 0.0) == 0.0
        assert filter_function(F1, 0.0) == 0.0
        assert filter_function(F0, math.pi) == pytest.approx(2.0)
        assert filter_function(F1, 2 * math.pi) == pytest.approx(8.0)

    def test_identities_on_random_arguments(self):
        # independent trig forms: F0 = 1 - cos(x), F1 = 3 - 4cos(x/2) + cos(x)
        rng = np.random.default_rng(17)
        x = rng.uniform(0.0, 1e3, 1_000_000)
        assert np.allclose(filter_function(F0, x), 1.0 - np.cos(x), atol=1e-9)
        assert np.allclose(filter_function(F1, x),
                           3.0 - 4.0 * np.cos(x / 2) + np.cos(x), atol=1e-9)


class TestSpectralDensities:
    @pytest.mark.parametrize("make", [
        lambda: Lorentzian(delta=math.inf, tau_c=1.0),
        lambda: Lorentzian(delta=1.0, tau_c=math.inf),
        lambda: Lorentzian(delta=math.nan, tau_c=1.0),
        lambda: White(math.inf),
        lambda: White(math.nan),
        lambda: OneOverF(amplitude=math.inf, omega_min=1.0, omega_max=2.0),
        lambda: OneOverF(amplitude=1.0, omega_min=1.0, omega_max=math.inf),
        lambda: OneOverF(amplitude=1.0, omega_min=math.nan, omega_max=2.0),
    ])
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(InvalidParameter):
            make()

    def test_positive_and_validated(self):
        with pytest.raises(InvalidParameter):
            Lorentzian(delta=-1.0, tau_c=1.0)
        with pytest.raises(InvalidParameter):
            OneOverF(amplitude=1.0, omega_min=2.0, omega_max=1.0)
        S = OneOverF(amplitude=1.0, omega_min=1e3, omega_max=1e6)
        w = np.array([1.0, 1e4, 1e7])
        vals = S.psd(w)
        assert vals[0] == 0.0 and vals[2] == 0.0 and vals[1] == pytest.approx(1e-4)


class TestDecoherenceFunction:
    def test_zero_spectrum_gives_zero(self):
        terms = decoherence_function(White(0.0), 1.0, 1e-5)
        assert terms.total == 0.0

    def test_zero_adiabaticity_leaves_echo_term(self):
        S = Lorentzian(delta=3e4, tau_c=1e-3)
        terms = decoherence_function(S, 0.0, 5e-5)
        assert terms.geometric == 0.0
        assert terms.dynamic > 0.0
        assert terms.total == terms.dynamic

    def test_quasi_static_limit(self):
        # F0 term -> A^2 * Delta^2 * T^2 / 2 for tau_c >> T
        S = Lorentzian(delta=2e4, tau_c=1.0)
        t = 1e-5
        terms = decoherence_function(S, 0.7, t)
        assert terms.geometric == pytest.approx(0.49 * (2e4 * t) ** 2 / 2, rel=1e-3)

    def test_matches_closed_form_ou_both_filters(self):
        # x = T/tau_c from 1.25e-4 to 1000, across the series threshold 0.5
        for tau_c in (1e-6, 3e-5, 1e-3, 8e-3):
            S = Lorentzian(delta=2.8e4, tau_c=tau_c)
            for t in (1e-6, 1.4e-5, 1.6e-5, 1e-3):
                assert ramsey_exponent(S, t) == pytest.approx(
                    chi_reference(S, False, t), rel=1e-8)
                assert echo_exponent(S, t) == pytest.approx(
                    chi_reference(S, True, t), rel=1e-8)

    def test_white_noise_closed_form(self):
        for level, t in ((2e3, 2e-5), (1e5, 5e-6), (3e4, 8e-5)):
            S = White(level=level)
            assert ramsey_exponent(S, t) == S.level * t / 2
            assert ramsey_exponent(S, t) == pytest.approx(
                chi_reference(S, False, t), rel=1e-12)
            assert echo_exponent(S, t) == pytest.approx(
                chi_reference(S, True, t), rel=1e-12)

    @pytest.mark.parametrize("amplitude, omega_min, omega_max, t", [
        pytest.param(a, w, 1e6 * w, t, id=f"{a}-{w}-{t}") for a, w, t in (
            (1.0, 1e3, 1e-6), (3e3, 2e2, 1e-5), (1e2, 5e3, 1e-4),
            (5e8, 80.0, 80e-6), (1e9, 120.0, 60e-6), (2e9, 90.0, 30e-6))
    ] + [
        # bands far below 1/T, where the echo primitive runs on its series
        pytest.param(1.0, 1e-3 * w, w, 1e-4, id=f"1.0-{1e-3 * w}-{w}-0.0001")
        for w in (1e3, 1e2, 1e1, 1.0)
    ])
    def test_one_over_f_matches_numeric_reference(self, amplitude, omega_min,
                                                  omega_max, t):
        S = OneOverF(amplitude, omega_min, omega_max)
        # abs=0: the low bands give exponents far below approx's 1e-12 floor
        assert ramsey_exponent(S, t) == pytest.approx(
            chi_reference(S, False, t), rel=1e-9, abs=0)
        assert echo_exponent(S, t) == pytest.approx(
            chi_reference(S, True, t), rel=1e-9, abs=0)

    def test_non_finite_inputs_rejected(self):
        S = Lorentzian(delta=3e4, tau_c=1e-3)
        for bad in (math.inf, math.nan, 0.0):
            with pytest.raises(InvalidParameter):
                ramsey_exponent(S, bad)
            with pytest.raises(InvalidParameter):
                echo_exponent(S, bad)
        for bad in (math.inf, math.nan, -1.0, 1e300):
            with pytest.raises(InvalidParameter):
                decoherence_function(S, bad, 1e-5)
            with pytest.raises(InvalidParameter):
                spectral_overlay(S, bad, 1e-5, np.geomspace(1e3, 1e7, 10))
        with pytest.raises(InvalidParameter):
            spectral_overlay(S, 0.5, math.inf, np.geomspace(1e3, 1e7, 10))

    def test_exact_quadratic_prefactor(self):
        S = Lorentzian(delta=3e4, tau_c=2e-3)
        t = 4e-5
        chi0 = decoherence_function(S, 0.0, t).total
        chi1 = decoherence_function(S, 1.0, t).total
        for a in (0.3, 0.77, 2.5):
            chia = decoherence_function(S, a, t).total
            assert chia - chi0 == pytest.approx(a**2 * (chi1 - chi0), rel=1e-12)


    @pytest.mark.parametrize("omega_min, omega_max, free, echo", [
        # 60-digit mpmath values of the same primitives, A = 1, T = 1 s: the
        # whole band lies far above 1/T, where both ends tend to the same
        # constant and their O(1/u) terms cancel
        (1e6, 1e7, 1.575632821198254e-13, 4.7269074786929622e-13),
        (1e9, 1e11, 1.5913902777133322e-19, 4.7741708189401984e-19),
        (1e12, 1e14, 1.5913902759739158e-25, 4.774170827921307e-25),
    ])
    def test_one_over_f_band_far_above_one_over_t(self, omega_min, omega_max,
                                                  free, echo):
        S = OneOverF(1.0, omega_min, omega_max)
        assert ramsey_exponent(S, 1.0) == pytest.approx(free, rel=1e-12, abs=0)
        assert echo_exponent(S, 1.0) == pytest.approx(echo, rel=1e-12, abs=0)

    @pytest.mark.parametrize("omega_min, omega_max, free, echo", [
        # 40-digit mpmath quadrature of the exponents, split at multiples of
        # pi, A = 1, T = 1 s: both band ends lie in (4, 64), where S runs on
        # the deepest levels of its continued fraction
        (5.0, 50.0, 0.0042181637451567087, 0.034000036951949504),
        (10.0, 60.0, 0.001459392562834003, 0.0026564588115305127),
        (4.5, 30.0, 0.0055731034637110549, 0.042352879246086553),
    ])
    def test_one_over_f_band_just_above_one_over_t(self, omega_min, omega_max,
                                                   free, echo):
        S = OneOverF(1.0, omega_min, omega_max)
        assert ramsey_exponent(S, 1.0) == pytest.approx(free, rel=1e-13, abs=0)
        assert echo_exponent(S, 1.0) == pytest.approx(echo, rel=1e-13, abs=0)

    @staticmethod
    def _one_over_f_scan(seed, amplitude, omega, duration, ratio):
        """Both 1/f exponents on 20 000 seeded draws, each log-uniform in
        its decade range (omega_max / omega_min up to 10**ratio): the number
        of calls and the outcomes that are neither a finite value >= 0 nor
        InvalidParameter or OutOfRange, and the number of typed errors."""
        rng = np.random.default_rng(seed)
        calls, bad, typed = 0, [], 0
        for _ in range(20_000):
            a, w, t = (10.0 ** rng.uniform(*r) for r in (amplitude, omega, duration))
            try:
                S = OneOverF(a, w, w * 10.0 ** rng.uniform(0.0, ratio))
            except InvalidParameter:
                continue
            for exponent in (ramsey_exponent, echo_exponent):
                calls += 1
                try:
                    value = exponent(S, t)
                except (InvalidParameter, OutOfRange):
                    typed += 1
                    continue
                except (ArithmeticError, ValueError) as exc:
                    bad.append((S, t, exponent.__name__, repr(exc)))
                    continue
                if not (math.isfinite(value) and value >= 0.0):
                    bad.append((S, t, exponent.__name__, value))
        return calls, bad, typed

    def test_one_over_f_extreme_inputs_end_in_a_value_or_a_typed_error(self):
        # amplitude, omega and T over the whole float range: w*T and the
        # exponent itself leave it in both directions (at the parent of this
        # test, 4742 ValueErrors, 2393 ZeroDivisionErrors and 7470 nan, inf
        # or negative values in 39 790 calls)
        calls, bad, typed = self._one_over_f_scan(
            5, (-307.0, 308.0), (-323.0, 308.0), (-323.0, 308.0), 20.0)
        assert calls > 39_000
        assert bad == []
        assert 0 < typed < calls // 10

    def test_one_over_f_moderate_inputs_give_values(self):
        calls, bad, typed = self._one_over_f_scan(
            6, (-10.0, 12.0), (-6.0, 8.0), (-9.0, 0.0), 8.0)
        assert (calls, bad, typed) == (40_000, [], 0)

    @staticmethod
    def _lorentzian_reference(delta, tau_c, duration, echo):
        """(delta tau_c)^2 g(T/tau_c) to 50 digits, g the bracket summed as
        its series sum_{k>=2} c_k (-x)^k / k! below x = 1/2 (k to 40), where
        the closed form cancels past any working precision."""
        D = decimal.Decimal
        with decimal.localcontext(decimal.Context(prec=50, Emax=999_999,
                                                  Emin=-999_999)):
            x = D(duration) / D(tau_c)
            if x < D("0.5"):
                g = D(0)
                for k in range(40, 1, -1):
                    g = g * x + ((D(4) / 2**k - 1 if echo else D(1)) * (-1)**k
                                 / math.factorial(k))
                g *= x * x
            elif echo:
                g = x - 3 + 4 * (-x / 2).exp() - (-x).exp()
            else:
                g = x - 1 + (-x).exp()
            return (D(delta) * D(tau_c)) ** 2 * g

    def test_lorentzian_exponents_over_the_float_range(self):
        # delta, tau_c and T log-uniform in 1e+-300: (delta tau_c)^2, T/tau_c
        # and the exponent leave the float range in both directions (at the
        # parent of this test, 2152 nan, 1074 inf, 2002 zeros and 176 values
        # off by more than 1e-12 where the reference is a normal float, and
        # 1401 values where it overflows, in 27 838 calls)
        rng = np.random.default_rng(5)
        calls, bad = 0, []
        tiny, huge = decimal.Decimal(sys.float_info.min), \
            decimal.Decimal(sys.float_info.max)
        for _ in range(20_000):
            delta, tau_c, t = (10.0 ** rng.uniform(-300.0, 300.0)
                               for _ in range(3))
            try:
                S = Lorentzian(delta, tau_c)
            except InvalidParameter:
                continue
            for echo, exponent in ((False, ramsey_exponent), (True, echo_exponent)):
                calls += 1
                want = self._lorentzian_reference(delta, tau_c, t, echo)
                try:
                    got = exponent(S, t)
                except OutOfRange:
                    got = None
                if want > huge:
                    ok = got is None
                elif want < tiny:
                    ok = got is not None and 0.0 <= got < math.inf
                else:
                    ok = (got is not None and 0.0 < got < math.inf
                          and abs(decimal.Decimal(got) / want - 1) <= 1e-12)
                if not ok:
                    bad.append((delta, tau_c, t, echo, got, float(want)))
        assert calls == 27_838
        assert bad == []

    def test_lorentzian_overflowing_ratio_keeps_the_exponent(self):
        # T/tau_c = 1.8e308 overflows, yet the exponent is delta^2 tau_c T
        # (1 - 1/x) = 1.8e-4; (delta tau_c)^2 = 1e-312 is subnormal at T = 1
        S = Lorentzian(1e150, 1e-306)
        assert ramsey_exponent(S, 180.0) == pytest.approx(1.8e-4, rel=1e-15)
        assert ramsey_exponent(S, 1.0) == pytest.approx(1e-6, rel=1e-15)


class TestCosineIntegral:
    """``noise._cosine_integral`` against scipy's ``sici``, in the scaled
    error |Ci - Ci_ref| / max(|Ci_ref|, min(1, 1/x)): Ci's absolute size is
    about 1/x above 1, and near its zeros only that size is meaningful.
    Both lie within 3.1e-15 of a 40-digit reference on these points."""

    @staticmethod
    def _scaled_errors(xs):
        from scipy.special import sici

        xs = np.asarray(xs, dtype=float)
        want = sici(xs)[1]
        got = np.array([noise._cosine_integral(x) for x in xs.tolist()])
        return np.abs(got - want) / np.maximum(np.abs(want),
                                               np.minimum(1.0, 1.0 / xs))

    @pytest.mark.parametrize("xs", [
        pytest.param(np.geomspace(1e-300, 1e300, 20_001), id="1e-300..1e300"),
        pytest.param(np.linspace(0.01, 50.0, 20_001), id="0.01..50"),
        # the first two zeros, the switch from the series to the continued
        # fraction (4), and two steps of the fraction's level count 4 + 220/x
        # (55 to 54 levels at 220/51, 7 to 6 at 220/3)
        pytest.param([0.6165054856207162, 3.384180422551186,
                      *(y for x in (4.0, 220.0 / 51, 220.0 / 3) for y in (
                          math.nextafter(math.nextafter(x, 0.0), 0.0),
                          math.nextafter(x, 0.0), x, math.nextafter(x, 9.0),
                          math.nextafter(math.nextafter(x, 9.0), 9.0)))],
                     id="zeros-and-switches"),
    ])
    def test_matches_scipy_sici(self, xs):
        assert np.max(self._scaled_errors(xs)) <= 1e-14

    def test_auxiliary_matches_a_deeper_fraction(self):
        # S enters Ci and the 1/f primitive only at order 1/x, so it is
        # checked on its own: 4 + 220/x levels of the fraction from just
        # above 4 against 8 + 400/x levels, about twice the depth it needs
        # at 4; measured 4.7e-16 up to 64 and 1.3e-15 above
        xs = [math.nextafter(4.0, 5.0), *np.linspace(4.0, 64.0, 4001)[1:].tolist(),
              *np.geomspace(64.0, 1e8, 2001).tolist()]
        for x in xs:
            deep = noise._ci_fraction(x, 8 + int(400.0 / x))
            assert abs(noise._ci_auxiliary(x) / deep - 1.0) <= 3e-15, x


class TestOUBracket:
    """``_ou_bracket`` against 50-digit closed forms.

    Below x = 0.5 it sums the Taylor series, and holds 1e-15 of the
    bracket.  From x = 0.5 up it evaluates the closed form, whose terms
    reach x + 3 (x + 1 without the echo) and cancel to about x^3/12 near
    0.5; no double evaluation holds 1e-15 of the bracket there (the echo
    loses up to 2.5e-14 near x = 0.57), so the bound is 1e-15 of the
    terms' size.
    """

    XS = sorted({*np.geomspace(1e-9, 60.0, 801).tolist(), 0.5,
                 math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 60.0})

    @staticmethod
    def _reference(x, echo):
        with decimal.localcontext(decimal.Context(prec=50)):
            d = decimal.Decimal(x)
            if echo:
                return float(d - 3 + 4 * (-d / 2).exp() - (-d).exp())
            return float(d - 1 + (-d).exp())

    @staticmethod
    def _bound(x, value, echo):
        return 1e-15 * (value if x < 0.5 else x + (3.0 if echo else 1.0))

    @pytest.mark.parametrize("echo", [False, True])
    def test_matches_decimal_reference(self, echo):
        for x in self.XS:
            got = noise._ou_bracket(x, echo)
            want = self._reference(x, echo)
            assert abs(got - want) <= self._bound(x, want, echo), (x, got, want)


class TestCoherenceDecay:
    def test_zero_spectrum_stays_coherent(self):
        curve = coherence_decay(White(0.0), 1.0, np.linspace(1e-6, 1e-4, 10))
        assert all(w == 1.0 for w in curve.values)

    def test_monotone_nonincreasing(self, calibrated_noise):
        grid = np.linspace(1e-6, 4e-4, 30)
        curve = coherence_decay(calibrated_noise, 0.5, grid)
        vals = np.asarray(curve.values)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_unit_adiabaticity_matches_free_precession_time(self, calibrated_noise):
        # at A = 1 the decay tracks the free-precession coherence time
        grid = np.linspace(5e-6, 1.2e-4, 30)
        curve = coherence_decay(calibrated_noise, 1.0, grid)
        t2g, _ = fit_T2g(np.stack([curve.times, curve.values], axis=1))
        assert t2g == pytest.approx(T2_STAR, rel=0.2)

    def test_grid_validation(self):
        with pytest.raises(InvalidParameter):
            coherence_decay(White(1.0), 0.0, [2e-6, 1e-6])


class TestFitT2g:
    def test_exact_model_recovery(self):
        ts = np.linspace(1e-6, 2.5e-4, 40)
        samples = np.stack([ts, np.exp(-((ts / 1e-4) ** 2))], axis=1)
        t2g, resid = fit_T2g(samples)
        assert t2g == pytest.approx(1e-4, rel=1e-3)
        assert resid < 1e-12

    def test_constant_samples_fail(self):
        ts = np.linspace(1e-6, 1e-4, 10)
        with pytest.raises(FitFailure):
            fit_T2g(np.stack([ts, np.full_like(ts, 0.8)], axis=1))

    def test_too_few_samples(self):
        with pytest.raises(InvalidParameter):
            fit_T2g([(1e-6, 1.0), (2e-6, 0.5), (3e-6, 0.1)])

    @pytest.mark.parametrize("a_value", [0.01, 0.0464, 0.1, 1.0])
    def test_matches_exact_least_squares(self, calibrated_noise, a_value):
        # the decohere example's eq3 curves.  Levenberg-Marquardt alone
        # stops 4e-10 to 2e-6 short of the optimum on these flat costs,
        # depending on its start and Jacobian, so the reference solves the
        # normal equations J^T r = 0 (analytic J, times in microseconds)
        # from its answer; an error in the solver's own Jacobian slows it
        # but cannot move the root
        from scipy.optimize import least_squares, root
        from phasemag.harness import _eq3_decay_curve
        curve = _eq3_decay_curve(calibrated_noise, a_value)
        t_us, p = np.asarray(curve.times) * 1e6, np.asarray(curve.values)

        def resid(x):
            return x[0] * np.exp(-((t_us / x[1]) ** 2)) - p

        def jac(x):
            e = np.exp(-((t_us / x[1]) ** 2))
            return np.stack([e, x[0] * e * 2.0 * t_us**2 / x[1] ** 3], axis=1)

        t2g, rms = fit_T2g(np.stack([curve.times, curve.values], axis=1))
        lm = least_squares(resid, [1.0, 0.5 * t2g * 1e6], jac=jac,
                           method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        # hybr reports "no progress" once the gradient is at rounding level,
        # so its status says nothing here
        ref = root(lambda x: jac(x).T @ resid(x), lm.x, method="hybr",
                   options={"xtol": 1e-15})
        assert t2g * 1e6 == pytest.approx(ref.x[1], rel=1e-12)
        assert rms == pytest.approx(np.sqrt(np.mean(resid(ref.x) ** 2)),
                                    rel=1e-12)

    def test_flat_start_is_kept(self):
        # no positive amplitude fits near the first 1/e crossing, so the
        # best amplitude there is 0 and the bounded cost is flat: the fit
        # stays where it starts and reports the samples' own rms
        ts = np.linspace(1e-6, 8e-6, 8)
        p = np.array([-0.3, 0.9, -0.2, -0.1, 0.7, -0.05, -0.4, 0.75])
        t2g, resid = fit_T2g(np.stack([ts, p], axis=1))
        assert t2g == ts[0]
        assert resid == pytest.approx(np.sqrt(np.mean(p**2)), rel=1e-15)

    def test_monte_carlo_free_precession_recovery(self, calibrated_noise):
        ts = np.linspace(2e-6, 1.2e-4, 25)
        w = mc_free_precession_decay(calibrated_noise, ts, 2000, seed=5)
        t2g, _ = fit_T2g(np.stack([ts, w], axis=1))
        assert t2g == pytest.approx(T2_STAR, rel=0.2)


class TestCalibration:
    def test_targets_met_within_tolerance(self, calibrated_noise):
        S = calibrated_noise
        # verify through the closed-form exponents: chi(T_target) == 1 within 5%
        assert ramsey_exponent(S, T2_STAR) == pytest.approx(1.0, abs=0.05)
        assert echo_exponent(S, T2_ECHO) == pytest.approx(1.0, abs=0.05)
        assert S.tau_c > 10 * T2_STAR  # quasi-static regime

    def test_degenerate_targets_fail(self):
        with pytest.raises(CalibrationFailure):
            calibrate_noise(50e-6, 50e-6)

    def test_reversed_targets_rejected(self):
        with pytest.raises(InvalidParameter):
            calibrate_noise(500e-6, 50e-6)

    @pytest.mark.parametrize("t2_star, t2", [
        (50e-6, 500e-6), (40e-6, 400e-6), (55e-6, 500e-6), (50e-6, 60e-6),
        (1e-6, 1e-3), (1.0, 1.11), (1e-6, 1.0), (1e-6, 1e24), (1.0, 1e45)])
    def test_targets_met_to_rounding(self, t2_star, t2):
        S = calibrate_noise(t2_star, t2)
        assert ramsey_exponent(S, t2_star) == pytest.approx(1.0, rel=1e-13)
        assert echo_exponent(S, t2) == pytest.approx(1.0, rel=1e-13)

    def test_ratio_beyond_any_bath_fails(self):
        # past t2/t2_star ~ 3e51 the quasi-static start 6 (t2_star/t2)^3
        # has no normal free-precession bracket
        for t2_star, t2 in ((1e-300, 1e300), (1e-6, 1e54), (1.0, 1e52)):
            with pytest.raises(CalibrationFailure):
                calibrate_noise(t2_star, t2)

    def test_every_ratio_ends_in_a_bath_or_a_typed_error(self):
        # t2/t2_star = 10^(j/40) from 10^0.05 to 10^300: every ratio up to
        # about 3e51 calibrates to rounding, and every larger one is refused
        reached = 0.0
        for j in range(2, 12001):
            r = 10.0 ** (j / 40)
            try:
                S = calibrate_noise(1.0, r)
            except PhasemagError:
                continue
            reached = j / 40
            assert ramsey_exponent(S, 1.0) == pytest.approx(1.0, rel=1e-13)
            assert echo_exponent(S, r) == pytest.approx(1.0, rel=1e-13)
        assert reached == 51.475

    def test_scaling_both_targets(self, calibrated_noise):
        S2 = calibrate_noise(2 * T2_STAR, 2 * T2_ECHO)
        assert S2.delta == pytest.approx(calibrated_noise.delta / 2, rel=0.02)


class TestOUTrajectory:
    def test_deterministic_for_fixed_seed(self):
        S = Lorentzian(delta=3e4, tau_c=1e-3)
        a = ou_trajectory(S, 5e-3, 1e-4, seed=42)
        b = ou_trajectory(S, 5e-3, 1e-4, seed=42)
        assert np.array_equal(a.values, b.values)
        c = ou_trajectory(S, 5e-3, 1e-4, seed=43)
        assert not np.array_equal(a.values, c.values)

    def test_coarse_step_rejected(self):
        S = Lorentzian(delta=3e4, tau_c=1e-3)
        with pytest.raises(InvalidParameter):
            ou_trajectory(S, 1e-3, S.tau_c / 5, seed=1)

    def test_callable_returns_detunings(self):
        S = Lorentzian(delta=3e4, tau_c=1e-3)
        traj = ou_trajectory(S, 1e-3, 1e-5, seed=7)
        # one channel: a (1, 1) detuning in rad/s, in the bank's (times,
        # channels) layout, exactly the knot value on a knot
        assert np.array_equal(traj(0.0), traj.values[:1])
        assert traj.values.shape == (101, 1)

    @pytest.mark.parametrize("dt, values", [
        (1e-7, np.zeros(3)),
        (1e-7, np.zeros((1, 1))),
        (1e-7, np.array([[0.0], [np.nan], [1.0]])),
        (1e-7, np.array([[0.0], [np.inf], [1.0]])),
        (0.0, np.zeros((3, 1))),
        (-1.0, np.zeros((3, 1))),
        (np.nan, np.zeros((3, 1))),
        (np.inf, np.zeros((3, 1))),
    ], ids=["values-1d", "one-knot", "values-nan", "values-inf", "dt-0",
            "dt-negative", "dt-nan", "dt-inf"])
    def test_malformed_bank_rejected(self, dt, values):
        # a 1-D bank raised a bare IndexError from n_traj, and NaN knots ran
        # on to P = nan; knot k lies at k*dt, so dt alone places the knots
        with pytest.raises(InvalidParameter):
            noise.OUBank(dt=dt, values=values)

    def test_generated_banks_pass_unchanged(self):
        S = Lorentzian(delta=3e4, tau_c=1e-3)
        bank = ou_bank(S, 1e-3, 1e-5, n_traj=3, seed=7)
        again = noise.OUBank(dt=bank.dt, values=bank.values)
        assert again.dt == bank.dt and again.values is bank.values

    def test_stationary_variance(self):
        S = Lorentzian(delta=3e4, tau_c=1e-3)
        bank = ou_bank(S, 2e-4, 1e-5, n_traj=10_000, seed=2)
        var = float(np.var(bank.values[-1, :]))
        assert var == pytest.approx(S.delta**2, rel=0.03)

    def test_autocorrelation_at_one_correlation_time(self):
        S = Lorentzian(delta=3e4, tau_c=1e-3)
        bank = ou_bank(S, S.tau_c, S.tau_c / 10, n_traj=20_000, seed=3)
        x0 = bank.values[0, :]
        x1 = bank.values[-1, :]  # lag tau_c exactly
        corr = float(np.mean(x0 * x1))
        assert corr == pytest.approx(S.delta**2 / math.e, rel=0.05)


class TestOUScanAgainstRecursion:
    """``_ou_block``'s doubling scan against the step-by-step recursion
    (``conftest.ou_recursion_reference``) on the same normals."""

    FAST = Lorentzian(delta=2.0 * math.pi * 5e3, tau_c=20e-6)
    # a power of two, so that n_steps * DT / DT is n_steps exactly
    DT = 2.0**-20

    @staticmethod
    def _assert_matches(got, S, n_steps, dt, n_traj, seed_key):
        want = ou_recursion_reference(S, n_steps, dt, n_traj, seed_key)
        assert got.shape == want.shape == (n_steps + 1, n_traj)
        assert np.max(np.abs(got - want)) <= 1e-12 * S.delta

    @pytest.mark.parametrize("n_traj", [1, 3, 64])
    @pytest.mark.parametrize("n_steps", [1, 2, 3, 4, 5, 127, 128, 129])
    @pytest.mark.parametrize("bath, seed", [("fast", 5), ("calibrated", 6)])
    def test_scan_matches_recursion(self, calibrated_noise, bath, seed,
                                    n_steps, n_traj):
        S = self.FAST if bath == "fast" else calibrated_noise
        self._assert_matches(noise._ou_block(S, n_steps, self.DT, n_traj, seed),
                             S, n_steps, self.DT, n_traj, seed)

    def test_long_trajectory_past_underflow(self):
        # dt = tau_c/10 and 2^14 steps: the factor of the stride-8192 pass,
        # exp(-819.2), is 0.0
        S = self.FAST
        dt = S.tau_c / 10.0
        assert math.exp(-8192 * dt / S.tau_c) == 0.0
        self._assert_matches(noise._ou_block(S, 1 << 14, dt, 2, 7),
                             S, 1 << 14, dt, 2, 7)

    def test_public_generators_keep_their_keys(self):
        S = self.FAST
        traj = ou_trajectory(S, 129 * self.DT, self.DT, seed=3).values
        self._assert_matches(traj, S, 129, self.DT, 1, 3)
        bank = ou_bank(S, 129 * self.DT, self.DT, n_traj=64, seed=4).values
        self._assert_matches(bank, S, 129, self.DT, 64, [4, 0])

    def test_memory_stays_at_two_banks(self):
        # the normals block and one scan temporary: a third bank-sized
        # array would pass 2.2 banks
        n_steps, n_traj = 1 << 16, 64
        bank_bytes = (n_steps + 1) * n_traj * 8
        tracemalloc.start()
        try:
            bank = ou_bank(self.FAST, n_steps * self.DT, self.DT, n_traj, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bank.values.shape == (n_steps + 1, n_traj)
        assert peak <= 2.2 * bank_bytes


class TestPinnedStreams:
    """Generator outputs, pinned bit for bit.

    OU generation is a fixed sequence of float operations on PCG64 normals,
    so the arrays are compared bit for bit (sha256 of the float64 bytes);
    they were recorded when the recursion became a doubling scan, on the
    same normals as before.  The Monte-Carlo decay goes through cos and
    sums, whose last bits may vary between numpy builds, so it is compared
    at the 9 digits of the output files; its values were recorded when it
    began drawing one normal per distinct time of a group, through the
    triangular factor of the group's map.
    """

    S = Lorentzian(delta=31415.9, tau_c=20e-6)

    @staticmethod
    def _digest(a):
        return hashlib.sha256(np.asarray(a, dtype=float).tobytes()).hexdigest()

    def test_ou_trajectory(self):
        x = ou_trajectory(self.S, 2e-6, 1e-7, seed=3).values
        assert x.shape == (21, 1)
        assert self._digest(x) == \
            "cced9b35dc811c1063891c5df386aee55386c3a1387010e282f313ebbd4c74d7"
        keyed = ou_trajectory(self.S, 2e-6, 1e-7, seed=[3, 1]).values
        assert self._digest(keyed) == \
            "8eddeda316992b5046d102f33efa015cf87eaf3df43b39c2cf06c9181eef2ca1"

    def test_ou_bank(self):
        x = ou_bank(self.S, 2e-6, 1e-7, n_traj=3, seed=4).values
        assert x.shape == (21, 3)
        assert self._digest(x) == \
            "163f50003631889af2c03941b7fc24c7e092a7f3e06d8d65ccb11687f4b0e9af"

    @pytest.mark.parametrize("echo, want", [
        (False, ["1", "0.998920776", "0.994271031", "0.967242524"]),
        (True, ["1", "0.999964053", "0.999446806", "0.994044022"]),
    ])
    def test_mc_free_precession_decay(self, monkeypatch, echo, want):
        # recorded with chunks of 2 trajectories: streams (11, 0), (11, 1)
        # and (11, 2)
        monkeypatch.setattr(noise, "_CHUNK", 2)
        w = mc_free_precession_decay(self.S, [0.0, 2e-6, 5e-6, 10e-6], 5,
                                     seed=11, echo=echo)
        assert [format(float(v), ".9g") for v in w] == want


def _phases(S, ts, echo, rng, n_traj):
    """(n_traj, times) OU phases: ``noise._phase_map`` applied to one draw
    of normals from ``rng``, as the oracle does for each chunk of a group."""
    phase_map = noise._phase_map(S, ts, echo)
    return (phase_map @ rng.standard_normal((phase_map.shape[1], n_traj))).T


class TestExactOUSampling:
    """The joint (value, integral) sampler against the closed-form exponents.

    A Gaussian phase of variance 2 chi has <cos> = exp(-chi), so the phase
    variance is 2 chi_FID(T) for free precession and 2 chi_echo(T) for the
    echo.  Both baths follow the benchmark's: the calibrated quasi-static
    one (tau_c >> T) and a fast one (tau_c ~ T); the times span 0.2 to 1.5
    of the 1/e time, as in the benchmark's Monte-Carlo requests.
    """

    N = 200_000
    FAST = Lorentzian(delta=2 * math.pi * 5e3, tau_c=20e-6)

    @staticmethod
    def _times(S, echo):
        from scipy.optimize import brentq
        exponent = echo_exponent if echo else ramsey_exponent
        t1e = brentq(lambda t: exponent(S, t) - 1.0, 1e-7, 1e-2)
        return np.linspace(0.2, 1.5, 8) * t1e

    @pytest.fixture(params=["static", "fast"])
    def bath(self, request, calibrated_noise):
        return calibrated_noise if request.param == "static" else self.FAST

    @pytest.mark.parametrize("echo", [False, True])
    def test_phase_variance_is_twice_chi(self, bath, echo):
        ts = self._times(bath, echo)
        rng = np.random.default_rng(41)
        phases = np.concatenate([_phases(bath, ts, echo, rng, self.N // 4)
                                 for _ in range(4)])
        want = 2.0 * np.array([chi_reference(bath, echo, t) for t in ts])
        # sample variance of n Gaussian draws: standard error var*sqrt(2/(n-1))
        assert np.all(np.abs(np.mean(phases, axis=0)) <= 5 * np.sqrt(want / self.N))
        assert np.all(np.abs(np.var(phases, axis=0) - want)
                      <= 5 * want * math.sqrt(2.0 / (self.N - 1)))

    @pytest.mark.parametrize("echo", [False, True])
    def test_decay_within_sampling_error(self, bath, echo):
        ts = self._times(bath, echo)
        w = mc_free_precession_decay(bath, ts, self.N, seed=8, echo=echo)
        want = np.exp(-np.array([chi_reference(bath, echo, t) for t in ts]))
        assert np.max(np.abs(w - want)) <= 5 / math.sqrt(self.N)

    @pytest.mark.parametrize("echo", [False, True])
    def test_long_grid_within_sampling_error(self, bath, echo):
        # 300 unsorted times with repeats and a zero: 5 free-precession or
        # 10 echo groups, each on its own trajectories, against the closed
        # form (which the quadrature reference checks above)
        t1e = self._times(bath, echo)[0] / 0.2
        ts = np.random.default_rng(9).uniform(0.0, 2.0 * t1e, 300)
        ts[150], ts[200] = ts[7], 0.0
        exponent = echo_exponent if echo else ramsey_exponent
        want = np.exp(-np.array([exponent(bath, t) if t else 0.0 for t in ts]))
        n = 20_000
        w = mc_free_precession_decay(bath, ts, n, seed=10, echo=echo)
        assert w[200] == 1.0
        assert np.max(np.abs(w - want)) <= 5 / math.sqrt(n)

    @pytest.mark.parametrize("S, times, n_traj", [
        (FAST, [], 10), (FAST, [1e-6, math.nan], 10), (FAST, [-1e-6], 10),
        (FAST, [math.inf], 10), (FAST, [1e-6], 0), (White(1.0), [1e-6], 10),
        (FAST, [1e-6], -1), (FAST, [1e-6], 2.5), (FAST, [1e-6], 10.0)])
    def test_bad_input_rejected(self, S, times, n_traj):
        with pytest.raises(InvalidParameter):
            mc_free_precession_decay(S, times, n_traj, seed=1)

    @pytest.mark.parametrize("call", [
        functools.partial(ou_bank, FAST, 1e-5, 1e-6, 0, 1),
        functools.partial(ou_bank, FAST, 1e-5, 1e-6, -1, 1),
        functools.partial(ou_bank, FAST, 1e-5, 1e-6, 2.5, 1)],
        ids=["bank-0", "bank-negative", "bank-fraction"])
    def test_bad_counts_rejected(self, call):
        with pytest.raises(InvalidParameter):
            call()

    @pytest.mark.parametrize("call", [
        functools.partial(mc_free_precession_decay, FAST, [1e-6], 10, -1),
        functools.partial(mc_free_precession_decay, FAST, [1e-6], 10, 2.5),
        functools.partial(ou_bank, FAST, 1e-5, 1e-6, 4, -1),
        functools.partial(ou_trajectory, FAST, 1e-5, 1e-6, -1),
        functools.partial(ou_trajectory, FAST, 1e-5, 1e-6, (3, -1, 0)),
        functools.partial(ou_trajectory, FAST, 1e-5, 1e-6, "seed")],
        ids=["mc-negative", "mc-fraction", "bank-negative",
             "trajectory-negative", "trajectory-negative-key",
             "trajectory-text"])
    def test_bad_seeds_rejected(self, call):
        # numpy's SeedSequence would raise its own ValueError or TypeError
        with pytest.raises(InvalidParameter, match="seed"):
            call()

    def test_times_need_not_be_sorted(self, calibrated_noise):
        ts = np.array([3e-5, 0.0, 1e-5, 3e-5])
        w = mc_free_precession_decay(calibrated_noise, ts, 64, seed=2, echo=True)
        ref = mc_free_precession_decay(calibrated_noise, np.sort(ts), 64,
                                       seed=2, echo=True)
        assert w[1] == 1.0
        assert list(w) == [ref[2], ref[0], ref[1], ref[3]]


class TestPhaseMapAgainstRecursion:
    """``_phase_map``, one precomputed linear map per group of requested
    times, against the gap-by-gap recursion (``conftest.ou_phases_reference``).

    Both draw their normals from the same seed with the same row layout, so
    they must agree to rounding.  The bound is relative to the largest
    phase of each case: the echo's 2 I(T/2) - I(T) cancels, in both, to
    the rounding of I(T).
    """

    FAST = Lorentzian(delta=2 * math.pi * 5e3, tau_c=20e-6)
    GRIDS = {
        "unsorted": np.array([3e-5, 0.0, 1e-5, 3e-5, 7e-5, 0.0, 1e-5, 2e-6]),
        "long": np.random.default_rng(6).uniform(0.0, 2e-4, 300),
    }

    @pytest.fixture(params=["static", "fast"])
    def bath(self, request, calibrated_noise):
        return calibrated_noise if request.param == "static" else self.FAST

    @staticmethod
    def _groups(ts, echo):
        size = noise._GROUP_GAPS // 2 if echo else noise._GROUP_GAPS
        return [ts[lo:lo + size] for lo in range(0, ts.size, size)]

    @staticmethod
    def _deviation(S, ts, echo):
        got = _phases(S, ts, echo, np.random.default_rng(17), 64)
        want = ou_phases_reference(S, ts, echo, np.random.default_rng(17), 64)
        assert got.shape == want.shape == (64, ts.size)
        return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))

    @pytest.mark.parametrize("grid", ["unsorted", "long"])
    @pytest.mark.parametrize("echo", [False, True])
    def test_matches_recursion(self, bath, grid, echo):
        groups = self._groups(self.GRIDS[grid], echo)
        assert len(groups) == {"unsorted": 1, "long": 10 if echo else 5}[grid]
        for ts in groups:
            assert self._deviation(bath, ts, echo) <= 1e-13

    class _Identity:
        """An rng stub whose (normals, runs) draw is the identity padded
        with zero columns, so that ``ou_phases_reference`` returns the
        transpose of its linear map, padded with zero rows."""

        @staticmethod
        def standard_normal(shape):
            return np.eye(*shape)

    @pytest.mark.parametrize("gaps", [2, 6])
    @pytest.mark.parametrize("echo", [False, True])
    def test_oracle_groups_match_recursion(self, monkeypatch, calibrated_noise,
                                           gaps, echo):
        # groups of 1 or 3 echo times, 2 or 6 free-precession times, the
        # last one short: each group's mean cos on its own streams, chunk k
        # of group g from (seed, k, g), and of group 0 from (seed, k), each
        # a (distinct times, runs) draw through the QR factor of the
        # recursion's map of the group's distinct times in sorted order
        monkeypatch.setattr(noise, "_GROUP_GAPS", gaps)
        monkeypatch.setattr(noise, "_CHUNK", 5)
        ts = self.GRIDS["unsorted"]
        got = mc_free_precession_decay(calibrated_noise, ts, 12, seed=4,
                                       echo=echo)
        want = []
        for g, group in enumerate(self._groups(ts, echo)):
            distinct, row = np.unique(group, return_inverse=True)
            # P^T, padded: at most 2 distinct.size gaps take at most
            # 4 distinct.size + 1 normals
            map_t = ou_phases_reference(calibrated_noise, distinct, echo,
                                        self._Identity(), 4 * distinct.size + 1)
            factor = np.linalg.qr(map_t, mode="r").T
            cos_sum = 0.0
            for k, n in enumerate((5, 5, 2)):
                key = [4, k, g] if g else [4, k]
                w = np.random.default_rng(key).standard_normal(
                    (distinct.size, n))
                cos_sum = cos_sum + np.cos(factor @ w).sum(axis=1)
            want.extend(cos_sum[row] / 12)
        assert len(self._groups(ts, echo)) > 1
        assert np.max(np.abs(got - np.array(want))) <= 1e-13

    @pytest.mark.parametrize("echo", [False, True])
    def test_factor_reproduces_the_map(self, bath, echo):
        # the oracle's factor, read back at each requested time, against
        # the map of the times in the order given: L L^T = P P^T, a zero
        # time's row is exactly 0 and a repeated time reads the same row
        ts = self.GRIDS["unsorted"]
        factor, row = noise._phase_factor(bath, ts, echo)
        rows = factor[row]
        phase_map = noise._phase_map(bath, ts, echo)
        covariance = phase_map @ phase_map.T
        assert factor.shape == (np.unique(ts).size,) * 2
        assert np.all(np.triu(factor, 1) == 0.0)
        assert (np.max(np.abs(rows @ rows.T - covariance))
                <= 1e-13 * np.max(np.abs(covariance)))
        assert np.all(rows[ts == 0.0] == 0.0)
        for t in ts:
            assert np.all(rows[ts == t] == rows[np.argmax(ts == t)])

    def test_memory_stays_near_one_normals_block(self, calibrated_noise):
        # a 2000-time echo grid: 4000 gaps, so a (times x gaps) map would be
        # 4x the chunk's normals on its own
        ts = np.linspace(1e-6, 1e-3, 2000)
        gaps = np.unique(np.concatenate(([0.0], ts, ts / 2.0))).size - 1
        normals_bytes = (2 * gaps + 1) * 512 * 8
        tracemalloc.start()
        try:
            w = mc_free_precession_decay(calibrated_noise, ts, 512, seed=3,
                                         echo=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.abs(w) <= 1.0)
        assert peak <= 2 * normals_bytes


class TestOracleEquivalence:
    def test_free_precession_decay_matches_filter_prediction(self, calibrated_noise):
        ts = np.linspace(2e-6, 2 * T2_STAR, 24)
        w_mc = mc_free_precession_decay(calibrated_noise, ts, 2000, seed=11)
        w_pred = np.array([math.exp(-ramsey_exponent(calibrated_noise, t))
                           for t in ts])
        assert np.max(np.abs(w_mc - w_pred)) <= 0.10

    def test_echo_decay_matches_filter_prediction(self, calibrated_noise):
        ts = np.linspace(1e-5, T2_ECHO, 24)
        w_mc = mc_free_precession_decay(calibrated_noise, ts, 2000, seed=12,
                                        echo=True)
        w_pred = np.array([math.exp(-echo_exponent(calibrated_noise, t))
                           for t in ts])
        assert np.max(np.abs(w_mc - w_pred)) <= 0.10


class TestSpectralOverlay:
    def test_zero_adiabaticity_zeroes_geometric_column(self):
        S = Lorentzian(delta=3e4, tau_c=1e-3)
        ov = spectral_overlay(S, 0.0, 5e-5, np.geomspace(1, 1e7, 100))
        assert np.all(ov.geometric_weight == 0.0)

    def test_low_frequency_echo_suppression(self):
        # F1(wT)/w^2 -> w^2 T^4 / 32 as w -> 0
        S = White(1.0)
        t = 5e-5
        w = np.array([1e-2, 1e-1]) / t
        ov = spectral_overlay(S, 1.0, t, w)
        assert np.allclose(ov.dynamic_weight, w**2 * t**4 / 32, rtol=1e-3)

    def test_unit_adiabaticity_matches_free_precession_weight(self):
        S = White(1.0)
        t = 5e-5
        w = np.geomspace(0.1 / t, 100 / t, 50)
        ov = spectral_overlay(S, 1.0, t, w)
        f0 = filter_function(F0, w * t)
        assert np.allclose(ov.geometric_weight, f0 / w**2, rtol=1e-12)

    def test_grid_validation(self):
        with pytest.raises(InvalidParameter):
            spectral_overlay(White(1.0), 0.5, 1e-5, np.array([2.0, 1.0]))

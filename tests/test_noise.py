"""Spectral densities, filter functions, dephasing integral and its oracle."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from phasemag.constants import NV
from phasemag.errors import CalibrationFailure, FitFailure, InvalidParameter
from phasemag.harness import (decoherence_regime_scan,
                              nonadiabatic_sensitivity_scan)
from phasemag.noise import (FilterFunctionKind, Lorentzian, OneOverF,
                            QuadratureSpec, White, calibrate_noise,
                            coherence_decay, decoherence_function,
                            echo_exponent, filter_function, fit_T2g,
                            mc_free_precession_decay, ou_bank, ou_trajectory,
                            ramsey_exponent, spectral_overlay)

from conftest import T2_ECHO, T2_STAR, chi_reference

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

    @pytest.mark.parametrize("amplitude, omega_min, t", [
        (1.0, 1e3, 1e-6), (3e3, 2e2, 1e-5), (1e2, 5e3, 1e-4),
        (5e8, 80.0, 80e-6), (1e9, 120.0, 60e-6), (2e9, 90.0, 30e-6),
    ])
    def test_one_over_f_matches_numeric_reference(self, amplitude, omega_min, t):
        S = OneOverF(amplitude, omega_min, 1e6 * omega_min)
        assert ramsey_exponent(S, t) == pytest.approx(
            chi_reference(S, False, t), rel=1e-9)
        assert echo_exponent(S, t) == pytest.approx(
            chi_reference(S, True, t), rel=1e-9)

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

    def test_quad_argument_warns_and_changes_nothing(self, calibrated_noise):
        S = calibrated_noise
        spec = QuadratureSpec(rel_tol=1e-16, points=2, max_doublings=1)
        calls = [
            lambda **kw: ramsey_exponent(S, 2e-5, **kw),
            lambda **kw: echo_exponent(S, 2e-5, **kw),
            lambda **kw: decoherence_function(S, 0.3, 2e-5, **kw),
            lambda **kw: coherence_decay(S, 0.3, [1e-5, 2e-5], **kw),
            lambda **kw: calibrate_noise(T2_STAR, T2_ECHO, **kw),
            lambda **kw: decoherence_regime_scan([0.1], S, **kw),
            lambda **kw: nonadiabatic_sensitivity_scan([0.02], T2_STAR / 2, S,
                                                       b_points=41, **kw),
        ]
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                plain = call()
            with pytest.warns(DeprecationWarning, match="quad has no effect") as rec:
                assert call(quad=spec) == plain
            assert len(rec) == 1


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

    def test_callable_returns_field_units(self):
        S = Lorentzian(delta=3e4, tau_c=1e-3)
        traj = ou_trajectory(S, 1e-3, 1e-5, seed=7)
        assert traj(0.0) == pytest.approx(traj.values[0] / NV.gamma)

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


class TestPinnedStreams:
    """Generator outputs recorded before the three OU generators became one.

    Generation is exact arithmetic on PCG64 normals, so the arrays are
    compared bit for bit (sha256 of the float64 bytes).  The Monte-Carlo
    decay goes through cos and sums, whose last bits may vary between numpy
    builds, so it is compared at the 9 digits of the output files.
    """

    S = Lorentzian(delta=31415.9, tau_c=20e-6)

    @staticmethod
    def _digest(a):
        return hashlib.sha256(np.asarray(a, dtype=float).tobytes()).hexdigest()

    def test_ou_trajectory(self):
        x = ou_trajectory(self.S, 2e-6, 1e-7, seed=3).values
        assert x.shape == (21,)
        assert self._digest(x) == \
            "c2a094069ce1ebf7fdf3350994688d69469db3454339e885ac5996725d0bb669"
        keyed = ou_trajectory(self.S, 2e-6, 1e-7, seed=[3, 1]).values
        assert self._digest(keyed) == \
            "cdcf6d475f3a05c4ecba27b80fa7e2a6591b2722120eff28b401e42b52679897"

    def test_ou_bank(self):
        x = ou_bank(self.S, 2e-6, 1e-7, n_traj=3, seed=4).values
        assert x.shape == (21, 3)
        assert self._digest(x) == \
            "cff0b0001b34992713247af77ad84fa8c97eb938fe90a790c750a9652a9fb8e3"

    @pytest.mark.parametrize("echo, want", [
        (False, ["1", "0.998962863", "0.993673711", "0.987457594"]),
        (True, ["1", "0.999933415", "0.999534405", "0.995800482"]),
    ])
    def test_mc_free_precession_decay(self, echo, want):
        w = mc_free_precession_decay(self.S, [0.0, 2e-6, 5e-6, 10e-6], 5,
                                     seed=11, echo=echo, chunk=2)
        assert [format(float(v), ".9g") for v in w] == want


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

"""Closed-form model tests with independent numeric oracles."""

import math

import numpy as np
import pytest
from scipy import optimize

from phasemag import analytic
from phasemag.analytic import (DynamicModel, GeometricModel, HyperfineModel,
                               adiabaticity, adiabaticity_small_field,
                               berry_field_range, berry_phase_argument,
                               berry_signal, berry_slope, hyperfine_average,
                               ramsey_ambiguities, ramsey_field_range,
                               ramsey_signal, ramsey_slope, sensitivity)
from phasemag.constants import (MAX_TURNS, NV, TWO_PI, angular_from_mhz,
                                check_gamma)
from phasemag.errors import DegenerateSlope, InvalidParameter, OutOfRange

W5 = angular_from_mhz(5.0)


class TestRamseySignal:
    def test_zero_field(self):
        m = DynamicModel(1e-6)
        assert ramsey_signal(m, 0.0) == 1.0

    def test_half_period(self):
        m = DynamicModel(1e-6)
        b = math.pi / (NV.gamma * m.duration)
        assert ramsey_signal(m, b) == pytest.approx(-1.0)

    def test_full_fringe_at_35_714_microtesla(self):
        m = DynamicModel(1e-6)
        assert ramsey_signal(m, 35.7142857e-6) == pytest.approx(1.0, abs=1e-8)


class TestRamseyAmbiguities:
    def test_ladder_for_unit_signal(self):
        m = DynamicModel(1e-6)
        got = ramsey_ambiguities(m, 1.0, (0.0, 100e-6))
        want = [k / (28e9 * 1e-6) for k in range(3)]  # 0, 35.714, 71.428 uT
        assert len(got) == 3
        assert np.allclose(got, want, rtol=1e-12)

    def test_odd_ladder_for_minus_one(self):
        m = DynamicModel(1e-6)
        got = ramsey_ambiguities(m, -1.0, (0.0, 100e-6))
        fringe = TWO_PI / (NV.gamma * m.duration)
        want = [(k + 0.5) * fringe for k in range(3)]
        assert np.allclose(got, want, rtol=1e-12)

    def test_empty_window(self):
        m = DynamicModel(1e-6)
        assert ramsey_ambiguities(m, 0.3, (1e-3, 1e-4)) == []

    def test_rejects_unphysical_signal(self):
        with pytest.raises(InvalidParameter):
            ramsey_ambiguities(DynamicModel(1e-6), 1.5, (0.0, 1e-4))


class TestBerrySignal:
    def test_unit_at_zero_field(self):
        for n in (1, 2, 5):
            assert berry_signal(GeometricModel(W5, n), 0.0) == pytest.approx(1.0)

    def test_unit_at_large_field(self):
        m = GeometricModel(W5, 3)
        assert berry_signal(m, 1.0) == pytest.approx(1.0, abs=1e-4)

    def test_last_minimum_closed_form(self):
        m = GeometricModel(W5, 3)
        b = (W5 * 11.0 / math.sqrt(23.0)) / NV.gamma
        assert berry_signal(m, b) == pytest.approx(-1.0, abs=1e-12)

    def test_rabi_invariance(self):
        # signal depends on (B, Omega) through B/Omega only; power-of-two
        # scaling is float-exact
        m1 = GeometricModel(W5, 4)
        m2 = GeometricModel(4.0 * W5, 4)
        b = np.linspace(0, 2e-3, 101)
        assert np.array_equal(berry_signal(m1, b), berry_signal(m2, 4.0 * b))
        m3 = GeometricModel(3.0 * W5, 4)
        assert np.allclose(berry_signal(m1, b), berry_signal(m3, 3.0 * b),
                           atol=1e-12)


class TestBerrySlope:
    def test_zero_at_zero_field(self):
        m = GeometricModel(W5, 3)
        envelope = 4 * math.pi * m.n_rotations * NV.gamma / m.rabi
        assert abs(berry_slope(m, 0.0)) <= 1e-12 * envelope

    def test_vanishes_at_large_field(self):
        assert abs(berry_slope(GeometricModel(W5, 3), 0.5)) < 1e-3

    def test_matches_finite_differences(self):
        m = GeometricModel(W5, 3)
        b_max = berry_field_range(m)
        rng = np.random.default_rng(5)
        scale = 4 * math.pi * m.n_rotations * NV.gamma / m.rabi
        checked = 0
        while checked < 200:
            b = rng.uniform(0.01, 1.4) * b_max
            s = float(berry_slope(m, b))
            if abs(s) < 0.05 * scale:  # skip extremum neighborhoods
                continue
            db = b_max * 1e-7
            fd = float(berry_signal(m, b + db / 2) - berry_signal(m, b - db / 2)) / db
            assert s == pytest.approx(fd, rel=1e-6)
            checked += 1


class TestBerryFieldRange:
    def test_reference_value(self):
        m = GeometricModel(W5, 3)
        assert berry_field_range(m) == pytest.approx(0.40958188e-3, rel=1e-6)

    def test_brute_force_scan_agrees(self):
        # independent oracle: last B where the signal reaches -1, located by
        # scanning the chirp argument for its pi crossing
        m = GeometricModel(W5, 4)
        b = np.linspace(1e-6, 5e-3, 200001)
        args = berry_phase_argument(m, b)
        idx = np.where(np.diff(np.sign(args - math.pi)) != 0)[0]
        assert len(idx) == 1
        b_cross = 0.5 * (b[idx[0]] + b[idx[0] + 1])
        assert berry_field_range(m) == pytest.approx(b_cross, rel=1e-4)

    def test_doubling_rabi_doubles_range(self):
        m1 = GeometricModel(W5, 3)
        m2 = GeometricModel(2 * W5, 3)
        assert berry_field_range(m2) == pytest.approx(2 * berry_field_range(m1))

    def test_large_turn_count_asymptote(self):
        n = 1000
        m = GeometricModel(W5, n)
        ratio = berry_field_range(m) * NV.gamma / (W5 * math.sqrt(2 * n))
        assert abs(ratio - 1.0) <= 3.0 / (16.0 * n) * 1.2

    def test_turn_count_past_the_phase_cap_rejected(self):
        # at 2**63 turns cos(theta) = 1 - 1/(4N) rounds to 1 and the range
        # divided by zero; the largest accepted count keeps it finite
        assert math.isfinite(berry_field_range(GeometricModel(W5, MAX_TURNS)))
        with pytest.raises(InvalidParameter, match="n_rotations must be <="):
            GeometricModel(W5, MAX_TURNS + 1)


class TestNonFiniteModelParameters:
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejected(self, bad):
        with pytest.raises(InvalidParameter):
            GeometricModel(bad, 3)
        with pytest.raises(InvalidParameter):
            GeometricModel(W5, 3, gamma=bad)
        with pytest.raises(InvalidParameter):
            DynamicModel(1e-6, gamma=bad)
        # one rule, constants.check_gamma, serves every gamma
        with pytest.raises(InvalidParameter,
                           match="gamma must be positive and finite"):
            check_gamma(bad)


class TestRamseyFieldRange:
    def test_reference_value(self):
        m = DynamicModel(1e-6)
        assert ramsey_field_range(m) == pytest.approx(35.7142857e-6, rel=1e-8)

    def test_exact_product_identity(self):
        for t in (0.2e-6, 1e-6, 5e-6):
            m = DynamicModel(t)
            assert ramsey_field_range(m) * NV.gamma * t == pytest.approx(TWO_PI, rel=1e-15)

    def test_inverse_scaling(self):
        assert (ramsey_field_range(DynamicModel(0.2e-6))
                / ramsey_field_range(DynamicModel(1.0e-6))) == pytest.approx(5.0)


class TestSensitivity:
    def test_ramsey_closed_form(self):
        t = 1e-6
        m = DynamicModel(t)
        rep = sensitivity(m, (0.0, ramsey_field_range(m)), t)
        assert rep.max_slope == pytest.approx(NV.gamma * t, rel=1e-9)
        assert rep.eta == pytest.approx(1.0 / (NV.gamma * math.sqrt(t)), rel=1e-9)

    def test_linear_in_signal_noise(self):
        t = 1e-6
        m = DynamicModel(t)
        args = (m, (0.0, ramsey_field_range(m)), t)
        assert (sensitivity(*args, sigma_p=2.0).eta
                == pytest.approx(2.0 * sensitivity(*args, sigma_p=1.0).eta))

    def test_degenerate_slope(self):
        # a thousand tesla past a 5 MHz drive's range the signal is flat:
        # the slope there is about 1e-28 per tesla
        with pytest.raises(DegenerateSlope):
            sensitivity(GeometricModel(W5, 1), (1e3, 1e4), 1e-6)

    def test_other_models_are_refused(self):
        with pytest.raises(InvalidParameter):
            sensitivity(HyperfineModel(), (0.0, 1e-3), 1e-6)

    @pytest.mark.parametrize("duration, sigma_p", [
        (math.inf, 1.0), (math.nan, 1.0), (1e-6, math.inf), (1e-6, math.nan)],
        ids=["inf-time", "nan-time", "inf-sigma", "nan-sigma"])
    def test_non_finite_time_or_signal_noise_rejected(self, duration, sigma_p):
        # an infinite time or signal noise gave eta = inf
        m = DynamicModel(1e-6)
        with pytest.raises(InvalidParameter):
            sensitivity(m, (0.0, ramsey_field_range(m)), duration, sigma_p)

    # -1 took a square root of a negative time, nan gave eta = nan
    @pytest.mark.parametrize("overhead", [-1.0, math.nan, math.inf])
    def test_bad_overhead_rejected(self, overhead):
        m = DynamicModel(1e-6)
        with pytest.raises(InvalidParameter, match="overhead"):
            sensitivity(m, (0.0, ramsey_field_range(m)), 1e-6,
                        overhead=overhead)

    @staticmethod
    def _lobe_reference(m, lo, hi, points=200_001):
        # the best |slope| of a fine grid, and scipy's bounded minimiser of
        # -|slope| on every lobe the grid sees (between the neighbours of
        # its first and last grid point), at an xatol of 1e-15 of the window
        grid = np.linspace(lo, hi, points)
        best = float(np.max(np.abs(berry_slope(m, grid))))
        lobes = np.floor(berry_phase_argument(m, grid) / math.pi)
        edges = np.flatnonzero(np.diff(lobes)) + 1
        for first, last in zip(np.r_[0, edges], np.r_[edges, points] - 1):
            ref = optimize.minimize_scalar(
                lambda x: -abs(float(berry_slope(m, x))),
                bounds=(grid[max(first - 1, 0)], grid[min(last + 1, points - 1)]),
                method="bounded",
                options={"xatol": 1e-15 * max(abs(lo), abs(hi))})
            best = max(best, -ref.fun)
        return best

    @pytest.mark.parametrize("mhz, n, t, stop", [
        (5.0, 3, 8e-6, 1.0), (5.0, 1, 16e-6, 0.5), (1.0, 6, 50e-6, 1.2),
        (20.0, 2, 4e-6, 0.8), (0.3, 11, 80e-6, 1.5),
    ])
    def test_berry_peak_matches_bounded_minimize_scalar(self, mhz, n, t, stop):
        # the global maximum: on the (0.3 MHz, N = 11) row a 2001-point grid
        # refined around its best point stops 0.15 % low
        m = GeometricModel(angular_from_mhz(mhz), n)
        hi = stop * berry_field_range(m)
        rep = sensitivity(m, (0.0, hi), t)
        assert rep.max_slope == pytest.approx(self._lobe_reference(m, 0.0, hi),
                                              rel=1e-13)
        assert rep.max_slope == abs(float(berry_slope(m, rep.b_at_max_slope)))

    def test_berry_aliasing_cell(self):
        m = GeometricModel(angular_from_mhz(0.3), 11)
        rep = sensitivity(m, (0.0, 1.5 * berry_field_range(m)), 80e-6)
        assert rep.max_slope == pytest.approx(12_898_975.31, rel=1e-9)

    @pytest.fixture
    def slope_calls(self, monkeypatch):
        # one entry per berry_slope call made inside phasemag.analytic
        calls = []

        def counted(*args):
            calls.append(None)
            return berry_slope(*args)

        monkeypatch.setattr(analytic, "berry_slope", counted)
        return calls

    def test_never_below_a_fine_grid(self, slope_calls):
        # random cells, windows from zero, off zero and across zero: the
        # best slope is never below that of a 200 001-point grid, and no
        # call evaluates more than two lobes per side (five lobe edges and
        # four roots)
        rng = np.random.default_rng(18)
        for cell in range(120):
            m = GeometricModel(angular_from_mhz(10**rng.uniform(-1, math.log10(20))),
                               int(rng.integers(1, 12)))
            hi = rng.uniform(0.3, 1.5) * berry_field_range(m)
            lo = (0.0, rng.uniform(0.0, 0.8) * hi,
                  -rng.uniform(0.0, 1.0) * hi)[cell % 3]
            slope_calls.clear()
            rep = sensitivity(m, (lo, hi), rng.uniform(2e-6, 100e-6))
            assert len(slope_calls) <= 9
            grid = np.abs(berry_slope(m, np.linspace(lo, hi, 200_001)))
            assert rep.max_slope >= float(np.max(grid)) * (1.0 - 1e-13), cell

    def test_max_turns_stops_after_two_lobes(self, slope_calls):
        # lobes near zero field are 3e-19 T wide at 2**47 turns; a walk
        # over every lobe in the window would take millions of them
        m = GeometricModel(W5, MAX_TURNS)
        rep = sensitivity(m, (0.0, 0.6e-3), 8e-6)
        assert len(slope_calls) <= 5
        assert 0 < rep.max_slope <= 4 * math.pi * MAX_TURNS * NV.gamma / W5

    @pytest.mark.parametrize("window", [(0.0, math.inf), (-math.inf, 0.0),
                                        (math.nan, 1e-3), (0.0, math.nan)])
    @pytest.mark.parametrize("model", [DynamicModel(1e-6), GeometricModel(W5, 3)],
                             ids=["ramsey", "berry"])
    def test_non_finite_window(self, model, window):
        with pytest.raises(InvalidParameter):
            sensitivity(model, window, 1e-6)

    @pytest.mark.parametrize("window", [(0.0, 1e300), (-1e300, 1e300),
                                        (-1e300, 0.0)])
    def test_huge_window(self, window):
        ramsey = DynamicModel(1e-6)
        assert sensitivity(ramsey, window, 1e-6).max_slope == NV.gamma * 1e-6
        berry = GeometricModel(W5, 3)
        near_zero = sensitivity(berry, (0.0, berry_field_range(berry)), 1e-6)
        assert (sensitivity(berry, window, 1e-6).max_slope
                == near_zero.max_slope)

    @pytest.mark.parametrize("window", [(1.1e303, 1.2e303),
                                        (-1.2e303, -1.1e303)])
    def test_window_past_the_phase_range_is_gamma_t(self, window):
        # gamma*T*B overflows on the whole window, whose one float step of
        # B already spans many fringes
        rep = sensitivity(DynamicModel(1e-6), window, 1e-6)
        assert rep.max_slope == NV.gamma * 1e-6
        assert window[0] <= rep.b_at_max_slope <= window[1]

    def test_envelope_overflow(self):
        # 4*pi*N*gamma/Omega is past the float range at zero field
        m = GeometricModel(angular_from_mhz(1e-300), MAX_TURNS)
        with pytest.raises(OutOfRange):
            sensitivity(m, (0.0, 0.6e-3), 8e-6)

    @pytest.mark.parametrize("t, fringes", [
        (1e-6, 1.0), (1e-6, 3.7), (8e-6, 40.0), (2e-5, 400.0),
        (1e-5, 800.0), (1e-5, 600.0), (3e-5, 450.0),
    ])
    def test_ramsey_peak_is_gamma_t(self, t, fringes):
        m = DynamicModel(t)
        rep = sensitivity(m, (0.0, fringes * ramsey_field_range(m)), t)
        assert rep.max_slope == NV.gamma * t

    def test_ramsey_window_off_zero_is_gamma_t(self):
        # phases 0.43 to 262.32 rad: a refined 2001-point grid stopped
        # 6.8e-6 below gamma*T here
        m = DynamicModel(36.35e-6)
        gt = m.gamma * m.duration
        rep = sensitivity(m, (0.43 / gt, 262.32 / gt), m.duration)
        assert rep.max_slope == gt

    @pytest.mark.parametrize("lo, hi", [(0.0, 0.2), (0.1, 0.23), (0.55, 0.7)])
    def test_window_ending_on_a_rising_slope_returns_the_end(self, lo, hi):
        # |slope| = gamma*T*|sin(2 pi B/B_range)| rises over these windows
        # (in units of the fringe B_range), so the window's end is the peak
        m = DynamicModel(1e-6)
        unit = ramsey_field_range(m)
        rep = sensitivity(m, (lo * unit, hi * unit), 1e-6)
        assert rep.b_at_max_slope == hi * unit
        assert rep.max_slope == abs(float(ramsey_slope(m, hi * unit)))


class TestHyperfineAverage:
    def test_zero_offsets_reduce_to_base(self):
        h = HyperfineModel(detunings=(0.0, 0.0, 0.0))
        ts = np.linspace(0, 1e-6, 50)
        base = lambda off, t: np.cos((NV.gamma * 1e-5 + off) * t)
        assert np.allclose(hyperfine_average(base, h, ts), base(0.0, ts))

    def test_first_envelope_null(self):
        # oracle: root of 1 + 2*cos(delta*T) = 0
        h = HyperfineModel.triplet()
        delta = NV.hyperfine_splitting
        t_root = optimize.brentq(lambda t: 1 + 2 * math.cos(delta * t),
                                 1e-9, math.pi / delta)
        assert t_root == pytest.approx(0.15432e-6, rel=1e-4)
        base = lambda off, t: np.cos(off * t)  # zero-field time scan
        ts = np.linspace(1e-9, 0.4e-6, 4000)
        vals = hyperfine_average(base, h, ts)
        crossings = np.where(np.diff(np.sign(vals)) != 0)[0]
        first = 0.5 * (ts[crossings[0]] + ts[crossings[0] + 1])
        assert first == pytest.approx(t_root, rel=1e-3)

    def test_bounded_for_normalized_weights(self):
        h = HyperfineModel.triplet()
        base = lambda off, b: np.cos((NV.gamma * b + off) * 1e-6)
        bs = np.linspace(0, 1e-3, 500)
        vals = hyperfine_average(base, h, bs)
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)

    def test_weights_validation(self):
        with pytest.raises(InvalidParameter):
            HyperfineModel(weights=(0.5, 0.5, 0.5))

    def test_nan_weight_rejected(self):
        # nan compares false both as a negative weight and in the sum check
        with pytest.raises(InvalidParameter, match="weights"):
            HyperfineModel(weights=(math.nan, 0.5, 0.5))

    def test_non_finite_detuning_rejected(self):
        with pytest.raises(InvalidParameter, match="detunings"):
            HyperfineModel(detunings=(math.nan, 0.0, 1.0))


class TestAdiabaticity:
    def test_zero_field_form(self):
        a = adiabaticity(W5, 3, 8e-6, 0.0)
        assert a == pytest.approx(TWO_PI * 3 / (W5 * 8e-6), rel=1e-12)
        assert a == pytest.approx(0.075, rel=1e-9)

    def test_shorthand_drops_two_pi(self):
        a_short = adiabaticity_small_field(W5, 3, 8e-6)
        assert a_short == pytest.approx(0.0119366, rel=1e-4)
        assert adiabaticity(W5, 3, 8e-6, 0.0) == pytest.approx(TWO_PI * a_short)

    def test_zero_larmor_rate_names_its_cause(self):
        with pytest.raises(InvalidParameter, match="both zero"):
            adiabaticity(0.0, 1, 8e-6, 0.0)

    @pytest.mark.parametrize("mhz", [1e-300, 1e-290, 1e-170, 1e-162])
    def test_underflowing_rabi_squared(self, mhz):
        # Omega^2 underflows (to zero or a subnormal), Omega itself does not:
        # A is still 2*pi*N/(Omega*T) at zero field, to rounding
        rabi = angular_from_mhz(mhz)
        a = adiabaticity(rabi, 1, 8e-6, 0.0)
        assert a == pytest.approx(TWO_PI / (rabi * 8e-6), rel=1e-15)

    def test_normal_larmor_rates_unchanged(self):
        # the scaled form is only taken where R^2 is not a normal float
        rng = np.random.default_rng(7)
        for rabi, b in zip(10.0 ** rng.uniform(-150, 9, 2000),
                           rng.choice([0.0, 1e-3], 2000) * rng.uniform(0, 1, 2000)):
            r_sq = rabi**2 + (NV.gamma * b) ** 2
            assert adiabaticity(rabi, 3, 8e-6, b) == (
                (4.0 * math.pi * 3 / 8e-6) * rabi / (2.0 * r_sq))

    def test_nan_field_rejected(self):
        # the rescaled branch took a nan R^2 for a subnormal one and
        # overflowed scaling Omega up
        with pytest.raises(InvalidParameter):
            adiabaticity(1e7, 3, 8e-6, math.nan)

    def test_infinite_rabi_rejected(self):
        with pytest.raises(InvalidParameter):
            adiabaticity(math.inf, 3, 8e-6, 0.0)

    def test_infinite_duration_rejected(self):
        with pytest.raises(InvalidParameter):
            adiabaticity(W5, 3, math.inf, 0.0)

    @pytest.mark.parametrize("rabi, duration", [(math.inf, 8e-6), (W5, math.inf)],
                             ids=["inf-rabi", "inf-time"])
    def test_shorthand_rejects_non_finite(self, rabi, duration):
        # both returned 0.0
        with pytest.raises(InvalidParameter):
            adiabaticity_small_field(rabi, 3, duration)

    def test_monotone_decreasing_in_duration(self):
        ts = np.linspace(1e-6, 50e-6, 20)
        vals = [adiabaticity(W5, 3, t, 0.2e-3) for t in ts]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestSlopeDisambiguation:
    def test_signal_monotone_within_each_lobe(self):
        # injectivity of B -> (P, slope sign, lobe index) on a dense grid:
        # within one half-oscillation lobe the signal is strictly monotone
        m = GeometricModel(W5, 3)
        b_max = berry_field_range(m)
        b = np.linspace(0.0, b_max, 10001)[1:]
        args = berry_phase_argument(m, b)
        lobes = np.floor((4 * math.pi * m.n_rotations - args) / math.pi).astype(int)
        p = berry_signal(m, b)
        slopes = berry_slope(m, b)
        scale = 4 * math.pi * m.n_rotations * NV.gamma / m.rabi
        for lobe in np.unique(lobes):
            mask = lobes == lobe
            if np.count_nonzero(mask) < 3:
                continue
            interior = mask & (np.abs(slopes) > 1e-6 * scale)
            vals = p[interior]
            d = np.diff(vals)
            assert np.all(d > 0) or np.all(d < 0)

"""Sweep harness, power-law fitting and regime scans."""

import json
import math

import numpy as np
import pytest

from phasemag import core, harness
from phasemag.analytic import GeometricModel, adiabaticity, berry_field_range
from phasemag.constants import NV, TWO_PI, angular_from_mhz
from phasemag.errors import (AdiabaticityViolation, FitFailure,
                             InvalidParameter)
from phasemag.harness import (SweepRecord, SweepResult, SweepSpec,
                              _eq3_decay_curve, _mc_decay_samples,
                              classify_regime, decoherence_regime_scan,
                              fit_power_law, fmt,
                              nonadiabatic_sensitivity_scan, run_sweep,
                              smart_control_curve, to_jsonl)
from phasemag.noise import Lorentzian, OneOverF, White, fit_T2g, ou_bank
from phasemag.sequences import build_berry

from conftest import held_noise_ode

W5 = angular_from_mhz(5.0)


def _ramsey_spec(times, b_points=101, **kw):
    b_hi = TWO_PI / (NV.gamma * min(times))
    return SweepSpec(protocol="ramsey", times=list(times),
                     b_grid=list(np.linspace(0.0, b_hi, b_points)), **kw)


class TestRunSweep:
    def test_ramsey_fringe_periods_scale_inversely(self):
        res = run_sweep(_ramsey_spec([0.2e-6, 0.5e-6, 1.0e-6]))
        assert res.ok
        widths = [r.b_max for r in res.records]
        assert widths[0] / widths[2] == pytest.approx(5.0, rel=1e-12)
        assert widths[1] / widths[2] == pytest.approx(2.0, rel=1e-12)
        # curves are periodic with their own fringe width
        for rec in res.records:
            b = np.asarray(res.spec.b_grid)
            p = np.asarray(rec.p_curve)
            period = rec.b_max
            inside = b + period <= b[-1] + 1e-18
            p_shift = np.interp(b[inside] + period, b, p)
            assert np.allclose(p[inside], p_shift, atol=1e-6)

    def test_single_point_grid(self):
        res = run_sweep(_ramsey_spec([1e-6]))
        assert len(res.records) == 1
        assert res.records[0].status == "ok"

    def test_records_hold_python_floats(self):
        spec = _ramsey_spec([1e-6, 2e-6], b_points=11)
        for rec in run_sweep(spec).records:
            want = harness.signal_curve("ramsey", "analytic", rec.duration,
                                        np.asarray(spec.b_grid), None, None)
            assert rec.p_curve == tuple(want)
            assert {type(v) for v in rec.p_curve} == {float}

    def test_berry_numeric_t_independence_when_adiabatic(self):
        # at A <= 0.015 the curves for different T agree pairwise
        model = GeometricModel(W5, 3)
        b_grid = list(np.linspace(0, 1.2 * berry_field_range(model), 81))
        spec = SweepSpec(protocol="berry", times=[40e-6, 60e-6, 80e-6],
                         omegas=[W5], n_rotations=[3], b_grid=b_grid,
                         engine="numeric")
        res = run_sweep(spec)
        assert res.ok
        curves = [np.asarray(r.p_curve) for r in res.records]
        for i in range(len(curves)):
            for j in range(i + 1, len(curves)):
                assert np.max(np.abs(curves[i] - curves[j])) <= 0.02

    def test_engine_agreement_in_adiabatic_regime(self):
        model = GeometricModel(W5, 3)
        b_grid = list(np.linspace(0, 1.2 * berry_field_range(model), 61))
        times = [60e-6]  # A = 0.01
        num = run_sweep(SweepSpec(protocol="berry", times=times, omegas=[W5],
                                  n_rotations=[3], b_grid=b_grid,
                                  engine="numeric"))
        ana = run_sweep(SweepSpec(protocol="berry", times=times, omegas=[W5],
                                  n_rotations=[3], b_grid=b_grid,
                                  engine="analytic"))
        assert np.max(np.abs(np.asarray(num.records[0].p_curve)
                             - np.asarray(ana.records[0].p_curve))) <= 0.01

    def test_failures_recorded_without_aborting(self):
        # noise-free echo curves are flat: sensitivity degenerates per point
        spec = SweepSpec(protocol="hahn", times=[1e-6, 2e-6],
                         b_grid=list(np.linspace(0, 1e-4, 11)),
                         engine="numeric")
        res = run_sweep(spec)
        assert len(res.records) == 2
        assert all(r.status == "error" for r in res.records)
        assert all("slope" in r.error for r in res.records)

    def test_determinism_identical_serialization(self):
        spec = _ramsey_spec([0.5e-6, 1e-6])
        a = to_jsonl(run_sweep(spec))
        b = to_jsonl(run_sweep(spec))
        assert a == b

    def test_workers_do_not_change_results(self):
        spec1 = _ramsey_spec([0.5e-6, 1e-6], b_points=31)
        with pytest.warns(DeprecationWarning, match="workers"):
            spec2 = _ramsey_spec([0.5e-6, 1e-6], b_points=31, workers=2)
        assert to_jsonl(run_sweep(spec1)) == to_jsonl(run_sweep(spec2))

    def test_noise_engine_pinned(self):
        # curves and records recorded when free evolution became an exact z
        # rotation; point i, trajectory k draws from (seed, i, k)
        spec = SweepSpec(protocol="ramsey", times=[2e-6, 4e-6],
                         b_grid=list(np.linspace(0.0, 2e-5, 5)),
                         engine="numeric+noise",
                         noise=Lorentzian(delta=31415.9, tau_c=20e-6),
                         seed=3, ensemble=2)
        res = run_sweep(spec)
        assert res.ok
        assert [[fmt(p) for p in r.p_curve] for r in res.records] == [
            ["0.996114442", "-0.262513949", "-0.897734024", "0.598951112",
             "0.673269531"],
            ["0.997004743", "-0.942418775", "0.75547289", "-0.462423083",
             "0.104427329"]]
        records = [json.loads(line) for line in to_jsonl(res).splitlines()]
        assert [(r["eta"], r["max_slope"], r["B_max_mT"]) for r in records] == [
            ("5.6180743e-09", "251725.678", "0.0178571429"),
            ("5.15617136e-09", "387884.704", "0.00892857143")]

    def test_berry_sweep_with_noise_fits_coherence_time(self, calibrated_noise):
        spec = SweepSpec(protocol="berry", times=[4e-6], omegas=[W5],
                         n_rotations=[2], b_grid=[0.0, 1e-4, 2e-4],
                         noise=calibrated_noise)
        rec = run_sweep(spec).records[0]
        assert rec.status == "ok"
        curve = _eq3_decay_curve(calibrated_noise, rec.adiabaticity)
        assert rec.t2g == fit_T2g(np.stack([curve.times, curve.values], axis=1))[0]

    @pytest.mark.parametrize("noise", [None, White(1e3),
                                       OneOverF(1.0, 1.0, 10.0)],
                             ids=["none", "white", "one-over-f"])
    def test_noise_engine_needs_lorentzian(self, noise):
        # a spec of another family was accepted, and then every point's
        # record read that the engine needs a Lorentzian model
        with pytest.raises(InvalidParameter, match="Lorentzian"):
            SweepSpec(protocol="ramsey", times=[1e-6, 2e-6],
                      b_grid=[0.0, 1e-5, 2e-5], engine="numeric+noise",
                      noise=noise, ensemble=1)

    @pytest.mark.parametrize("noise", [None, White(1.0),
                                       OneOverF(1.0, 1.0, 10.0)],
                             ids=["none", "white", "one-over-f"])
    def test_signal_curve_needs_lorentzian(self, noise):
        # a direct call skips check_curve_request, so signal_curve itself
        # must refuse the bath before its knot step reads tau_c
        with pytest.raises(InvalidParameter, match="Lorentzian"):
            harness.signal_curve("ramsey", "numeric+noise", 1e-6,
                                 np.array([0.0]), noise=noise)

    def test_spec_validation(self):
        with pytest.raises(InvalidParameter):
            SweepSpec(protocol="hahn", times=[1e-6], b_grid=[0.0, 1e-4],
                      engine="analytic")
        with pytest.raises(InvalidParameter):
            SweepSpec(protocol="berry", times=[1e-6], b_grid=[0.0, 1e-4])
        with pytest.raises(InvalidParameter):
            SweepSpec(protocol="ramsey", times=[1e-6], b_grid=[0.0, 1e-4],
                      engine="numeric+noise")
        for bad in ({"ensemble": 0}, {"ensemble": -3}, {"workers": 0},
                    {"workers": 1.5}, {"ensemble": 2**31}):
            with pytest.raises(InvalidParameter):
                SweepSpec(protocol="ramsey", times=[1e-6], b_grid=[0.0, 1e-4],
                          **bad)
        # a fractional ensemble passed the spec and ended run_sweep in a
        # TypeError; counts are integers >= 1, checked before any point runs
        with pytest.raises(InvalidParameter, match="ensemble must be >= 1"):
            SweepSpec(protocol="ramsey", times=[1e-6], b_grid=[0.0, 1e-4],
                      engine="numeric+noise", noise=Lorentzian(1e5, 1e-5),
                      ensemble=2.5)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.inf, math.nan])
    def test_spec_refuses_bad_gamma(self, gamma):
        with pytest.raises(InvalidParameter,
                           match="gamma must be positive and finite"):
            SweepSpec(protocol="ramsey", times=[1e-6], b_grid=[0.0, 1e-4],
                      gamma=gamma)


class TestFitPowerLaw:
    @staticmethod
    def _synthetic(times, eta_exp, bmax_exp):
        records = []
        for i, t in enumerate(times):
            records.append(SweepRecord(
                index=i, protocol="ramsey", engine="analytic", omega=None,
                n_rotations=None, duration=t, adiabaticity=None,
                p_curve=(), eta=3.0 * t**eta_exp, max_slope=1.0,
                b_max=0.5 * t**bmax_exp, t2g=None, t2g_residual=None,
                status="ok"))
        spec = SweepSpec(protocol="ramsey", times=list(times),
                         b_grid=[0.0, 1e-4])
        return SweepResult(spec=spec, records=tuple(records))

    def test_exact_recovery_on_pure_power_law(self):
        res = self._synthetic(np.linspace(0.2e-6, 2e-6, 6), -0.5, -1.0)
        fit = fit_power_law(res, "eta", ["duration"])
        assert fit.exponents["duration"] == pytest.approx(-0.5, abs=1e-9)
        assert fit.stderr["duration"] >= 0.0
        fit_b = fit_power_law(res, "b_max", ["duration"])
        assert fit_b.exponents["duration"] == pytest.approx(-1.0, abs=1e-9)

    def test_ramsey_sweep_exponents(self):
        res = run_sweep(_ramsey_spec(list(np.linspace(0.2e-6, 2.0e-6, 7))))
        assert fit_power_law(res, "eta", ["duration"]).exponents["duration"] \
            == pytest.approx(-0.5, abs=0.05)
        assert fit_power_law(res, "b_max", ["duration"]).exponents["duration"] \
            == pytest.approx(-1.0, abs=0.02)

    def test_needs_three_distinct_values(self):
        res = self._synthetic([1e-6, 2e-6], -0.5, -1.0)
        with pytest.raises(InvalidParameter):
            fit_power_law(res, "eta", ["duration"])

    def test_rank_deficiency_detected(self):
        # two controls moved in lockstep are collinear in log space
        records = []
        times = [1e-6, 2e-6, 4e-6, 8e-6]
        for i, t in enumerate(times):
            records.append(SweepRecord(
                index=i, protocol="berry", engine="analytic",
                omega=t * 1e12, n_rotations=None, duration=t,
                adiabaticity=None, p_curve=(), eta=1.0 / t,
                max_slope=1.0, b_max=1e-3, t2g=None, t2g_residual=None,
                status="ok"))
        spec = SweepSpec(protocol="berry", times=times, b_grid=[0.0, 1e-4],
                         omegas=[W5], n_rotations=[2])
        res = SweepResult(spec=spec, records=tuple(records))
        with pytest.raises(FitFailure):
            fit_power_law(res, "eta", ["omega", "duration"])


class TestSmartControl:
    def test_baseline_row(self):
        base = GeometricModel(W5, 3)
        result = smart_control_curve(base, 8e-6, [1.0, 2.0, 4.0])
        assert result.rows[0].eta_ratio == pytest.approx(1.0)
        assert result.rows[0].b_max_ratio == pytest.approx(1.0)

    def test_sensitivity_held_and_range_grows(self):
        base = GeometricModel(W5, 3)
        result = smart_control_curve(base, 8e-6, [1, 2, 4, 8, 16, 32, 54])
        assert result.eta_held_within <= 0.10
        assert result.enhancement_factor >= 400.0
        # field range grows like k^(3/2)
        for row in result.rows:
            if row.k >= 4:
                assert row.b_max_ratio == pytest.approx(row.k**1.5, rel=0.10)

    def test_adiabaticity_violation_reported(self):
        base = GeometricModel(angular_from_mhz(2.0), 3)  # A(B=0) = 0.1875
        with pytest.raises(AdiabaticityViolation) as exc:
            smart_control_curve(base, 8e-6, [1.0, 2.0])
        assert exc.value.scale == 1.0


class TestNonadiabaticScan:
    def test_structure_and_engine_selection(self, calibrated_noise):
        rows, crossover = nonadiabatic_sensitivity_scan(
            [0.01, 0.05, 0.2], 25e-6, calibrated_noise, b_points=81)
        assert [r.engine for r in rows] == ["analytic", "analytic", "numeric"]
        assert all(r.eta_dyn == rows[0].eta_dyn for r in rows)

    def test_deep_adiabatic_scaling_is_inverse(self, calibrated_noise):
        grid = [0.01, 0.02, 0.04, 0.08]
        rows, _ = nonadiabatic_sensitivity_scan(grid, 25e-6, calibrated_noise,
                                                b_points=81)
        x = np.log([r.a_value for r in rows])
        y = np.log([r.eta_geo for r in rows])
        slope = np.polyfit(x, y, 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)

    def test_small_a_is_worse_than_reference(self, calibrated_noise):
        rows, _ = nonadiabatic_sensitivity_scan([0.01], 25e-6, calibrated_noise,
                                                b_points=81)
        assert rows[0].eta_geo > rows[0].eta_dyn


class TestRegimeScan:
    def test_labels_monotone_and_thresholds(self):
        labels = [classify_regime(a) for a in (0.05, 0.5, 2.0, 10.0)]
        assert labels == ["adiabatic", "intermediate", "nonadiabatic",
                          "strongly-nonadiabatic"]

    def test_eq3_engine_reproduces_coherence_plateaus(self, calibrated_noise):
        rows = decoherence_regime_scan([0.01, 1.0], calibrated_noise,
                                       engine="eq3")
        by_a = {r.a_value: r for r in rows}
        assert by_a[0.01].t2g == pytest.approx(500e-6, rel=0.5)
        assert by_a[1.0].t2g == pytest.approx(50e-6, rel=0.5)

    def test_intermediate_slope(self, calibrated_noise):
        grid = [0.147, 0.215, 0.316, 0.464, 0.681]
        rows = decoherence_regime_scan(grid, calibrated_noise, engine="eq3")
        x = np.log([r.a_value for r in rows])
        y = np.log([r.t2g for r in rows])
        slope = np.polyfit(x, y, 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.15)

    def test_monte_carlo_engine_agrees_roughly(self, calibrated_noise):
        rows_mc = decoherence_regime_scan([1.0], calibrated_noise,
                                          engine="monte-carlo",
                                          omega=TWO_PI * 0.2e6,
                                          ensemble=60, seed=4, t_points=8)
        assert rows_mc[0].status == "ok"
        assert rows_mc[0].t2g == pytest.approx(50e-6, rel=1.0)

    # a bath whose correlation time is comparable to the scanned times; the
    # calibrated one is quasi-static over them
    FAST = Lorentzian(delta=TWO_PI * 5e3, tau_c=20e-6)

    @pytest.mark.parametrize("bath, a_value, times", [
        ("fast", 2.0, (10e-6, 20e-6)),
        ("calibrated", 1.0, (10e-6, 30e-6)),
    ])
    def test_monte_carlo_samples_match_a_fine_mesh(
            self, calibrated_noise, bath, a_value, times):
        # each sample is the mean P of 8 runs at B = 0; the reference runs
        # the same banks through DOP853 restarted at every knot
        S = self.FAST if bath == "fast" else calibrated_noise
        omega, seed = TWO_PI * 0.5e6, 5
        got = _mc_decay_samples(S, a_value, omega, np.array(times), 8, seed,
                                NV.gamma)
        for j, (t, p) in enumerate(got):
            n_rot = max(1, int(round(a_value * omega * t / TWO_PI)))
            bank = ou_bank(S, t, min(S.tau_c / 10.0, t / 128.0), 8, (seed, j))
            ref = held_noise_ode(build_berry(omega, n_rot, t), np.zeros(8),
                                 bank, NV.gamma)
            assert p == pytest.approx(np.mean(ref), abs=1e-9)

    def test_monte_carlo_streams_are_keyed_by_seed_and_time(self,
                                                            monkeypatch):
        # time j of seed s drew from the key [s + j, 0], so time j + 1 of
        # seed 0 and time j of seed 1 drew the same normals
        keys = []
        rng = harness.noise_mod._rng

        def spy(key):
            keys.append(tuple(key))
            return rng(key)

        monkeypatch.setattr(harness.noise_mod, "_rng", spy)
        for seed in (0, 1):
            decoherence_regime_scan([0.45], self.FAST, engine="monte-carlo",
                                    ensemble=2, seed=seed, t_points=5)
        assert len(keys) == 10 and len(set(keys)) == 10
        # every A of one scan draws the same streams
        keys.clear()
        decoherence_regime_scan([0.1, 0.45], self.FAST, engine="monte-carlo",
                                ensemble=2, seed=0, t_points=5)
        assert len(keys) == 10 and keys[:5] == keys[5:]

    def test_monte_carlo_scan_mesh_stays_coarse(self, monkeypatch,
                                                calibrated_noise):
        # with a start of 64 slices per Larmor turn these scans ended on
        # meshes of 173404 (calibrated bath) and 98464 (fast bath) steps in
        # all; one rotation per knot interval must need at most a quarter
        # of that
        steps = []
        compose = core._compose

        def spy(n_slices, per_slice, pairs):
            steps.append(n_slices)
            return compose(n_slices, per_slice, pairs)

        monkeypatch.setattr(core, "_compose", spy)
        for S, before in ((calibrated_noise, 173404), (self.FAST, 98464)):
            steps.clear()
            rows = decoherence_regime_scan([0.1, 1.0, 2.0], S,
                                           engine="monte-carlo", ensemble=4,
                                           t_points=4, seed=1)
            assert [r.status for r in rows] == ["ok"] * 3
            assert len(steps) == 24
            assert sum(steps) <= before / 4

    def test_eq3_rows_carry_the_fitted_curve(self, calibrated_noise):
        rows = decoherence_regime_scan([0.5, 0.1], calibrated_noise)
        for r in rows:
            curve = _eq3_decay_curve(calibrated_noise, r.a_value)
            assert r.curve == curve
            assert r.t2g == fit_T2g(np.stack([curve.times, curve.values],
                                             axis=1))[0]
        mc = decoherence_regime_scan([1.0], calibrated_noise,
                                     engine="monte-carlo", ensemble=2,
                                     t_points=4)
        assert mc[0].curve is None

    def test_error_rows_keep_a_sampled_curve(self, calibrated_noise,
                                             monkeypatch):
        # a failed fit keeps the samples it was given; an A whose chi never
        # crosses 1 has none to keep
        def fail(samples):
            raise FitFailure("no fit")

        monkeypatch.setattr(harness.noise_mod, "fit_T2g", fail)
        rows = decoherence_regime_scan([0.1], calibrated_noise)
        assert (rows[0].status, rows[0].error) == ("error", "no fit")
        assert rows[0].curve == _eq3_decay_curve(calibrated_noise, 0.1)
        slow = Lorentzian(delta=1e-8, tau_c=1e12)
        rows = decoherence_regime_scan([0.01], slow)
        assert rows[0].status == "error" and rows[0].curve is None
        assert "does not cross 1" in rows[0].error

    def test_unknown_engine_rejected(self, calibrated_noise):
        with pytest.raises(InvalidParameter):
            decoherence_regime_scan([0.5], calibrated_noise, engine="exact")

    @pytest.mark.parametrize("a_value", [math.nan, -1.0, math.inf, 1e300])
    def test_bad_adiabaticity_rejected_before_any_row(self, calibrated_noise,
                                                      monkeypatch, a_value):
        # NaN sorted wrongly and was labelled strongly-nonadiabatic, -1
        # adiabatic; now any bad entry refuses the whole grid
        def unreached(*args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(harness, "_eq3_decay_curve", unreached)
        with pytest.raises(InvalidParameter, match="adiabaticity"):
            decoherence_regime_scan([0.1, a_value, 0.5], calibrated_noise)

    def test_unreachable_decay_time_is_a_row_error(self, calibrated_noise):
        # chi never reaches 1 for a near-silent bath, and exceeds 1 at every
        # sampled time for a huge A: both rows fail, the scan goes on
        rows = decoherence_regime_scan([0.1], White(1e-30))
        assert rows[0].status == "error" and "does not cross 1" in rows[0].error
        rows = decoherence_regime_scan([1.0, 1e100], calibrated_noise)
        assert [r.status for r in rows] == ["ok", "error"]

    @pytest.mark.parametrize("ensemble", [0, -2, 2**31])
    def test_empty_ensemble_rejected_before_the_loop(self, calibrated_noise,
                                                     monkeypatch, ensemble):
        import phasemag.harness as harness

        def no_grid(*args, **kwargs):
            raise AssertionError("decay grid built for an invalid request")

        monkeypatch.setattr(harness, "_auto_decay_grid", no_grid)
        with pytest.raises(InvalidParameter, match="ensemble"):
            decoherence_regime_scan([0.1, 0.5], calibrated_noise,
                                    engine="monte-carlo", ensemble=ensemble)


class TestAdiabaticityHelper:
    def test_nonadiabatic_scan_realizes_targets_exactly(self, calibrated_noise):
        rows, _ = nonadiabatic_sensitivity_scan([0.3], 25e-6, calibrated_noise,
                                                b_points=41)
        r = rows[0]
        assert adiabaticity(r.omega, r.n_rotations, 25e-6, 0.0) \
            == pytest.approx(0.3, rel=1e-12)

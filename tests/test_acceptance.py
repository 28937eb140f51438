"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Criteria 1, 2 and the two clauses of criterion 9 are asserted at their stated
tolerances and fail honestly: the underlying deviations are intrinsic
second-order nonadiabatic physics of the alternating-sweep protocol at the
pinned control parameters (see the assertion messages, which carry the
measured values).
"""

import math
import time

import numpy as np
from scipy import optimize

from phasemag import analytic, core, harness, sequences
from phasemag.analytic import (DynamicModel, GeometricModel, HyperfineModel,
                               adiabaticity, berry_field_range, berry_signal,
                               berry_slope, hyperfine_average,
                               ramsey_field_range)
from phasemag.constants import NV, TWO_PI, angular_from_mhz
from phasemag.core import (DriveParams, SpinState,
                           propagate_constant, propagate_swept_report)
from phasemag.errors import ConvergenceFailure
from phasemag.estimate import (Measurement, estimate_dynamic,
                               estimate_geometric, measure_geometric)
from phasemag.harness import SweepSpec, fit_power_law, run_sweep
from phasemag.noise import (FilterFunctionKind, decoherence_function,
                            echo_exponent, filter_function,
                            mc_free_precession_decay, ramsey_exponent)

from conftest import T2_ECHO, T2_STAR

W5 = angular_from_mhz(5.0)


def report(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


class TestAcceptance:
    def test_01_adiabatic_equivalence(self):
        model = GeometricModel(W5, 3)
        plan = sequences.build_berry(W5, 3, 8e-6)
        b_grid = np.linspace(0.0, 1.5 * berry_field_range(model), 200)
        start = time.monotonic()
        p_num = sequences.execute_batch(plan, b_grid)
        elapsed = time.monotonic() - start
        dev = float(np.max(np.abs(p_num - berry_signal(model, b_grid))))
        ok = dev <= 0.01 and elapsed < 30.0
        report(1, ok,
               f"numeric vs chirp formula at (5 MHz, N=3, T=8 us): "
               f"max|dP| = {dev:.4f} (required <= 0.01; exact zero-field "
               f"adiabaticity here is {adiabaticity(W5, 3, 8e-6, 0.0):.3f} and "
               f"the attainable deviation scales as ~23*A^2), "
               f"runtime {elapsed:.1f} s (< 30 s)")

    def test_02_duration_independence(self):
        model = GeometricModel(W5, 3)
        b_grid = np.linspace(0.0, 1.5 * berry_field_range(model), 200)
        curves = {}
        for t in (4e-6, 6e-6, 8e-6):
            plan = sequences.build_berry(W5, 3, t)
            curves[t] = sequences.execute_batch(plan, b_grid)
        worst = 0.0
        for i, ti in enumerate(curves):
            for tj in list(curves)[i + 1:]:
                worst = max(worst, float(np.max(np.abs(curves[ti] - curves[tj]))))
        ok = worst <= 0.02
        report(2, ok,
               f"pairwise curve agreement for T in (4, 6, 8) us: "
               f"max|dP| = {worst:.3f} (required <= 0.02; exact adiabaticity "
               f"spans 0.075-0.15 over these durations)")

    def test_03_ramsey_scaling(self):
        times = list(np.linspace(0.2e-6, 2.0e-6, 7))
        b_hi = TWO_PI / (NV.gamma * min(times))
        spec = SweepSpec(protocol="ramsey", times=times,
                         b_grid=list(np.linspace(0.0, b_hi, 101)))
        result = run_sweep(spec)
        eta_exp = fit_power_law(result, "eta", ["duration"]).exponents["duration"]
        bmax_exp = fit_power_law(result, "b_max", ["duration"]).exponents["duration"]
        ok = abs(eta_exp + 0.5) <= 0.05 and abs(bmax_exp + 1.0) <= 0.02
        report(3, ok,
               f"free-precession exponents over T in [0.2, 2.0] us: "
               f"eta ~ T^{eta_exp:.3f} (want -0.50 +/- 0.05), "
               f"B_max ~ T^{bmax_exp:.3f} (want -1.00 +/- 0.02)")

    def test_04_berry_scaling(self):
        omegas = [angular_from_mhz(f) for f in (2.0, 3.0, 4.5, 7.0, 10.0)]
        n_rot = [3, 4, 6, 8]
        times = [4e-6, 6e-6, 9e-6, 12e-6, 16e-6]
        b_hi = 1.05 * berry_field_range(GeometricModel(omegas[-1], n_rot[-1]))
        spec = SweepSpec(protocol="berry", times=times, omegas=omegas,
                         n_rotations=n_rot,
                         b_grid=list(np.linspace(0.0, b_hi, 41)))
        result = run_sweep(spec)
        controls = ["omega", "n_rotations", "duration"]
        eta = fit_power_law(result, "eta", controls).exponents
        bmax = fit_power_law(result, "b_max", controls).exponents
        checks = [
            abs(eta["omega"] - 1.0) <= 0.3,
            abs(eta["n_rotations"] + 1.0) <= 0.1,
            abs(eta["duration"] - 0.5) <= 0.05,
            abs(bmax["omega"] - 1.0) <= 0.1,
            abs(bmax["n_rotations"] - 0.5) <= 0.05,
            abs(bmax["duration"]) <= 0.02,
        ]
        report(4, all(checks),
               f"swept-drive exponents: eta ~ "
               f"O^{eta['omega']:.3f} N^{eta['n_rotations']:.3f} "
               f"T^{eta['duration']:.3f} (want +1/-1/+0.5 within 0.3/0.1/0.05); "
               f"B_max ~ O^{bmax['omega']:.3f} N^{bmax['n_rotations']:.3f} "
               f"T^{bmax['duration']:.3f} (want +1/+0.5/0 within 0.1/0.05/0.02)")

    def test_05_decoupling_demonstration(self):
        base = GeometricModel(W5, 3)
        result = harness.smart_control_curve(base, 8e-6,
                                             [1, 2, 4, 8, 16, 32, 54])
        ok = (result.eta_held_within <= 0.10
              and result.enhancement_factor >= 400.0)
        report(5, ok,
               f"co-scaled controls up to k=54: field-range enhancement "
               f"{result.enhancement_factor:.0f}x (want >= 400) with "
               f"sensitivity held within {100 * result.eta_held_within:.1f}% "
               f"(want <= 10%)")

    def test_06_ambiguity_resolution(self):
        model = GeometricModel(W5, 3)
        b_max = berry_field_range(model)
        rng = np.random.default_rng(123)
        lobe_errors = 0
        for _ in range(500):
            b_true = rng.uniform(0.01, 0.95) * b_max
            est = estimate_geometric(model, measure_geometric(model, b_true))
            if abs(est.b_hat - b_true) > 1e-6 * b_true:
                lobe_errors += 1
        dyn = DynamicModel(1e-6)
        fringe = ramsey_field_range(dyn)
        ladder = estimate_dynamic(dyn, Measurement(p=0.4, slope=None),
                                  (0.0, 5 * fringe))
        ok = lobe_errors == 0 and len(ladder) >= 9
        report(6, ok,
               f"geometric estimator: {lobe_errors}/500 lobe errors "
               f"(want 0); dynamic ladder over 5 fringes: {len(ladder)} "
               f"candidates (want >= 9)")

    def test_07_decoherence_regimes(self, calibrated_noise):
        a_grid = [0.01, 0.0215, 0.0464, 0.1, 0.147, 0.215, 0.316, 0.464,
                  0.681, 1.0, 1.47, 2.0]
        start = time.monotonic()
        rows = harness.decoherence_regime_scan(a_grid, calibrated_noise,
                                               engine="eq3")
        elapsed = time.monotonic() - start
        by_a = {r.a_value: r for r in rows}
        t2g_low = by_a[0.01].t2g
        t2g_one = by_a[1.0].t2g
        mid = [r for r in rows if 0.1 < r.a_value < 1.0]
        slope = np.polyfit(np.log([r.a_value for r in mid]),
                           np.log([r.t2g for r in mid]), 1)[0]
        checks = [
            1.0 / 1.5 <= t2g_low / T2_ECHO <= 1.5,
            abs(slope + 1.0) <= 0.15,
            1.0 / 1.5 <= t2g_one / T2_STAR <= 1.5,
            elapsed < 120.0,
        ]
        report(7, all(checks),
               f"coherence-time regimes: T2g(A=0.01) = {t2g_low * 1e6:.0f} us "
               f"(want within 1.5x of 500), mid-regime slope {slope:.2f} "
               f"(want -1 +/- 0.15), T2g(A=1) = {t2g_one * 1e6:.1f} us "
               f"(want within 1.5x of 50), runtime {elapsed:.1f} s (< 120)")

    def test_08_oracle_cross_validation(self, calibrated_noise):
        ts_r = np.linspace(2e-6, 2 * T2_STAR, 24)
        w_mc_r = mc_free_precession_decay(calibrated_noise, ts_r, 2000, seed=31)
        w_pred_r = np.array([math.exp(-ramsey_exponent(calibrated_noise, t))
                             for t in ts_r])
        dev_r = float(np.max(np.abs(w_mc_r - w_pred_r)))
        ts_e = np.linspace(1e-5, T2_ECHO, 24)
        w_mc_e = mc_free_precession_decay(calibrated_noise, ts_e, 2000,
                                          seed=32, echo=True)
        w_pred_e = np.array([math.exp(-echo_exponent(calibrated_noise, t))
                             for t in ts_e])
        dev_e = float(np.max(np.abs(w_mc_e - w_pred_e)))
        ok = dev_r <= 0.10 and dev_e <= 0.10
        report(8, ok,
               f"2000-trajectory Monte Carlo vs filter predictions: "
               f"free precession max|dW| = {dev_r:.3f}, echo max|dW| = "
               f"{dev_e:.3f} (both want <= 0.10)")

    def test_09_nonadiabatic_crossover(self, calibrated_noise):
        a_grid = [0.01, 0.02, 0.05, 0.1, 0.147, 0.215, 0.316, 0.464, 0.5,
                  0.681, 1.0, 1.47, 2.0]
        rows, crossover = harness.nonadiabatic_sensitivity_scan(
            a_grid, T2_STAR / 2.0, calibrated_noise)
        in_window = [r for r in rows if 0.5 <= r.a_value <= 2.0]
        crossed = any(r.eta_geo < r.eta_dyn for r in in_window)
        best_ratio = min(r.eta_geo / r.eta_dyn for r in rows)
        mid = [r for r in rows if 0.1 < r.a_value < 1.0]
        exponent = np.polyfit(np.log([r.a_value for r in mid]),
                              np.log([r.eta_geo for r in mid]), 1)[0]
        ok = crossed and abs(exponent + 1.0) <= 0.3
        report(9, ok,
               f"simulated geometric-vs-reference sensitivity at T = T2*/2: "
               f"crossover in A [0.5, 2.0]: {crossed} (best ratio "
               f"{best_ratio:.2f}; the slope bound gamma*T plus the A^2 "
               f"dephasing prefactor keeps the ratio above ~1 at equal "
               f"contrast), mid-regime exponent {exponent:.2f} "
               f"(want -1 +/- 0.3; simulated slope degradation adds ~+1.6*A)")

    def test_10_hyperfine_beating(self):
        delta = NV.hyperfine_splitting
        t_root = optimize.brentq(lambda t: 1 + 2 * math.cos(delta * t),
                                 1e-9, math.pi / delta)
        h = HyperfineModel.triplet()
        base = lambda off, t: np.cos(off * t)
        ts = np.linspace(1e-9, 0.5e-6, 20000)
        vals = hyperfine_average(base, h, ts)
        crossings = np.where(np.diff(np.sign(vals)) != 0)[0]
        first = 0.5 * (ts[crossings[0]] + ts[crossings[0] + 1])
        rel = abs(first - t_root) / t_root
        ok = rel <= 0.05
        report(10, ok,
               f"triplet-averaged time scan: first envelope null at "
               f"{first * 1e6:.4f} us vs root {t_root * 1e6:.4f} us "
               f"(relative offset {rel:.2e}, want <= 5%)")

    def test_11_property_suites(self, calibrated_noise, monkeypatch):
        rng = np.random.default_rng(77)
        failures = []

        # propagator norm conservation and composition
        for _ in range(100):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            s = SpinState.from_array(v)
            d = DriveParams(rabi=rng.uniform(0, 1e7),
                            phase=rng.uniform(-math.pi, math.pi),
                            detuning=rng.standard_normal() * 1e7)
            t1, t2 = rng.uniform(0, 2e-6, size=2)
            out = propagate_constant(s, d, t1)
            if abs(out.norm() - s.norm()) > 1e-10:
                failures.append("norm")
            a = propagate_constant(out, d, t2).as_array()
            b = propagate_constant(s, d, t1 + t2).as_array()
            if np.max(np.abs(a - b)) > 1e-10:
                failures.append("composition")

        # convergence: Richardson error history decreases over 5 halvings
        monkeypatch.setattr(core, "_MAX_DEPTH", 5)
        try:
            propagate_swept_report(SpinState(0, -1, 0), W5, lambda t: 5e6 * t,
                                   lambda t: 0.0, 4e-6, 1e-16)
            failures.append("convergence-did-not-exhaust")
        except ConvergenceFailure as exc:
            errs = exc.error_history
            if not all(b2 < a2 for a2, b2 in zip(errs, errs[1:])):
                failures.append("convergence")

        # filter identities
        x = rng.uniform(0, 1e3, 1_000_000)
        if not np.allclose(filter_function(FilterFunctionKind.GEOMETRIC_F0, x),
                           1 - np.cos(x), atol=1e-9):
            failures.append("filter-f0")
        if not np.allclose(filter_function(FilterFunctionKind.DYNAMIC_F1, x),
                           3 - 4 * np.cos(x / 2) + np.cos(x), atol=1e-9):
            failures.append("filter-f1")

        # exact quadratic prefactor of the dephasing exponent
        t = 6e-5
        chi0 = decoherence_function(calibrated_noise, 0.0, t).total
        chi1 = decoherence_function(calibrated_noise, 1.0, t).total
        for a_val in (0.25, 1.7):
            lhs = decoherence_function(calibrated_noise, a_val, t).total - chi0
            if not math.isclose(lhs, a_val**2 * (chi1 - chi0), rel_tol=1e-12):
                failures.append("chi-affinity")

        # estimator injectivity: signal monotone within each lobe
        model = GeometricModel(W5, 3)
        b = np.linspace(0.0, berry_field_range(model), 10001)[1:]
        args = analytic.berry_phase_argument(model, b)
        lobes = np.floor((4 * math.pi * 3 - args) / math.pi).astype(int)
        p = berry_signal(model, b)
        slopes = berry_slope(model, b)
        scale = 4 * math.pi * 3 * NV.gamma / model.rabi
        for lobe in np.unique(lobes):
            mask = (lobes == lobe) & (np.abs(slopes) > 1e-6 * scale)
            vals = p[mask]
            if len(vals) >= 3:
                d = np.diff(vals)
                if not (np.all(d > 0) or np.all(d < 0)):
                    failures.append(f"injectivity-lobe-{lobe}")

        ok = not failures
        report(11, ok,
               "property suites (norm, composition, convergence, filter "
               "identities, quadratic prefactor, injectivity): "
               + ("all green" if ok else f"failed: {sorted(set(failures))}"))


class TestRedCriterionValues:
    """The values criteria 1, 2 and 9 print, pinned at their printed precision.

    Those criteria stay red on purpose (module docstring), so their own
    tests cannot tell a changed value from an unchanged one.  A change that
    moves one of these numbers, in either direction, fails here.
    """

    def test_01_max_deviation(self):
        model = GeometricModel(W5, 3)
        b_grid = np.linspace(0.0, 1.5 * berry_field_range(model), 200)
        p_num = sequences.execute_batch(sequences.build_berry(W5, 3, 8e-6), b_grid)
        dev = float(np.max(np.abs(p_num - berry_signal(model, b_grid))))
        assert f"{dev:.4f}" == "0.1296"

    def test_02_pairwise_deviation(self):
        model = GeometricModel(W5, 3)
        b_grid = np.linspace(0.0, 1.5 * berry_field_range(model), 200)
        curves = [sequences.execute_batch(sequences.build_berry(W5, 3, t), b_grid)
                  for t in (4e-6, 6e-6, 8e-6)]
        worst = max(float(np.max(np.abs(a - b)))
                    for i, a in enumerate(curves) for b in curves[i + 1:])
        assert f"{worst:.3f}" == "0.352"

    def test_09_ratio_and_exponent(self, calibrated_noise):
        a_grid = [0.01, 0.02, 0.05, 0.1, 0.147, 0.215, 0.316, 0.464, 0.5,
                  0.681, 1.0, 1.47, 2.0]
        rows, _ = harness.nonadiabatic_sensitivity_scan(
            a_grid, T2_STAR / 2.0, calibrated_noise)
        assert not any(r.eta_geo < r.eta_dyn for r in rows if 0.5 <= r.a_value <= 2.0)
        best_ratio = min(r.eta_geo / r.eta_dyn for r in rows)
        mid = [r for r in rows if 0.1 < r.a_value < 1.0]
        exponent = np.polyfit(np.log([r.a_value for r in mid]),
                              np.log([r.eta_geo for r in mid]), 1)[0]
        assert f"{best_ratio:.2f}" == "1.81"
        assert f"{exponent:.2f}" == "-0.31"

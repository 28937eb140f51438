"""Propagator unit tests: rotations, convergence, invariants."""

import math

import numpy as np
import pytest

from phasemag import core
from phasemag.constants import NV, TWO_PI, angular_from_mhz
from phasemag.core import (DriveParams, SpinState, StepControl,
                           apply_ideal_pulse, apply_resonant_pulse,
                           larmor_from_drive, propagate_constant,
                           propagate_swept, propagate_swept_report,
                           _compose_swept)
from phasemag.errors import ConvergenceFailure, InvalidParameter

from conftest import swept_exact


class TestLarmorFromDrive:
    def test_pure_z_field(self):
        lv = larmor_from_drive(DriveParams(rabi=0.0, phase=0.0, detuning=7.5))
        assert lv.magnitude == 7.5
        assert lv.polar_angle == 0.0

    def test_equatorial_drive(self):
        lv = larmor_from_drive(DriveParams(rabi=4.2, phase=1.1, detuning=0.0))
        assert lv.magnitude == 4.2
        assert lv.polar_angle == pytest.approx(math.pi / 2)
        assert lv.azimuth == 1.1

    def test_equal_components_give_45_degrees(self):
        w = angular_from_mhz(5.0)
        lv = larmor_from_drive(DriveParams(rabi=w, phase=0.0, detuning=w))
        assert lv.magnitude == pytest.approx(angular_from_mhz(math.sqrt(50.0)))
        assert lv.polar_angle == pytest.approx(math.pi / 4)

    def test_degenerate_zero(self):
        lv = larmor_from_drive(DriveParams(rabi=0.0, phase=0.3, detuning=0.0))
        assert lv.magnitude == 0.0
        assert lv.polar_angle == 0.0


class TestPropagateConstant:
    def test_resonant_pi_pulse_inverts(self):
        w = angular_from_mhz(5.0)
        out = propagate_constant(SpinState.up(),
                                 DriveParams(rabi=w, phase=0.0, detuning=0.0),
                                 math.pi / w)
        assert out.s_z == pytest.approx(-1.0, abs=1e-12)

    def test_free_precession_sense(self):
        # positive detuning moves +x toward +y
        phi = 1.2345
        out = propagate_constant(SpinState(1, 0, 0),
                                 DriveParams(rabi=0.0, phase=0.0, detuning=phi),
                                 1.0)
        assert out.s_x == pytest.approx(math.cos(phi))
        assert out.s_y == pytest.approx(math.sin(phi))

    def test_zero_duration_is_identity(self):
        s = SpinState(0.3, -0.4, 0.5)
        out = propagate_constant(s, DriveParams(2.0, 0.7, -1.0), 0.0)
        assert out == s

    def test_norm_conserved(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            s = SpinState.from_array(v)
            d = DriveParams(rabi=abs(rng.standard_normal()) * 1e7,
                            phase=rng.uniform(-math.pi, math.pi),
                            detuning=rng.standard_normal() * 1e7)
            out = propagate_constant(s, d, rng.uniform(0, 1e-5))
            assert abs(out.norm() - s.norm()) <= 1e-10

    def test_composition(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            s = SpinState.from_array(v)
            d = DriveParams(rabi=rng.uniform(0, 1e7),
                            phase=rng.uniform(-math.pi, math.pi),
                            detuning=rng.standard_normal() * 1e7)
            t1, t2 = rng.uniform(0, 2e-6, size=2)
            a = propagate_constant(propagate_constant(s, d, t1), d, t2)
            b = propagate_constant(s, d, t1 + t2)
            assert np.allclose(a.as_array(), b.as_array(), atol=1e-10)

    def test_time_reversal_by_negative_duration(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            s = SpinState.from_array(v)
            d = DriveParams(rabi=rng.uniform(0, 1e7),
                            phase=rng.uniform(-math.pi, math.pi),
                            detuning=rng.standard_normal() * 1e7)
            t = rng.uniform(0, 1e-6)
            back = propagate_constant(propagate_constant(s, d, t), d, -t)
            assert np.allclose(back.as_array(), s.as_array(), atol=1e-9)


class TestIdealPulses:
    def test_half_turn_prepares_superposition(self):
        out = apply_ideal_pulse(SpinState.up(), 0.0, math.pi / 2)
        assert np.allclose(out.as_array(), [0, -1, 0], atol=1e-12)

    def test_full_turn_is_identity(self):
        s = SpinState(0.1, 0.2, 0.9)
        out = apply_ideal_pulse(s, 0.4, TWO_PI)
        assert np.allclose(out.as_array(), s.as_array(), atol=1e-12)

    def test_pi_pulse_inverts_population(self):
        out = apply_ideal_pulse(SpinState.up(), 0.0, math.pi)
        assert out.s_z == pytest.approx(-1.0, abs=1e-12)

    def test_finite_duration_pulse_matches_ideal_on_resonance(self):
        w = angular_from_mhz(10.0)
        a = apply_ideal_pulse(SpinState.up(), 0.3, math.pi / 2)
        b = apply_resonant_pulse(SpinState.up(), w, 0.3, math.pi / 2)
        assert np.allclose(a.as_array(), b.as_array(), atol=1e-9)


class TestPropagateSwept:
    def test_constant_functions_reduce_to_constant_case(self):
        w = angular_from_mhz(3.0)
        det = angular_from_mhz(1.0)
        s = SpinState(0, -1, 0)
        a = propagate_swept(s, w, lambda t: 0.7, lambda t: det, 2e-6)
        b = propagate_constant(s, DriveParams(w, 0.7, det), 2e-6)
        assert np.allclose(a.as_array(), b.as_array(), atol=1e-6)

    def test_zero_rabi_is_free_precession_for_any_phase(self):
        det = angular_from_mhz(0.8)
        s = SpinState(1, 0, 0)
        out = propagate_swept(s, 0.0, lambda t: 1e9 * t**2, lambda t: det, 1e-6)
        ref = propagate_constant(s, DriveParams(0.0, 0.0, det), 1e-6)
        assert np.allclose(out.as_array(), ref.as_array(), atol=1e-6)

    def test_matches_rotating_frame_closed_form(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            rabi = rng.uniform(1e5, 1e7)
            det = rng.standard_normal() * 1e6
            rho0 = rng.uniform(-math.pi, math.pi)
            rate = rng.standard_normal() * 1e6
            dur = rng.uniform(1e-7, 5e-6)
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            out = propagate_swept(SpinState.from_array(v), rabi,
                                  lambda t: rho0 + rate * t, lambda t: det, dur)
            ref = swept_exact(v, rabi, det, rho0, rate, dur)
            assert np.allclose(out.as_array(), ref, atol=5e-6)

    def test_adiabatic_turn_preserves_signal_component(self):
        # one full alternating sequence at slow sweep: deviation from the
        # chirp formula at zero field stays below 1e-3
        w = angular_from_mhz(5.0)
        n_rot = 3
        duration = 60e-6  # 2*pi*N/(w*A) with A = 0.01
        rate = 4 * math.pi * n_rot / duration
        s = apply_ideal_pulse(SpinState.up(), 0.0, math.pi / 2)
        s = propagate_swept(s, w, lambda t: rate * t, lambda t: 0.0, duration / 2)
        s = apply_ideal_pulse(s, math.pi / 2, math.pi)
        s = propagate_swept(s, w, lambda t: TWO_PI * n_rot - rate * t,
                            lambda t: 0.0, duration / 2)
        s = apply_ideal_pulse(s, math.pi, math.pi / 2)
        assert abs(s.s_z - 1.0) <= 1e-3

    def test_refinement_errors_decrease(self):
        # drive refinement to exhaustion and inspect the recorded sequence
        w = angular_from_mhz(2.0)
        with pytest.raises(ConvergenceFailure) as exc:
            propagate_swept_report(
                SpinState(0, -1, 0), w, lambda t: 3e6 * t,
                lambda t: 1e6 * np.cos(2e6 * t), 4e-6,
                StepControl(tol=1e-16, max_depth=6))
        errs = exc.value.error_history
        assert len(errs) >= 4
        assert all(b < a for a, b in zip(errs, errs[1:]))
        # first order or better: halving at least halves the error
        assert all(b <= 0.6 * a for a, b in zip(errs, errs[1:]))

    def test_refinement_converges_at_default_tolerance(self):
        w = angular_from_mhz(2.0)
        _, report = propagate_swept_report(
            SpinState(0, -1, 0), w, lambda t: 3e6 * t,
            lambda t: 1e6 * np.cos(2e6 * t), 4e-6)
        assert report.converged
        assert report.error_history[-1] <= 1e-6

    def test_convergence_failure_carries_history(self):
        w = angular_from_mhz(2.0)
        with pytest.raises(ConvergenceFailure) as exc:
            propagate_swept(SpinState(0, -1, 0), w, lambda t: 3e6 * t,
                            lambda t: 0.0, 4e-6,
                            StepControl(tol=1e-18, max_depth=2))
        assert len(exc.value.error_history) >= 1

    @staticmethod
    def _fixed_mesh_errors():
        w = angular_from_mhz(2.0)
        v = np.array([0.0, -1.0, 0.0])
        ref = _compose_swept(v, w, lambda t: 5e6 * t, lambda t: 3e5, 4e-6,
                             1 << 14)
        errs = []
        for n in (128, 256, 512, 1024):
            out = _compose_swept(v, w, lambda t: 5e6 * t, lambda t: 3e5, 4e-6,
                                 n)
            errs.append(np.max(np.abs(out - ref)))
        return [b / a for a, b in zip(errs, errs[1:])]

    def test_fixed_mesh_error_scaling(self):
        # the lab-frame step is the 4th-order commutator-free Magnus step:
        # the error drops 16x per halving (ratio 0.0625 measured)
        for ratio in self._fixed_mesh_errors():
            assert ratio <= 0.1

    def test_knot_mesh_step_is_fourth_order(self):
        # the noisy co-rotating mesh takes one Magnus rotation per slice of
        # a piecewise-linear R = (rabi, 0, w): without its commutator term
        # the step would be the 2nd-order midpoint rule (ratio 0.25); with
        # it the error drops 16x per halving (0.0625 measured)
        w = angular_from_mhz(2.0)
        lengths = np.full(8, 0.5e-6)
        dets = np.random.default_rng(5).uniform(-3e6, 3e6, (9, 1))
        v = np.array([[0.0, -1.0, 0.0]])
        ref = core._compose_knots(v, w, lengths, dets, 12)
        errs = [np.max(np.abs(core._compose_knots(v, w, lengths, dets, d) - ref))
                for d in (2, 3, 4, 5)]
        for a, b in zip(errs, errs[1:]):
            assert b / a <= 0.1

    # the four quadratic-ramp cells of the signal_numeric benchmark
    # (Omega/2pi in MHz, T in us, phase turns, chirp fraction, B in mT) with
    # the mesh steps the midpoint step needed for them at tol 1e-6
    QUADRATIC_RAMPS = [((2.0, 2.0, 1, 0.3, 0.05), 40064),
                       ((3.0, 4.0, 2, 0.4, 0.1), 134528),
                       ((5.0, 3.0, 1, 0.5, 0.15), 80256),
                       ((4.0, 6.0, 2, 0.2, 0.2), 169152)]

    @pytest.mark.parametrize("cell, midpoint_steps", QUADRATIC_RAMPS,
                             ids=["2MHz", "3MHz", "5MHz", "4MHz"])
    def test_quadratic_ramp_matches_ode_on_few_steps(self, cell,
                                                     midpoint_steps):
        from scipy.integrate import solve_ivp

        om_mhz, t_us, turns, chirp_frac, b_mt = cell
        omega = angular_from_mhz(om_mhz)
        duration = t_us * 1e-6
        rate = 4.0 * math.pi * turns / duration
        chirp = chirp_frac * rate / duration
        det = NV.gamma * b_mt * 1e-3
        v = np.array([0.48, -0.6, 0.64])

        def phase(t):
            return 0.7 + rate * t + chirp * t * t

        def rhs(t, s):
            r = np.array([omega * math.cos(phase(t)),
                          omega * math.sin(phase(t)), det])
            return np.cross(r, s)

        out, report = propagate_swept_report(
            SpinState.from_array(v), omega, phase,
            lambda t: det + 0.0 * np.asarray(t), duration)
        ref = solve_ivp(rhs, (0.0, duration), v, method="DOP853",
                        rtol=1e-12, atol=1e-12).y[:, -1]
        assert np.max(np.abs(out.as_array() - ref)) <= 1e-6
        assert report.converged and len(report.error_history) <= 2
        assert report.steps <= midpoint_steps / 8

    @pytest.mark.parametrize("noisy", [False, True])
    def test_mesh_is_sampled_block_by_block(self, monkeypatch, noisy):
        # a fine mesh must never sample and rotate the whole mesh at once,
        # neither the lab-frame mesh of one state nor the knot mesh of a
        # batch (the noisy sweeps); splitting it into more blocks leaves
        # the result unchanged
        sizes = []
        rotate = core._rotation_matrices

        def spy(*args):
            sizes.append(np.broadcast(*args).size)
            return rotate(*args)

        monkeypatch.setattr(core, "_rotation_matrices", spy)
        if noisy:
            m = 64
            dets = np.linspace(-2e6, 2e6, m)
            states = np.tile([0.0, -1.0, 0.0], (m, 1))
            knots = np.linspace(0.0, 5e-6, 101)
            edge_dets = dets[None, :] + 1e5 * np.sin(3e5 * knots)[:, None]

            def run():
                # 100 intervals of 64 slices, 64 channels: 409600 rotations
                return core._compose_knots(states, 3e6, np.diff(knots),
                                           edge_dets, 6)
        else:
            def run():
                # 200000 slices of two rotations each
                return _compose_swept(np.array([0.0, -1.0, 0.0]), 3e6,
                                      lambda t: 0.0,
                                      lambda t: 2e6 + 1e5 * np.sin(3e5 * t),
                                      5e-6, 200000)
        out = run()
        assert len(sizes) > 1
        assert max(sizes) <= core._BLOCK
        monkeypatch.setattr(core, "_BLOCK", core._BLOCK // 8)
        assert np.allclose(run(), out, rtol=0, atol=1e-12)

    def test_time_function_of_another_shape_rejected(self):
        # one value per time or a scalar; a batch of detunings per time is
        # not retried time by time
        with pytest.raises(InvalidParameter, match="one value per time"):
            propagate_swept(SpinState.up(), 1e6, lambda t: 0.0,
                            lambda t: np.zeros((np.size(t), 2)), 1e-6)

    def test_negative_duration_rejected(self):
        with pytest.raises(InvalidParameter):
            propagate_swept(SpinState.up(), 1.0, lambda t: 0.0,
                            lambda t: 0.0, -1.0)

    def test_error_in_user_function_propagates(self):
        # a detuning that fails on arrays must not be retried time by time
        def detuning(t):
            if np.ndim(t):
                raise ValueError("scalar times only")
            return 1e6

        with pytest.raises(ValueError, match="scalar times only"):
            propagate_swept(SpinState.up(), 1e6, lambda t: 0.0, detuning, 1e-6)


class TestSpinStateValidation:
    def test_norm_above_one_rejected(self):
        with pytest.raises(InvalidParameter):
            SpinState(1.0, 1.0, 1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidParameter):
            SpinState(math.nan, 0.0, 0.0)

    def test_drive_params_validation(self):
        with pytest.raises(InvalidParameter):
            DriveParams(rabi=-1.0, phase=0.0, detuning=0.0)
        with pytest.raises(InvalidParameter):
            DriveParams(rabi=1.0, phase=math.inf, detuning=0.0)

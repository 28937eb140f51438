"""Sequence construction and execution tests."""

import math

import numpy as np
import pytest

from phasemag import analytic, core
from phasemag.analytic import GeometricModel, berry_field_range
from phasemag.constants import NV, TWO_PI, angular_from_mhz
from phasemag.core import SpinState, StepControl
from phasemag.errors import ConvergenceFailure, InvalidParameter
from phasemag.noise import ou_trajectory
from phasemag.sequences import (READOUT_PHASE, FreeEvolution, IdealPulse,
                                SequencePlan, SweptDrive, _apply_swept_exact,
                                build_berry, build_hahn, build_ramsey, execute,
                                execute_batch)

W5 = angular_from_mhz(5.0)


class TestConstruction:
    def test_ramsey_structure(self):
        plan = build_ramsey(1e-6)
        assert plan.label == "ramsey"
        kinds = [type(s) for s in plan.segments]
        assert kinds == [IdealPulse, FreeEvolution, IdealPulse]
        assert plan.segments[1].duration == 1e-6
        assert plan.duration == 1e-6

    def test_hahn_structure(self):
        plan = build_hahn(2e-6)
        kinds = [type(s) for s in plan.segments]
        assert kinds == [IdealPulse, FreeEvolution, IdealPulse, FreeEvolution,
                         IdealPulse]
        assert plan.segments[1].duration == 1e-6
        assert plan.segments[2].angle == pytest.approx(math.pi)

    def test_berry_structure(self):
        plan = build_berry(W5, 3, 8e-6)
        kinds = [type(s) for s in plan.segments]
        assert kinds == [IdealPulse, SweptDrive, IdealPulse, SweptDrive,
                         IdealPulse]
        first, second = plan.segments[1], plan.segments[3]
        assert first.duration == second.duration == 4e-6
        assert first.phase_rate == pytest.approx(12 * math.pi / 8e-6)
        assert second.phase_rate == pytest.approx(-first.phase_rate)
        # phase continuity at the midpoint: second sweep starts where the
        # first one ended (2*pi*N)
        assert second.phase_start == pytest.approx(
            first.phase_start + first.phase_rate * first.duration)

    def test_invalid_parameters(self):
        for bad in (0.0, -1e-6):
            with pytest.raises(InvalidParameter):
                build_ramsey(bad)
            with pytest.raises(InvalidParameter):
                build_hahn(bad)
        with pytest.raises(InvalidParameter):
            build_berry(0.0, 3, 1e-6)
        with pytest.raises(InvalidParameter):
            build_berry(W5, 0, 1e-6)
        with pytest.raises(InvalidParameter):
            build_berry(W5, 2.5, 1e-6)

    def test_plan_duration_consistency_enforced(self):
        with pytest.raises(InvalidParameter):
            SequencePlan(segments=(FreeEvolution(1e-6),), label="bad",
                         duration=2e-6)


class TestRamseyExecution:
    def test_zero_field_gives_unity(self):
        assert execute(build_ramsey(1e-6), 0.0) == pytest.approx(1.0)

    def test_half_period(self):
        t = 1e-6
        b = math.pi / (NV.gamma * t)
        assert execute(build_ramsey(t), b) == pytest.approx(-1.0, abs=1e-12)

    def test_full_fringe(self):
        t = 1e-6
        b = TWO_PI / (NV.gamma * t)
        assert execute(build_ramsey(t), b) == pytest.approx(1.0, abs=1e-12)

    def test_matches_cosine_model(self):
        t = 0.7e-6
        plan = build_ramsey(t)
        bs = np.linspace(0, 1e-4, 40)
        got = execute_batch(plan, bs)
        assert np.allclose(got, np.cos(NV.gamma * bs * t), atol=1e-12)

    def test_periodicity(self):
        t = 1e-6
        plan = build_ramsey(t)
        fringe = TWO_PI / (NV.gamma * t)
        bs = np.linspace(0, fringe, 17)
        assert np.allclose(execute_batch(plan, bs),
                           execute_batch(plan, bs + fringe), atol=1e-9)


class TestHahnExecution:
    def test_static_fields_refocus(self):
        plan = build_hahn(2e-6)
        for b in (0.0, 1e-5, 3.3e-4, 2e-3):
            assert abs(execute(plan, b) - 1.0) <= 1e-6

    def test_vanishing_duration_limit(self):
        # T -> 0 leaves the echo signal at unity
        assert execute(build_hahn(1e-12), 5e-4) == pytest.approx(1.0, abs=1e-9)

    def test_echo_outlives_free_precession_under_noise(self):
        # Monte-Carlo comparison with a short-correlation bath
        from phasemag.noise import Lorentzian
        S = Lorentzian(delta=2e5, tau_c=2e-6)
        t = 10e-6
        p_ram, p_hahn = 0.0, 0.0
        n_traj = 60
        for k in range(n_traj):
            traj = ou_trajectory(S, t, S.tau_c / 12, seed=1000 + k)
            p_ram += execute(build_ramsey(t), 0.0, noise_trajectory=traj)
            p_hahn += execute(build_hahn(t), 0.0, noise_trajectory=traj)
        assert p_hahn / n_traj > p_ram / n_traj


class TestBerryExecution:
    def test_zero_field_adiabatic(self):
        # A = 0.01 exactly at T = 60 us
        plan = build_berry(W5, 3, 60e-6)
        assert execute(plan, 0.0) == pytest.approx(1.0, abs=1e-3)

    def test_last_minimum(self):
        plan = build_berry(W5, 3, 8e-6)
        b = (W5 * 11.0 / math.sqrt(23.0)) / NV.gamma
        assert execute(plan, b) == pytest.approx(-1.0, abs=0.02)

    def test_matches_chirp_formula_when_adiabatic(self):
        # A = 0.01: deviations scale like ~23*A^2
        duration = 60e-6
        model = GeometricModel(W5, 3)
        plan = build_berry(W5, 3, duration)
        bs = np.linspace(0, 1.2 * berry_field_range(model), 25)
        got = execute_batch(plan, bs)
        want = analytic.berry_signal(model, bs)
        assert np.max(np.abs(got - want)) <= 0.01

    def test_corotating_halves_lose_the_signal(self):
        # same-direction sweeps cancel the geometric phase: the signal stops
        # depending on field through the chirp argument
        duration = 60e-6
        n_rot = 3
        rate = 4 * math.pi * n_rot / duration
        half = duration / 2
        standard = build_berry(W5, n_rot, duration)
        corotating = SequencePlan(
            segments=(
                standard.segments[0],
                SweptDrive(W5, 0.0, rate, half),
                standard.segments[2],
                SweptDrive(W5, TWO_PI * n_rot, rate, half),
                standard.segments[4],
            ),
            label="berry-corotating", duration=duration, rabi=W5,
            n_rotations=n_rot)
        model = GeometricModel(W5, n_rot)
        bs = np.linspace(0.05, 0.95, 12) * berry_field_range(model)
        p_std = execute_batch(standard, bs)
        p_co = execute_batch(corotating, bs)
        assert np.max(np.abs(p_std - p_co)) > 0.5
        assert np.allclose(p_std, analytic.berry_signal(model, bs), atol=0.01)


class TestSweptClosedFormAgainstMesh:
    """The noise-free closed form and the Richardson mesh are independent."""

    RATE = 4 * math.pi * 3 / 8e-6

    @pytest.mark.parametrize("seg", [
        SweptDrive(W5, 0.0, RATE, 4e-6),
        SweptDrive(W5, TWO_PI * 3, -RATE, 4e-6),
        SweptDrive(angular_from_mhz(2.0), 0.7, RATE, 3e-6),
        SweptDrive(angular_from_mhz(2.0), -1.3, -RATE, 3e-6),
        SweptDrive(0.0, 0.4, RATE, 2e-6),
    ], ids=["up", "down", "up-offset", "down-offset", "no-drive"])
    def test_random_states_and_fields(self, seg):
        rng = np.random.default_rng(17)
        # B = 0, the rotating-frame resonance gamma*B = r, and random fields
        bs = np.concatenate([[0.0, seg.phase_rate / NV.gamma],
                             rng.uniform(-4e-4, 4e-4, 4)])
        states = rng.standard_normal((bs.size, 3))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        got = _apply_swept_exact(states, seg, NV.gamma * bs)
        for v, b, out in zip(states, bs, got):
            det = NV.gamma * b
            ref = core.propagate_swept(
                SpinState.from_array(v), seg.rabi,
                lambda t: seg.phase_start + seg.phase_rate * t,
                lambda t: np.full(np.shape(t), det), seg.duration)
            assert np.allclose(out, ref.as_array(), atol=1e-6, rtol=0)
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_undriven_sweep_equals_free_evolution(self):
        duration = 2e-6
        prep = IdealPulse(0.0, math.pi / 2)
        readout = IdealPulse(READOUT_PHASE, math.pi / 2)
        swept = SequencePlan((prep, SweptDrive(0.0, 0.4, self.RATE, duration),
                              readout), "undriven", duration)
        bs = np.linspace(-3e-4, 3e-4, 31)
        assert np.array_equal(execute_batch(swept, bs),
                              execute_batch(build_ramsey(duration), bs))

    def test_step_control_only_governs_the_mesh(self):
        plan = build_berry(W5, 3, 8e-6)
        bs = np.linspace(0, 3e-4, 9)
        starved = StepControl(tol=1e-16, max_depth=1)
        assert np.array_equal(execute_batch(plan, bs, step_control=starved),
                              execute_batch(plan, bs))
        with pytest.raises(ConvergenceFailure):
            execute_batch(plan, bs, step_control=starved,
                          noise_trajectory=lambda t: np.zeros_like(t))


class TestOdeCrossValidation:
    def test_executor_matches_bloch_ode_integration(self):
        # fully independent oracle: integrate ds/dt = R(t) x s with an
        # adaptive ODE solver through the whole alternating-sweep sequence
        from scipy.integrate import solve_ivp

        omega, n_rot, duration = W5, 2, 6e-6
        b = 2.1e-4
        det = NV.gamma * b
        rate = 4 * math.pi * n_rot / duration
        half = duration / 2

        def rho(t):
            return rate * t if t <= half else TWO_PI * n_rot - rate * (t - half)

        def rhs(t, s):
            r = np.array([omega * math.cos(rho(t)), omega * math.sin(rho(t)), det])
            return np.cross(r, s)

        def pulse(s, axis_phase, angle):
            axis = np.array([math.cos(axis_phase), math.sin(axis_phase), 0.0])
            c, si = math.cos(angle), math.sin(angle)
            return s * c + np.cross(axis, s) * si + axis * (axis @ s) * (1 - c)

        s = pulse(np.array([0.0, 0.0, 1.0]), 0.0, math.pi / 2)
        sol = solve_ivp(rhs, (0.0, half), s, rtol=1e-10, atol=1e-12,
                        max_step=half / 200)
        s = pulse(sol.y[:, -1], math.pi / 2, math.pi)
        sol = solve_ivp(rhs, (half, duration), s, rtol=1e-10, atol=1e-12,
                        max_step=half / 200)
        s = pulse(sol.y[:, -1], math.pi, math.pi / 2)

        got = execute(build_berry(omega, n_rot, duration), b)
        assert got == pytest.approx(s[2], abs=5e-6)


class TestSignalBounds:
    def test_all_protocols_bounded(self):
        rng = np.random.default_rng(3)
        plans = [build_ramsey(1e-6), build_hahn(2e-6), build_berry(W5, 2, 6e-6)]
        bs = rng.uniform(0, 2e-3, 25)
        for plan in plans:
            p = execute_batch(plan, bs)
            assert np.all(np.abs(p) <= 1.0 + 1e-9)

    def test_nonfinite_field_rejected(self):
        with pytest.raises(InvalidParameter):
            execute(build_ramsey(1e-6), math.inf)


class TestNoiseInjection:
    def test_zero_noise_trajectory_matches_noiseless(self):
        plan = build_ramsey(1e-6)
        b = 2e-5
        got = execute(plan, b, noise_trajectory=lambda t: np.zeros_like(np.asarray(t)))
        assert got == pytest.approx(execute(plan, b), abs=1e-6)

    def test_noise_is_deterministic_given_seed(self, calibrated_noise):
        plan = build_berry(W5, 2, 4e-6)
        traj = ou_trajectory(calibrated_noise, 4e-6, calibrated_noise.tau_c / 10,
                             seed=9)
        a = execute(plan, 1e-4, noise_trajectory=traj)
        traj2 = ou_trajectory(calibrated_noise, 4e-6, calibrated_noise.tau_c / 10,
                              seed=9)
        b = execute(plan, 1e-4, noise_trajectory=traj2)
        assert a == b

"""Sequence construction and execution tests."""

import math

import numpy as np
import pytest

from phasemag import analytic, core
from phasemag.analytic import GeometricModel, berry_field_range
from phasemag.constants import MAX_TURNS, NV, TWO_PI, angular_from_mhz
from phasemag.core import SpinState
from phasemag.errors import InvalidParameter
from phasemag.noise import Lorentzian, OUBank, ou_bank, ou_trajectory
from phasemag.sequences import (READOUT_PHASE, FreeEvolution, IdealPulse,
                                SequencePlan, SweptDrive, _apply_swept_exact,
                                build_berry, build_hahn, build_ramsey, execute,
                                execute_batch)

from conftest import held_noise_ode

W5 = angular_from_mhz(5.0)


def _knot_bank(duration, fn, n_knots=64, n_traj=1):
    """A bank whose every channel holds the detuning ``fn(t)`` (rad/s) on
    ``n_knots`` uniform intervals spanning ``duration``."""
    dt = duration / n_knots
    values = np.repeat(fn(np.arange(n_knots + 1) * dt)[:, None], n_traj, axis=1)
    return OUBank(dt=dt, values=values)


def _zero_bank(duration, n_traj=1):
    return _knot_bank(duration, np.zeros_like, n_traj=n_traj)


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
        with pytest.raises(InvalidParameter, match="n_rotations must be <="):
            build_berry(W5, MAX_TURNS + 1, 1e-6)

    @pytest.mark.parametrize("build", [
        lambda: build_ramsey(math.inf),
        lambda: build_hahn(math.inf),
        lambda: build_berry(math.inf, 3, 8e-6),
        lambda: build_berry(W5, 3, math.inf),
        lambda: FreeEvolution(math.inf),
        lambda: FreeEvolution(math.nan),
        lambda: SweptDrive(math.inf, 0.0, 0.0, 1e-6),
        lambda: SweptDrive(W5, math.nan, 0.0, 1e-6),
        lambda: SweptDrive(W5, 0.0, math.nan, 1e-6),
        lambda: SweptDrive(W5, 0.0, math.inf, 1e-6),
        lambda: SweptDrive(W5, 0.0, 0.0, math.inf),
        lambda: IdealPulse(math.nan, math.pi),
        lambda: IdealPulse(0.0, math.inf),
        lambda: SequencePlan((FreeEvolution(1e-6),), "free", math.inf),
        lambda: SequencePlan((FreeEvolution(1e-6),), "free", math.nan)],
        ids=["ramsey-inf-time", "hahn-inf-time", "berry-inf-rabi",
             "berry-inf-time", "free-inf", "free-nan", "swept-inf-rabi",
             "swept-nan-start", "swept-nan-rate", "swept-inf-rate",
             "swept-inf-time", "pulse-nan-axis", "pulse-inf-angle",
             "plan-inf-time", "plan-nan-time"])
    def test_non_finite_numbers_rejected(self, build):
        # each would otherwise build a plan that executes to nan
        with pytest.raises(InvalidParameter):
            build()

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

    @pytest.mark.parametrize("a_value", [0.005, 0.01, 0.02, 0.04, 0.075, 0.1])
    def test_deviation_from_chirp_formula_follows_a_squared(self, a_value):
        # max|dP| ~ 23*A^2 at N = 3, measured 22.4-23.9 over this grid; the
        # prefactor grows with N (about 10, 16, 23 and 36 at N = 1, 2, 3, 5)
        n_rot = 3
        model = GeometricModel(W5, n_rot)
        duration = TWO_PI * n_rot / (a_value * W5)
        bs = np.linspace(0, 1.5 * berry_field_range(model), 400)
        got = execute_batch(build_berry(W5, n_rot, duration), bs)
        ratio = np.max(np.abs(got - analytic.berry_signal(model, bs))) / a_value**2
        assert 20.0 <= ratio <= 26.0

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
            label="berry-corotating", duration=duration)
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
        identity = (np.ones(bs.size, dtype=complex),
                    np.zeros(bs.size, dtype=complex))
        got = core._apply(*_apply_swept_exact(identity, seg, NV.gamma * bs),
                          states)
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


class TestNoisyFrameAgainstLabMesh:
    """Noisy segments hold the noise on each knot interval; the reference is
    the lab-frame mesh of ``core.propagate_swept`` with the drive phase as
    given, restarted at every knot with the same held detuning."""

    # fast bath: the noise changes many times within each segment
    BATH = Lorentzian(delta=2e5, tau_c=2e-6)
    RATE = 4 * math.pi * 2 / 6e-6
    W2 = angular_from_mhz(2.0)

    @staticmethod
    def _lab_frame(plan, b, bank, j=0, tol=1e-9):
        """s_z at the end of ``plan`` at field ``b`` under channel ``j`` of
        ``bank``: each knot interval of each evolution segment on the
        lab-frame mesh, at the mean of the knot interpolant at its edges."""
        knots = np.arange(bank.values.shape[0]) * bank.dt

        def noise(t):
            return float(np.interp(t, knots, bank.values[:, j]))

        state = SpinState.up()
        t0 = 0.0
        for seg in plan.segments:
            if isinstance(seg, IdealPulse):
                state = core.apply_ideal_pulse(state, seg.axis_phase, seg.angle)
                continue
            if isinstance(seg, FreeEvolution):
                seg = SweptDrive(0.0, 0.0, 0.0, seg.duration)
            t1 = t0 + seg.duration
            edges = np.concatenate(([t0], knots[(knots > t0) & (knots < t1)],
                                    [t1]))
            for lo, hi in zip(edges[:-1], edges[1:]):
                det = NV.gamma * b + 0.5 * (noise(lo) + noise(hi))
                state = core.propagate_swept(
                    state, seg.rabi,
                    lambda t, seg=seg, off=lo - t0: (seg.phase_start
                                                     + seg.phase_rate * (off + t)),
                    lambda t, det=det: det, hi - lo, tol)
            t0 = t1
        return state.s_z

    def _plan(self, *sweeps):
        # a pi pulse about +y between sweeps, readout about an oblique axis so
        # that P depends on all three Bloch components before it
        segments = [IdealPulse(0.0, math.pi / 2)]
        for k, seg in enumerate(sweeps):
            if k:
                segments.append(IdealPulse(math.pi / 2, math.pi))
            segments.append(seg)
        segments.append(IdealPulse(2.3, 1.1))
        return SequencePlan(tuple(segments), "noisy-frame",
                            sum(s.duration for s in sweeps))

    @pytest.mark.parametrize("sweeps", [
        (SweptDrive(W2, 0.0, RATE, 3e-6), SweptDrive(W2, 4 * math.pi, -RATE, 3e-6)),
        (SweptDrive(W2, 0.7, RATE, 3e-6), SweptDrive(W2, -1.3, -RATE, 3e-6)),
        (SweptDrive(0.0, 0.4, RATE, 2e-6), SweptDrive(W2, 0.4, 0.0, 1e-6)),
    ], ids=["up-down", "offsets", "no-drive"])
    def test_shared_trajectory(self, sweeps):
        plan = self._plan(*sweeps)
        traj = ou_trajectory(self.BATH, plan.duration, self.BATH.tau_c / 10, seed=21)
        bs = np.array([0.0, 1.3e-4, self.RATE / NV.gamma, -2.2e-4])
        got = execute_batch(plan, bs, noise_trajectory=traj)
        for b, p in zip(bs, got):
            assert p == pytest.approx(self._lab_frame(plan, b, traj), abs=1e-8)

    def test_bank_channels_see_their_own_streams(self):
        plan = self._plan(SweptDrive(self.W2, 0.7, self.RATE, 3e-6),
                          SweptDrive(0.0, 0.2, -self.RATE, 1e-6),
                          SweptDrive(self.W2, -1.3, -self.RATE, 2e-6))
        bank = ou_bank(self.BATH, plan.duration, self.BATH.tau_c / 10, 3, seed=4)
        bs = np.array([0.0, 0.0, 1.3e-4])
        got = execute_batch(plan, bs, noise_trajectory=bank)
        for j, (b, p) in enumerate(zip(bs, got)):
            assert p == pytest.approx(self._lab_frame(plan, b, bank, j),
                                      abs=1e-8)
        # the two zero-field channels differ only by their streams
        assert abs(got[0] - got[1]) > 1e-3

    # free evolution is an exact z rotation by the integral of the knot
    # interpolant, which is the held model's too: the knot spacing is
    # tau_c/10 = 0.2 us, so every segment below starts or ends between two
    # knots
    @pytest.mark.parametrize("plan", [build_ramsey(3.05e-6), build_hahn(6.1e-6)],
                             ids=["ramsey", "hahn"])
    def test_free_evolution_is_exact(self, plan):
        bs = np.array([0.0, 1.3e-5, -2.2e-5])
        traj = ou_trajectory(self.BATH, plan.duration, self.BATH.tau_c / 10, seed=22)
        got = execute_batch(plan, bs, noise_trajectory=traj)
        for b, p in zip(bs, got):
            assert p == pytest.approx(self._lab_frame(plan, b, traj), abs=1e-8)
        bank = ou_bank(self.BATH, plan.duration, self.BATH.tau_c / 10, 3, seed=5)
        got = execute_batch(plan, bs, noise_trajectory=bank)
        for j, (b, p) in enumerate(zip(bs, got)):
            assert p == pytest.approx(self._lab_frame(plan, b, bank, j),
                                      abs=1e-8)

    def test_mesh_no_longer_resolves_phase_turns(self, monkeypatch):
        # in the co-rotating frame each knot interval is one rotation,
        # whatever the turns of the drive phase: each half of the sweep
        # composes its 128 knot intervals, at 3 turns as at 30 000
        compose = core._compose
        counts = []

        def spy(n_slices, per_slice, pairs):
            counts.append(n_slices)
            return compose(n_slices, per_slice, pairs)

        monkeypatch.setattr(core, "_compose", spy)
        bath = Lorentzian(delta=31415.9, tau_c=20e-6)
        traj = ou_trajectory(bath, 8e-6, 8e-6 / 256, seed=3)
        bs = np.linspace(0, 3e-4, 9)
        for n_rot in (3, 30_000):
            counts.clear()
            p = execute_batch(build_berry(W5, n_rot, 8e-6), bs,
                              noise_trajectory=traj)
            assert counts == [128, 128]
            assert np.all(np.isfinite(p)) and np.all(np.abs(p) <= 1.0)


class TestCoarseNoisyMesh:
    """The noisy co-rotating frame takes one exact rotation per knot
    interval; an interval may turn by many radians about R."""

    def test_wide_field_berry_curve_matches_a_fine_mesh(self, calibrated_noise):
        # the frame Larmor rate, and so the turn of each knot interval, is
        # largest at the top of the 0-0.6 mT range; the reference is DOP853
        # restarted at every knot (a few thousand steps in all)
        plan = build_berry(W5, 3, 8e-6)
        bs = np.linspace(0.0, 6e-4, 7)
        traj = ou_trajectory(calibrated_noise, 8e-6, 8e-6 / 256, seed=3)
        got = execute_batch(plan, bs, noise_trajectory=traj)
        ref = held_noise_ode(plan, bs, traj, NV.gamma)
        assert np.max(np.abs(got - ref)) <= 1e-8

    def test_undriven_sweep_does_not_alias_the_noise(self):
        # about 1 rad of precession in all: a mesh of one or two slices
        # whose nodes sit on knots at crests of this noise would stop at the
        # wrong phase.  An undriven sweep is free evolution, which takes
        # the exact integral of the interpolant between knots, so it cannot
        # alias it.  The noise integrates to zero over the segment.
        duration = 1e-6
        bank = _knot_bank(duration,
                          lambda t: np.cos(8 * math.pi * t / duration) / duration)
        plan = SequencePlan((IdealPulse(0.0, math.pi / 2),
                             SweptDrive(0.0, 0.0, 0.0, duration),
                             IdealPulse(READOUT_PHASE, math.pi / 2)),
                            "undriven", duration)
        bs = np.array([0.0, 1e-6, -1e-6])
        got = execute_batch(plan, bs, noise_trajectory=bank)
        assert np.allclose(got, np.cos(NV.gamma * bs * duration), atol=1e-6,
                           rtol=0)

    def test_zero_slope_reproduces_the_closed_form(self):
        # a constant noise offset is a shifted field: on knots 1 us apart
        # each interval turns by up to 115 rad about R, and its one rotation
        # is the closed-form rotation of the noise-free path
        # (``_apply_swept_exact``) to rounding
        delta = 2e5
        bank = _knot_bank(8e-6, lambda t: np.full_like(t, delta), n_knots=8)
        for om_mhz, n_rot in ((5.0, 3), (2.0, 1), (1.0, 7)):
            plan = build_berry(angular_from_mhz(om_mhz), n_rot, 8e-6)
            bs = np.linspace(-2e-4, 6e-4, 9)
            got = execute_batch(plan, bs, noise_trajectory=bank)
            ref = execute_batch(plan, bs + delta / NV.gamma)
            assert np.max(np.abs(got - ref)) <= 1e-12
        reach = np.hypot(angular_from_mhz(5.0),
                         NV.gamma * 6e-4 + delta + 4 * math.pi * 3 / 8e-6)
        assert reach * 1e-6 >= 100.0

    def test_zero_bank_gives_the_noise_free_curve(self):
        plan = build_berry(W5, 3, 8e-6)
        bs = np.linspace(0.0, 6e-4, 13)
        for n_traj in (1, bs.size):
            got = execute_batch(plan, bs,
                                noise_trajectory=_zero_bank(8e-6, n_traj))
            assert np.max(np.abs(got - execute_batch(plan, bs))) <= 1e-12


class TestNoisyMeshAgainstOde:
    """An oracle for the noisy driven path that shares no code with it:
    DOP853 on ds/dt = R(t) x s in the lab frame, restarted at every knot
    with the noise held at the interval's mean (``held_noise_ode``)."""

    FAST = Lorentzian(delta=TWO_PI * 5e3, tau_c=20e-6)

    @pytest.mark.parametrize("bath, cell, seed", [
        ("calibrated", (5.0, 3, 8e-6), 11),
        ("fast", (5.0, 3, 8e-6), 12),
        ("fast", (2.0, 1, 3e-6), 11),
    ], ids=["calibrated-5MHz", "fast-5MHz", "fast-2MHz"])
    def test_berry_under_ou_noise(self, calibrated_noise, bath, cell, seed):
        # the knots of ``harness.signal_curve``: min(tau_c/10, T/256) apart
        S = calibrated_noise if bath == "calibrated" else self.FAST
        om_mhz, n_rot, duration = cell
        plan = build_berry(angular_from_mhz(om_mhz), n_rot, duration)
        bs = np.linspace(0.0, 2e-4, 5)
        traj = ou_trajectory(S, duration, min(S.tau_c / 10, duration / 256),
                             seed=(seed,))
        got = execute_batch(plan, bs, noise_trajectory=traj)
        assert np.max(np.abs(got - held_noise_ode(plan, bs, traj,
                                                  NV.gamma))) <= 1e-8


class TestHeldNoiseModel:
    """The noisy sweep is exact for noise held at each knot interval's mean,
    and that model converges to the OU path as the knots close in."""

    FAST = Lorentzian(delta=TWO_PI * 5e3, tau_c=20e-6)

    @pytest.mark.parametrize("per_field", [False, True],
                             ids=["shared", "per-field"])
    def test_knots_apart_by_a_tenth_of_tau_c(self, per_field):
        # the other branch of the knot step: tau_c/10 = 20 ns < T/256.  The
        # segments end 175.5, 192 and 367.5 knots in, so two of those ends
        # fall between knots; the drive phases start off zero, and an
        # undriven sweep sits between the halves (7e-12 and 4e-12 measured)
        bath = Lorentzian(delta=2e6, tau_c=0.2e-6)
        rate = 4 * math.pi * 2 / 7e-6
        w2 = angular_from_mhz(2.0)
        plan = SequencePlan((
            IdealPulse(0.0, math.pi / 2), SweptDrive(w2, 0.7, rate, 3.51e-6),
            IdealPulse(math.pi / 2, math.pi),
            SweptDrive(0.0, 0.2, rate, 0.33e-6),
            SweptDrive(w2, -1.3, -rate, 3.51e-6),
            IdealPulse(2.3, 1.1)), "off-knots", 7.35e-6)
        bs = np.array([0.0, 1.3e-4, rate / NV.gamma, -2.2e-4])
        dt = min(bath.tau_c / 10, plan.duration / 256)
        assert dt == bath.tau_c / 10
        bank = ou_bank(bath, plan.duration, dt, bs.size if per_field else 1,
                       seed=7)
        got = execute_batch(plan, bs, noise_trajectory=bank)
        ref = held_noise_ode(plan, bs, bank, NV.gamma)
        assert np.max(np.abs(got - ref)) <= 1e-8

    @pytest.mark.parametrize("bath", ["calibrated", "fast"])
    def test_refined_knots_converge_to_the_path(self, calibrated_noise, bath):
        # one exact OU chain at dt/64, read by banks on every 64th and every
        # 8th of its knots: at dt/8 the median miss of P over 8 paths is
        # at most a quarter of the miss at the knot step of
        # ``harness.signal_curve`` (9.0e-6 -> 5.9e-7 on the calibrated bath
        # and 2.0e-4 -> 1.3e-5 on the fast one measured)
        S = calibrated_noise if bath == "calibrated" else self.FAST
        duration = 8e-6
        plan = build_berry(W5, 3, duration)
        bs = np.linspace(0.0, 3e-4, 7)
        dt = min(S.tau_c / 10, duration / 256)
        misses = []
        for seed in range(8):
            fine = ou_trajectory(S, duration, dt / 64, seed=(40 + seed,))
            ref = execute_batch(plan, bs, noise_trajectory=fine)
            misses.append([
                np.max(np.abs(execute_batch(
                    plan, bs, noise_trajectory=OUBank(
                        dt=fine.dt * step, values=fine.values[::step]))
                    - ref))
                for step in (64, 8)])
        coarse, finer = np.median(misses, axis=0)
        assert coarse > 0.0
        assert finer <= coarse / 4


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


PLANS = pytest.mark.parametrize(
    "plan", [build_ramsey(4e-6), build_hahn(4e-6), build_berry(W5, 2, 4e-6)],
    ids=["ramsey", "hahn", "berry"])
NOISY = pytest.mark.parametrize("noisy", [False, True],
                                ids=["clean", "noisy"])


class TestEntryChecks:
    """The executor checks its fields and gamma before a plan runs."""

    @staticmethod
    def _bank(plan, noisy):
        return (_knot_bank(plan.duration, lambda t: 1e5 * np.sin(3e6 * t))
                if noisy else None)

    @PLANS
    @NOISY
    def test_no_fields_give_an_empty_curve(self, plan, noisy):
        # the noisy berry plan ended in numpy's zero-size reduction error
        # inside the knot mesh
        p = execute_batch(plan, [], noise_trajectory=self._bank(plan, noisy))
        assert p.shape == (0,)

    @PLANS
    @NOISY
    def test_fields_must_be_a_1d_grid(self, plan, noisy):
        # a 2-D grid ended in a numpy broadcast error
        with pytest.raises(InvalidParameter, match="fields must be a 1-D grid"):
            execute_batch(plan, np.zeros((2, 2)),
                          noise_trajectory=self._bank(plan, noisy))

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
    def test_stray_tol_is_refused(self, tol):
        # the executor takes no tolerance: a tol where one was, positional
        # or by name, is refused, not read as gamma
        plan = build_berry(W5, 2, 4e-6)
        bank = self._bank(plan, True)
        with pytest.raises(TypeError):
            execute_batch(plan, [0.0], bank, tol)
        with pytest.raises(TypeError):
            execute(plan, 0.0, bank, tol)
        with pytest.raises(TypeError):
            execute_batch(plan, [0.0], tol=tol)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.inf, math.nan])
    def test_gamma_must_be_positive_and_finite(self, gamma):
        with pytest.raises(InvalidParameter,
                           match="gamma must be positive and finite"):
            execute_batch(build_ramsey(1e-6), [0.0, 1e-5], gamma=gamma)


class TestNoiseInjection:
    def test_zero_noise_trajectory_matches_noiseless(self):
        plan = build_ramsey(1e-6)
        b = 2e-5
        got = execute(plan, b, noise_trajectory=_zero_bank(plan.duration))
        assert got == pytest.approx(execute(plan, b), abs=1e-6)

    def test_only_a_fitting_bank_is_noise(self):
        # a plain callable, and a bank whose channels neither are one nor
        # match the fields
        plan = build_ramsey(1e-6)
        with pytest.raises(InvalidParameter):
            execute_batch(plan, [0.0], noise_trajectory=lambda t: np.zeros_like(t))
        with pytest.raises(InvalidParameter):
            execute_batch(plan, [0.0, 1e-5, 2e-5],
                          noise_trajectory=_zero_bank(plan.duration, n_traj=2))

    def test_knots_must_cover_the_plan(self):
        # past its last knot a bank extrapolates, which is not the noise
        # the plan asked for
        bath = Lorentzian(delta=2e5, tau_c=2e-6)
        short = ou_trajectory(bath, 2e-6, 2e-7, seed=1)
        with pytest.raises(InvalidParameter):
            execute_batch(build_ramsey(4e-6), [0.0], noise_trajectory=short)
        bank = ou_bank(bath, 2e-6, 2e-7, 2, seed=1)
        with pytest.raises(InvalidParameter):
            execute_batch(build_berry(W5, 2, 4e-6), [0.0, 0.0],
                          noise_trajectory=bank)
        # 7e-7 / 10 rounds down, so ten such steps end just below 7e-7 s
        duration = 7e-7
        traj = ou_trajectory(bath, duration, duration / 10, seed=1)
        assert traj.dt * (traj.values.shape[0] - 1) < duration
        p = execute_batch(build_ramsey(duration), [0.0], noise_trajectory=traj)
        assert abs(p[0]) <= 1.0

    def test_overflowing_larmor_rate_rejected(self, recwarn):
        # gamma*B overflows to inf: the noisy mesh could not size its
        # slices, and the closed form would turn it into nan
        plan = build_berry(W5, 2, 4e-6)
        with pytest.raises(InvalidParameter):
            execute_batch(plan, [1e300], noise_trajectory=_zero_bank(4e-6))
        with pytest.raises(InvalidParameter):
            execute_batch(plan, [1e300])
        assert len(recwarn) == 0

    @pytest.mark.parametrize("plan", [
        build_ramsey(6e-6), build_hahn(6e-6), build_berry(W5, 2, 6e-6)],
        ids=["ramsey", "hahn", "berry"])
    def test_bank_holds_detunings(self, plan):
        # the noise is a detuning in rad/s, which gamma does not scale:
        # doubling gamma is doubling the static fields, bit for bit
        bath = Lorentzian(delta=2e5, tau_c=2e-6)
        bs = np.array([0.0, 1.3e-5, -2.2e-5])
        bank = ou_bank(bath, plan.duration, bath.tau_c / 10, bs.size, seed=6)
        got = execute_batch(plan, bs, noise_trajectory=bank,
                            gamma=2 * NV.gamma)
        want = execute_batch(plan, 2 * bs, noise_trajectory=bank)
        assert np.array_equal(got, want)

    def test_noise_is_deterministic_given_seed(self, calibrated_noise):
        plan = build_berry(W5, 2, 4e-6)
        traj = ou_trajectory(calibrated_noise, 4e-6, calibrated_noise.tau_c / 10,
                             seed=9)
        a = execute(plan, 1e-4, noise_trajectory=traj)
        traj2 = ou_trajectory(calibrated_noise, 4e-6, calibrated_noise.tau_c / 10,
                              seed=9)
        b = execute(plan, 1e-4, noise_trajectory=traj2)
        assert a == b

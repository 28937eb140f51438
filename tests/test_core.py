"""Propagator unit tests: rotations, convergence, invariants."""

import math

import numpy as np
import pytest

from phasemag import core
from phasemag.constants import NV, TWO_PI, angular_from_mhz
from phasemag.core import (DriveParams, SpinState,
                           apply_ideal_pulse, apply_resonant_pulse,
                           propagate_constant,
                           propagate_swept, propagate_swept_report,
                           _compose_swept)
from phasemag.errors import ConvergenceFailure, InvalidParameter

from conftest import reduce_time_ordered, rotation_matrices, swept_exact


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


class TestPairKernel:
    """Cayley-Klein pairs against the 3x3 reference kernel of conftest."""

    @staticmethod
    def _random(rng, shape):
        # rotations about random axes by angles in [-20, 20] rad, with
        # exact zeros: a zero vector and a zero step
        w = rng.standard_normal((3,) + shape) * 1e7
        dt = rng.uniform(-2e-6, 2e-6, shape)
        w.reshape(3, -1)[:, 0] = 0.0
        dt.reshape(-1)[1] = 0.0
        r = np.sqrt(np.sum(w * w, axis=0))
        unit = w / np.where(r > 0, r, 1.0)
        unit[2][r == 0] = 1.0  # the reference needs an axis for angle 0
        return w, dt, unit, r * dt

    @staticmethod
    def _states(rng, n):
        v = rng.standard_normal((n, 3))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    def test_single_rotations(self):
        rng = np.random.default_rng(31)
        w, dt, unit, angle = self._random(rng, (200,))
        v = self._states(rng, 200)
        got = core._apply(*core._pairs(*w, dt), v)
        ref = np.einsum("nij,nj->ni", rotation_matrices(*unit, angle), v)
        assert np.max(np.abs(got - ref)) <= 1e-13
        assert np.any(angle < 0) and np.any(angle == 0)

    def test_equatorial_pulses(self):
        rng = np.random.default_rng(32)
        v = self._states(rng, 50)
        for phase, angle in zip(rng.uniform(-4, 4, 50),
                                np.concatenate(([0.0, -math.pi],
                                                rng.uniform(-10, 10, 48)))):
            got = core._apply(*core._axis_pair(phase, angle), v)
            ref = v @ rotation_matrices(math.cos(phase), math.sin(phase), 0.0,
                                        angle).T
            assert np.max(np.abs(got - ref)) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 67])
    def test_time_ordered_products(self, n):
        rng = np.random.default_rng(33 + n)
        w, dt, unit, angle = self._random(rng, (n, 4))
        v = self._states(rng, 4)
        # _reduce takes the slices on the last axis
        got = core._apply(*core._reduce(*core._pairs(*w.transpose(0, 2, 1),
                                                     dt.T)), v)
        total = reduce_time_ordered(rotation_matrices(*unit, angle))
        ref = np.einsum("mij,mj->mi", total, v)
        assert np.max(np.abs(got - ref)) <= 1e-13
        # one product: the first rotation, then the last
        pair = core._mul(core._pairs(*w[:, -1], dt[-1]),
                         core._pairs(*w[:, 0], dt[0]))
        total = (rotation_matrices(*unit[:, -1], angle[-1])
                 @ rotation_matrices(*unit[:, 0], angle[0]))
        ref = np.einsum("mij,mj->mi", total, v)
        assert np.max(np.abs(core._apply(*pair, v) - ref)) <= 1e-13

    @pytest.mark.parametrize("depth", [6, 7])
    def test_near_identity_lab_mesh_against_longdouble(self, depth):
        # the mesh of test_refinement_errors_decrease: 257 * 2**depth
        # slices of two rotations by at most 0.0016 rad each.  Measured at
        # depths 6 and 7: the pairs are off the extended-precision product
        # by 7.8e-16 and 8.3e-16, the 3x3 reference kernel in doubles by
        # 6.1e-15 and 1.0e-14, and the pairs without the division by
        # |q|^2 in _apply by 1.8e-14 and 6.1e-13
        if np.finfo(np.longdouble).eps >= 1e-17:
            pytest.skip("np.longdouble is no wider than a double here")
        w = angular_from_mhz(2.0)

        def phase(t):
            return 3e6 * t

        def det(t):
            return 1e6 * np.cos(2e6 * t)

        n = core._initial_mesh(w, phase, det, 4e-6) << depth
        v = np.array([0.0, -1.0, 0.0])
        got = core._apply(*_compose_swept(w, phase, det, 4e-6, n), v)
        *comps, dt = core._swept_axes(w, phase, det, 4e-6 / n, 0, n)
        comps = [np.asarray(c, dtype=np.longdouble) for c in comps]
        r = np.sqrt(sum(c * c for c in comps))
        total = reduce_time_ordered(rotation_matrices(
            *(c / r for c in comps), r * np.longdouble(dt)))
        ref = (total @ v.astype(np.longdouble)).astype(float)
        assert np.max(np.abs(got - ref)) <= 1e-14


def _knot_bound(lengths, dets):
    """The knot mesh's error bound at one slice per interval, worked out
    here from its definition: the worst channel's sum of (dw L)^2 / 32."""
    return float(np.max(np.sum(((dets[1:] - dets[:-1])
                                * lengths[:, None]) ** 2, axis=0))) / 32.0


def _knot_mesh(rabi, lengths, dets, depth):
    """``core._knot_refine`` held at ``depth`` halvings by a tol that the
    bound meets there and not one halving sooner."""
    bound = _knot_bound(lengths, dets) / 8.0**depth
    pair, report = core._knot_refine(rabi, lengths, dets, bound * (1 + 1e-9))
    assert report.steps == lengths.size << depth
    assert report.error_history == (pytest.approx(bound, rel=1e-12),)
    return pair


class TestKnotComposition:
    """The knot mesh composes interaction-picture Magnus slices."""

    @staticmethod
    def _mesh(k, m):
        # k intervals of 0.05-0.15 us, w within +-30 Mrad/s at the edges
        rng = np.random.default_rng(40 + k + m)
        lengths = rng.uniform(0.05e-6, 0.15e-6, k)
        dets = rng.uniform(-3e7, 3e7, (k + 1, m))
        states = rng.standard_normal((m, 3))
        return lengths, dets, states / np.linalg.norm(states, axis=1,
                                                      keepdims=True)

    @staticmethod
    def _reference(rabi, lengths, dets, depth, states):
        # the slices of one depth written out from the step's definition as
        # 3x3 matrices: the rotation about R0 = (rabi, 0, w_mid) for h/2, a
        # turn about y by the first Magnus term of the interaction picture,
        # and the rotation about R0 for h/2 again.  That term,
        # rabi*s * int t sin(k t) dt / k over the slice, is integrated by
        # 16-point Gauss-Legendre
        sub = 1 << depth
        h = np.repeat(lengths / sub, sub)[:, None]
        slope = np.repeat((dets[1:] - dets[:-1]) / lengths[:, None], sub,
                          axis=0)
        mid = np.tile(np.arange(sub) + 0.5, lengths.size)[:, None]
        w = np.repeat(dets[:-1], sub, axis=0) + mid * slope * h
        k = np.hypot(rabi, w)
        nodes, weights = np.polynomial.legendre.leggauss(16)
        t = 0.5 * h[..., None] * nodes
        moment = 0.5 * h * np.sum(weights * t * np.sin(k[..., None] * t),
                                  axis=-1)
        half = rotation_matrices(rabi / k, 0.0, w / k, 0.5 * k * h)
        tilt = rotation_matrices(0.0, 1.0, 0.0, rabi * slope * moment / k)
        total = reduce_time_ordered(half @ tilt @ half)
        return np.einsum("mij,mj->mi", total, states)

    @pytest.mark.parametrize("m", [1, 3, 12])
    @pytest.mark.parametrize("k", [7, 64])
    def test_each_depth_matches_the_reference(self, k, m):
        rabi = angular_from_mhz(5.0)
        lengths, dets, states = self._mesh(k, m)
        # at depth 5 k*h/2 falls on both sides of 0.1, where the step sums
        # its Magnus term as a series
        for depth in (0, 2, 5):
            got = core._apply(*_knot_mesh(rabi, lengths, dets, depth),
                              states)
            ref = self._reference(rabi, lengths, dets, depth, states)
            assert got.shape == (m, 3)
            assert np.max(np.abs(got - ref)) <= 1e-13

    def test_magnus_term_at_any_turn(self):
        # the y rotation of a slice, -sin(theta/2) in b.real, against theta
        # from 48-point Gauss-Legendre, for x = k*h/2 from 1e-6 (where the
        # closed form of g has cancelled to nothing) to 10
        rabi, w = 3e7, np.array([0.0, 4e7])[:, None]
        k = np.hypot(rabi, w)
        x = np.logspace(-6, 1, 29)
        half = x / k
        tilt = 1e-3 / half**3
        a, b = core._knot_pairs(rabi, half, w, tilt)
        nodes, weights = np.polynomial.legendre.leggauss(48)
        t = half[..., None] * nodes
        moment = half * np.sum(weights * t * np.sin(k[..., None] * t), axis=-1)
        theta = tilt * moment / k
        assert np.allclose(b.real, -np.sin(0.5 * theta), rtol=1e-12, atol=0)
        assert np.allclose(np.abs(a) ** 2 + np.abs(b) ** 2, 1.0, rtol=0,
                           atol=1e-15)

    @staticmethod
    def _frame_ode(rabi, lengths, dets):
        # DOP853 on ds/dt = R(t) x s, R = (rabi, 0, w(t)), one interval at a
        # time, from |0>
        from scipy.integrate import solve_ivp

        m = dets.shape[1]
        s = np.tile([0.0, 0.0, 1.0], m)
        for length, w0, w1 in zip(lengths, dets[:-1], dets[1:]):
            def rhs(t, y, length=length, w0=w0, w1=w1):
                r = np.empty((m, 3))
                r[:, 0], r[:, 1] = rabi, 0.0
                r[:, 2] = w0 + (w1 - w0) * (t / length)
                return np.cross(r, y.reshape(m, 3)).ravel()

            s = solve_ivp(rhs, (0.0, length), s, method="DOP853", rtol=1e-12,
                          atol=1e-12).y[:, -1]
        return s.reshape(m, 3)

    def test_error_within_the_bound(self):
        # seeded cells whose slices turn by 0.8 to 34 rad about R, at tols
        # from 1e-6 to 1e-3: the error against DOP853 stays within the
        # bound the mesh was sized by (at most 0.06 of it measured)
        reach = []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            k, m = 4, 3
            rabi = rng.uniform(1e6, 3e7)
            lengths = rng.uniform(0.3e-6, 1e-6, k)
            dets = (rng.uniform(-3e7, 3e7, m) + rng.uniform(-1, 1, (k + 1, m))
                    * 10.0 ** rng.uniform(4, 6.5))
            pair, report = core._knot_refine(
                rabi, lengths, dets, 10.0 ** rng.uniform(-6, -3))
            r = np.hypot(rabi, np.maximum(np.abs(dets[:-1]), np.abs(dets[1:])))
            reach.append(np.max(r * lengths[:, None]) / (report.steps // k))
            got = core._apply(*pair, np.array([0.0, 0.0, 1.0]))
            err = np.max(np.abs(got - self._frame_ode(rabi, lengths, dets)))
            assert err <= report.error_history[0]
        assert max(reach) >= 30.0

    def test_error_follows_the_slope_squared(self):
        # on a fixed mesh the terms the step leaves out start at second
        # order in the slope: halving the noise about a fixed w quarters
        # the error against DOP853 (3.89 and 4.00 measured)
        rabi = angular_from_mhz(3.0)
        lengths = np.full(8, 0.5e-6)
        noise = np.random.default_rng(9).uniform(-3e5, 3e5, (9, 1))
        errs = []
        for scale in (1.0, 0.5, 0.25):
            dets = 2e7 + scale * noise
            got = core._apply(*_knot_mesh(rabi, lengths, dets, 0),
                              np.array([0.0, 0.0, 1.0]))
            errs.append(np.max(np.abs(got - self._frame_ode(rabi, lengths,
                                                            dets))))
        for a, b in zip(errs, errs[1:]):
            assert 3.5 <= a / b <= 4.5

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

    def test_refinement_errors_decrease(self, monkeypatch):
        # drive refinement to exhaustion and inspect the recorded sequence
        w = angular_from_mhz(2.0)
        monkeypatch.setattr(core, "_MAX_DEPTH", 6)
        with pytest.raises(ConvergenceFailure) as exc:
            propagate_swept_report(
                SpinState(0, -1, 0), w, lambda t: 3e6 * t,
                lambda t: 1e6 * np.cos(2e6 * t), 4e-6, 1e-16)
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

    def test_convergence_failure_carries_history(self, monkeypatch):
        w = angular_from_mhz(2.0)
        monkeypatch.setattr(core, "_MAX_DEPTH", 2)
        with pytest.raises(ConvergenceFailure) as exc:
            propagate_swept(SpinState(0, -1, 0), w, lambda t: 3e6 * t,
                            lambda t: 0.0, 4e-6, 1e-18)
        assert len(exc.value.error_history) >= 1

    @staticmethod
    def _fixed_mesh_errors():
        w = angular_from_mhz(2.0)
        v = np.array([0.0, -1.0, 0.0])

        def run(n):
            pair = _compose_swept(w, lambda t: 5e6 * t, lambda t: 3e5, 4e-6, n)
            return core._apply(*pair, v)

        ref = run(1 << 14)
        errs = [np.max(np.abs(run(n) - ref)) for n in (128, 256, 512, 1024)]
        return [b / a for a, b in zip(errs, errs[1:])]

    def test_fixed_mesh_error_scaling(self):
        # the lab-frame step is the 4th-order commutator-free Magnus step:
        # the error drops 16x per halving (ratio 0.0625 measured)
        for ratio in self._fixed_mesh_errors():
            assert ratio <= 0.1

    def test_knot_mesh_step_is_fourth_order(self):
        # the noisy co-rotating mesh takes one interaction-picture Magnus
        # step per slice of a piecewise-linear R = (rabi, 0, w): without
        # its y rotation it would be a 2nd-order splitting (ratio 0.25);
        # with it the error drops 16x per halving (0.0625 measured)
        w = angular_from_mhz(2.0)
        lengths = np.full(8, 0.5e-6)
        dets = np.random.default_rng(5).uniform(-3e6, 3e6, (9, 1))
        v = np.array([[0.0, -1.0, 0.0]])

        def run(depth):
            return core._apply(*_knot_mesh(w, lengths, dets, depth), v)[0]

        ref = run(12)
        errs = [np.max(np.abs(run(d) - ref)) for d in (2, 3, 4, 5)]
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
        # batch (the noisy sweeps); splitting it into more blocks, down to
        # blocks of part of one knot interval, leaves the result unchanged
        sizes = []
        kernel = "_knot_pairs" if noisy else "_pairs"
        build = getattr(core, kernel)

        def spy(*args):
            sizes.append(np.broadcast(*args).size)
            return build(*args)

        monkeypatch.setattr(core, kernel, spy)
        if noisy:
            m = 16
            knots = np.linspace(0.0, 1e-6, 21)
            edge_dets = (np.linspace(-2e6, 2e6, m)[None, :]
                         + 1e5 * np.sin(3e6 * knots)[:, None])

            def run():
                # 20 intervals of 2**8 slices, 16 channels: 81920 rotations
                return core._apply(*_knot_mesh(3e6, np.diff(knots),
                                               edge_dets, 8),
                                   np.tile([0.0, -1.0, 0.0], (m, 1)))
        else:
            def run():
                # 200000 slices of two rotations each
                return core._apply(*_compose_swept(
                    3e6, lambda t: 0.0, lambda t: 2e6 + 1e5 * np.sin(3e5 * t),
                    5e-6, 200000), np.array([0.0, -1.0, 0.0]))
        out = run()
        assert len(sizes) > 1
        assert max(sizes) <= core._BLOCK
        for block in (core._BLOCK // 8, 64):
            # 64 rotations of 16 channels: 4 slices of an interval of 256
            monkeypatch.setattr(core, "_BLOCK", block)
            assert np.allclose(run(), out, rtol=0, atol=1e-12)

    def test_time_function_of_another_shape_rejected(self):
        # one value per time or a scalar; a batch of detunings per time is
        # not retried time by time
        with pytest.raises(InvalidParameter, match="one value per time"):
            propagate_swept(SpinState.up(), 1e6, lambda t: 0.0,
                            lambda t: np.zeros((np.size(t), 2)), 1e-6)

    @pytest.mark.parametrize("noisy", [False, True])
    def test_start_mesh_beyond_the_cap_refused(self, monkeypatch, noisy):
        # a phase ramp of 1e16 rad/s starts the lab-frame mesh at 1e10
        # slices.  The knot mesh does not grow with |R|, only with the
        # slope of w: a w that swings by 4e12 rad/s across each of 128
        # intervals needs 2**18 slices each at tol 1e-6, 2**25 in all.
        # Both are refused before anything is composed
        def compose(*args):
            raise AssertionError("composed a mesh past the cap")

        monkeypatch.setattr(core, "_compose", compose)
        if noisy:
            dets = np.tile([[2e12], [-2e12]], (65, 1))[:129]
            args = (1e6, np.full(128, 1e-6 / 128), dets)
            # the default _MAX_DEPTH gives up first
            with pytest.raises(ConvergenceFailure, match="12 halvings"):
                core._knot_refine(*args, 1e-6)
            monkeypatch.setattr(core, "_MAX_DEPTH", 40)
            with pytest.raises(InvalidParameter, match="would need"):
                core._knot_refine(*args, 1e-6)
        else:
            with pytest.raises(InvalidParameter, match="mesh would start"):
                propagate_swept(SpinState.up(), 1e6, lambda t: 1e16 * t,
                                lambda t: 0.0, 1e-6)

    def test_negative_duration_rejected(self):
        with pytest.raises(InvalidParameter):
            propagate_swept(SpinState.up(), 1.0, lambda t: 0.0,
                            lambda t: 0.0, -1.0)

    @pytest.mark.parametrize("rabi, phase, detuning, duration", [
        (1e6, lambda t: np.where(t > 0.5e-6, np.inf, 0.0), lambda t: 0.0, 1e-6),
        (1e6, lambda t: 0.0, lambda t: np.nan, 1e-6),
        (np.inf, lambda t: 0.0, lambda t: 0.0, 1e-6),
        (1e6, lambda t: 0.0, lambda t: 0.0, np.inf),
    ], ids=["phase-inf-late", "detuning-nan", "rabi-inf", "duration-inf"])
    def test_non_finite_input_rejected(self, rabi, phase, detuning, duration):
        with pytest.raises(InvalidParameter):
            propagate_swept(SpinState.up(), rabi, phase, detuning, duration)

    def test_error_in_user_function_propagates(self):
        # a detuning that fails on arrays must not be retried time by time
        def detuning(t):
            if np.ndim(t):
                raise ValueError("scalar times only")
            return 1e6

        with pytest.raises(ValueError, match="scalar times only"):
            propagate_swept(SpinState.up(), 1e6, lambda t: 0.0, detuning, 1e-6)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
    def test_tol_must_be_positive(self, tol):
        with pytest.raises(InvalidParameter, match="tol must be positive"):
            propagate_swept_report(SpinState.up(), 1e6, lambda t: 1e6 * t,
                                   lambda t: 0.0, 1e-6, tol)


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

"""The scalar argument rules of ``phasemag.constants`` and the public entry
points that apply them."""

import math
import warnings

import numpy as np
import pytest

from phasemag import analytic, core, estimate, harness, noise, sequences
from phasemag.constants import (MAX_ADIABATICITY, MAX_TURNS, angular_from_mhz,
                                check_adiabaticity, check_count, check_finite,
                                check_nonnegative, check_positive, check_turns)
from phasemag.errors import InvalidParameter

W5 = angular_from_mhz(5.0)
BATH = noise.Lorentzian(delta=1e5, tau_c=1e-5)
UP = core.SpinState.up()


def zero(t):
    return 0.0


FINITE = (math.nan, math.inf, -math.inf)
NONNEGATIVE = FINITE + (-1.0,)
POSITIVE = NONNEGATIVE + (0.0,)
TURNS = POSITIVE + (2.5, MAX_TURNS + 1)


class TestRules:
    def test_valid_values_pass_through(self):
        assert check_positive("x", 2.5) == 2.5
        assert check_nonnegative("x", 0.0) == 0.0
        assert check_finite("x", -1e308) == -1e308
        assert check_count("x", 4) == 4
        assert check_adiabaticity(0.0) == 0.0
        assert check_adiabaticity(1e149) == 1e149

    @pytest.mark.parametrize("a", NONNEGATIVE + (MAX_ADIABATICITY,))
    def test_bad_adiabaticity(self, a):
        with pytest.raises(InvalidParameter) as exc:
            check_adiabaticity(a)
        assert str(exc.value) == f"adiabaticity must lie in [0, 1e+150), got {a}"

    @pytest.mark.parametrize("n", [1, 3.0, MAX_TURNS, float(MAX_TURNS)])
    def test_turns_come_back_as_ints(self, n):
        got = check_turns(n)
        assert got == n and type(got) is int

    @pytest.mark.parametrize("n", TURNS + ("3", None, [3]))
    def test_bad_turns_end_in_invalid_parameter(self, n):
        # int() would raise ValueError for nan and OverflowError for inf
        with pytest.raises(InvalidParameter, match="n_rotations must be <="):
            check_turns(n)

    @pytest.mark.parametrize("check, values, rule", [
        (check_positive, POSITIVE, "positive and finite"),
        (check_nonnegative, NONNEGATIVE, "nonnegative and finite"),
        (check_finite, FINITE, "finite")])
    def test_one_message_per_rule(self, check, values, rule):
        for value in values:
            with pytest.raises(InvalidParameter) as exc:
                check("rate", value)
            assert str(exc.value) == f"rate must be {rule}, got {value}"


# (entry point, argument, values it must refuse, call with that value); the
# other arguments are valid
ENTRY_POINTS = [
    ("DynamicModel", "duration", POSITIVE, lambda x: analytic.DynamicModel(x)),
    ("DynamicModel", "gamma", POSITIVE, lambda x: analytic.DynamicModel(1e-6, x)),
    ("GeometricModel", "rabi", POSITIVE, lambda x: analytic.GeometricModel(x, 3)),
    ("GeometricModel", "n_rotations", TURNS,
     lambda x: analytic.GeometricModel(W5, x)),
    ("sensitivity", "duration", POSITIVE,
     lambda x: analytic.sensitivity(analytic.DynamicModel(1e-6), (0.0, 1e-3), x)),
    ("sensitivity", "sigma_p", POSITIVE,
     lambda x: analytic.sensitivity(analytic.DynamicModel(1e-6), (0.0, 1e-3),
                                    1e-6, x)),
    ("sensitivity", "overhead", NONNEGATIVE,
     lambda x: analytic.sensitivity(analytic.DynamicModel(1e-6), (0.0, 1e-3),
                                    1e-6, 1.0, x)),
    ("adiabaticity", "rabi", NONNEGATIVE,
     lambda x: analytic.adiabaticity(x, 3, 8e-6, 1e-3)),
    ("adiabaticity", "n_rotations", TURNS,
     lambda x: analytic.adiabaticity(W5, x, 8e-6, 1e-3)),
    ("adiabaticity", "duration", POSITIVE,
     lambda x: analytic.adiabaticity(W5, 3, x, 1e-3)),
    ("adiabaticity", "b", FINITE, lambda x: analytic.adiabaticity(W5, 3, 8e-6, x)),
    ("adiabaticity_small_field", "rabi", POSITIVE,
     lambda x: analytic.adiabaticity_small_field(x, 3, 8e-6)),
    ("adiabaticity_small_field", "n_rotations", TURNS,
     lambda x: analytic.adiabaticity_small_field(W5, x, 8e-6)),
    ("adiabaticity_small_field", "duration", POSITIVE,
     lambda x: analytic.adiabaticity_small_field(W5, 3, x)),
    ("IdealPulse", "axis_phase", FINITE, lambda x: sequences.IdealPulse(x, 1.0)),
    ("IdealPulse", "angle", FINITE, lambda x: sequences.IdealPulse(0.0, x)),
    ("FreeEvolution", "duration", NONNEGATIVE, lambda x: sequences.FreeEvolution(x)),
    ("SweptDrive", "rabi", NONNEGATIVE,
     lambda x: sequences.SweptDrive(x, 0.0, 1e6, 1e-6)),
    ("SweptDrive", "phase_start", FINITE,
     lambda x: sequences.SweptDrive(W5, x, 1e6, 1e-6)),
    ("SweptDrive", "phase_rate", FINITE,
     lambda x: sequences.SweptDrive(W5, 0.0, x, 1e-6)),
    ("SweptDrive", "duration", NONNEGATIVE,
     lambda x: sequences.SweptDrive(W5, 0.0, 1e6, x)),
    ("build_ramsey", "duration", POSITIVE, lambda x: sequences.build_ramsey(x)),
    ("build_hahn", "duration", POSITIVE, lambda x: sequences.build_hahn(x)),
    ("build_berry", "rabi", POSITIVE, lambda x: sequences.build_berry(x, 3, 8e-6)),
    ("build_berry", "n_rotations", TURNS,
     lambda x: sequences.build_berry(W5, x, 8e-6)),
    ("build_berry", "duration", POSITIVE, lambda x: sequences.build_berry(W5, 3, x)),
    ("execute_batch", "tol", POSITIVE,
     lambda x: sequences.execute_batch(sequences.build_ramsey(1e-6), [0.0], tol=x)),
    ("execute_batch", "gamma", POSITIVE,
     lambda x: sequences.execute_batch(sequences.build_ramsey(1e-6), [0.0], gamma=x)),
    ("DriveParams", "rabi", NONNEGATIVE, lambda x: core.DriveParams(x, 0.0, 0.0)),
    ("DriveParams", "phase", FINITE, lambda x: core.DriveParams(W5, x, 0.0)),
    ("DriveParams", "detuning", FINITE, lambda x: core.DriveParams(W5, 0.0, x)),
    ("propagate_constant", "duration", FINITE,
     lambda x: core.propagate_constant(UP, core.DriveParams(W5, 0.0, 0.0), x)),
    ("propagate_swept_report", "rabi", NONNEGATIVE,
     lambda x: core.propagate_swept_report(UP, x, zero, zero, 1e-6)),
    ("propagate_swept_report", "duration", NONNEGATIVE,
     lambda x: core.propagate_swept_report(UP, W5, zero, zero, x)),
    ("propagate_swept_report", "tol", POSITIVE,
     lambda x: core.propagate_swept_report(UP, W5, zero, zero, 1e-6, x)),
    ("apply_resonant_pulse", "rabi", POSITIVE,
     lambda x: core.apply_resonant_pulse(UP, x, 0.0, 1.0)),
    ("Lorentzian", "delta", POSITIVE, lambda x: noise.Lorentzian(x, 1e-5)),
    ("Lorentzian", "tau_c", POSITIVE, lambda x: noise.Lorentzian(1e5, x)),
    ("White", "level", NONNEGATIVE, lambda x: noise.White(x)),
    ("OneOverF", "amplitude", NONNEGATIVE, lambda x: noise.OneOverF(x, 1.0, 10.0)),
    ("OneOverF", "omega_min", POSITIVE, lambda x: noise.OneOverF(1.0, x, 10.0)),
    ("OneOverF", "omega_max", POSITIVE, lambda x: noise.OneOverF(1.0, 1.0, x)),
    ("ramsey_exponent", "duration", POSITIVE, lambda x: noise.ramsey_exponent(BATH, x)),
    ("echo_exponent", "duration", POSITIVE, lambda x: noise.echo_exponent(BATH, x)),
    ("calibrate_noise", "t2_star", POSITIVE,
     lambda x: noise.calibrate_noise(x, 500e-6)),
    ("calibrate_noise", "t2", POSITIVE, lambda x: noise.calibrate_noise(50e-6, x)),
    ("ou_trajectory", "duration", POSITIVE,
     lambda x: noise.ou_trajectory(BATH, x, 1e-7, 1)),
    ("ou_trajectory", "dt", POSITIVE,
     lambda x: noise.ou_trajectory(BATH, 1e-5, x, 1)),
    ("spectral_overlay", "duration", POSITIVE,
     lambda x: noise.spectral_overlay(BATH, 0.1, x, [1.0, 2.0])),
    ("SweepSpec", "sigma_p", POSITIVE,
     lambda x: harness.SweepSpec("ramsey", [1e-6], [0.0, 1e-4], sigma_p=x)),
    ("SweepSpec", "overhead", NONNEGATIVE,
     lambda x: harness.SweepSpec("ramsey", [1e-6], [0.0, 1e-4], overhead=x)),
    ("smart_control_curve", "k", POSITIVE,
     lambda x: harness.smart_control_curve(analytic.GeometricModel(W5, 3), 8e-6, [x])),
    # k*N past MAX_TURNS, and past the float range
    ("smart_control_curve", "n_rotations", (1e14, 1e308),
     lambda x: harness.smart_control_curve(analytic.GeometricModel(W5, 3), 8e-6, [x])),
    ("nonadiabatic_sensitivity_scan", "adiabaticity", POSITIVE,
     lambda x: harness.nonadiabatic_sensitivity_scan([x], 25e-6, BATH)),
    ("nonadiabatic_sensitivity_scan", "n_rotations", TURNS,
     lambda x: harness.nonadiabatic_sensitivity_scan([0.01], 25e-6, BATH, x)),
    ("nonadiabatic_sensitivity_scan", "sigma_p", POSITIVE,
     lambda x: harness.nonadiabatic_sensitivity_scan([0.01], 25e-6, BATH, 2, x)),
    ("measure_geometric", "sigma", NONNEGATIVE,
     lambda x: estimate.measure_geometric(analytic.GeometricModel(W5, 3), 0.0,
                                          sigma=x, rng=np.random.default_rng(1))),
    ("Measurement", "p", FINITE, lambda x: estimate.Measurement(x)),
    ("Measurement", "slope", FINITE, lambda x: estimate.Measurement(0.0, x)),
    ("Measurement", "sigma", NONNEGATIVE, lambda x: estimate.Measurement(0.0, 1.0, x)),
    ("Measurement", "slope_sigma", NONNEGATIVE,
     lambda x: estimate.Measurement(0.0, 1.0, 0.0, x)),
    ("triplet", "hyperfine_splitting", POSITIVE, analytic.HyperfineModel.triplet),
]
CASES = [(name, bad, call) for _, name, values, call in ENTRY_POINTS
         for bad in values]
IDS = [f"{entry}-{name}-{bad}" for entry, name, values, _ in ENTRY_POINTS
       for bad in values]


@pytest.mark.parametrize("name, bad, call", CASES, ids=IDS)
def test_bad_scalar_argument_is_refused_by_name(name, bad, call):
    # refused at entry with a typed error that names the argument: no
    # numpy warning, no ValueError or OverflowError from int(), and no
    # result computed from it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameter, match=rf"\b{name}\b"):
            call(bad)

"""phasemag: dynamic- and geometric-phase magnetometry for driven two-level spins.

Simulation of free-precession and phase-swept (chirped geometric) field
sensing protocols, closed-form signal models with sensitivity and field-range
solvers, filter-function decoherence analysis with a stochastic oracle, field
estimators that demonstrate unique phase unwrapping, and a sweep harness with
power-law fitting.
"""

from .constants import NV, angular_from_mhz
from .core import (ConvergenceReport, DriveParams, SpinState,
                   apply_ideal_pulse, apply_resonant_pulse, propagate_constant,
                   propagate_swept, propagate_swept_report)
from .sequences import (FreeEvolution, IdealPulse, SequencePlan, SweptDrive,
                        build_berry, build_hahn, build_ramsey, execute,
                        execute_batch)
from .analytic import (DynamicModel, GeometricModel, HyperfineModel,
                       SensitivityReport, adiabaticity,
                       adiabaticity_small_field, berry_field_range,
                       berry_phase_argument, berry_signal, berry_slope,
                       hyperfine_average, ramsey_ambiguities,
                       ramsey_field_range, ramsey_signal, ramsey_slope,
                       sensitivity)
from .noise import (CoherenceCurve, DecoherenceTerms, FilterFunctionKind,
                    Lorentzian, OneOverF, OUBank, SpectralOverlay, White,
                    calibrate_noise, coherence_decay, decoherence_function,
                    echo_exponent, filter_function, fit_T2g,
                    mc_free_precession_decay, ou_bank, ou_trajectory,
                    ramsey_exponent, spectral_overlay)
from .estimate import (FieldEstimate, Measurement, estimate_dynamic,
                       estimate_geometric, geometric_candidates,
                       measure_dynamic, measure_geometric)
from .harness import (PowerLawFit, SmartControlResult, SweepRecord,
                      SweepResult, SweepSpec, classify_regime,
                      decoherence_regime_scan, fit_power_law,
                      nonadiabatic_sensitivity_scan, run_sweep,
                      smart_control_curve)
from . import errors

__version__ = "0.1.0"

"""Signal curves, parameter sweeps, power-law fits and regime scans.

Everything here is deterministic given the spec and seed: grid points are
independent work items ordered by grid index, Monte-Carlo streams derive
from (seed, point index), and serialization uses fixed 9-significant-digit
formatting.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import analytic, noise as noise_mod, sequences
from .analytic import DynamicModel, GeometricModel, adiabaticity
from .constants import (NV, TWO_PI, check_adiabaticity, check_count,
                        check_gamma, check_nonnegative, check_positive,
                        check_turns)
from .errors import (AdiabaticityViolation, DegenerateSlope, FitFailure,
                     InvalidParameter, PhasemagError)
from .noise import SpectralDensity, decoherence_function
from .solve import NoRoot, find_root

__all__ = [
    "SweepSpec",
    "SweepRecord",
    "SweepResult",
    "PowerLawFit",
    "SmartControlRow",
    "SmartControlResult",
    "NonadiabaticRow",
    "RegimeRow",
    "check_curve_request",
    "signal_curve",
    "run_sweep",
    "fit_power_law",
    "smart_control_curve",
    "nonadiabatic_sensitivity_scan",
    "decoherence_regime_scan",
    "classify_regime",
    "to_jsonl",
    "fmt",
]

_ENGINES = ("analytic", "numeric", "numeric+noise")
_PROTOCOLS = ("ramsey", "hahn", "berry")


def fmt(x) -> str:
    """Canonical 9-significant-digit decimal rendering for output files:
    ``"%.9g" % x``, and "" for None."""
    if x is None:
        return ""
    return format(float(x), ".9g")


# largest Larmor phase a curve may reach: beyond 2^52 rad adjacent doubles
# are 1 rad apart, so the phase, and the signal, carry no information
_MAX_PHASE = 2.0**52
# most runs an ensemble may average: 500 times the largest shipped default
_MAX_ENSEMBLE = 100_000


def _check_ensemble(ensemble) -> None:
    """InvalidParameter unless ``ensemble`` is a count of at most
    ``_MAX_ENSEMBLE`` runs, checked before any run is drawn."""
    if check_count("ensemble", ensemble) > _MAX_ENSEMBLE:
        raise InvalidParameter(f"ensemble must be <= {_MAX_ENSEMBLE}, "
                               f"got {ensemble}")


def check_curve_request(protocol: str, engine: str,
                        noise: Optional[SpectralDensity], ensemble: int,
                        workers: int, durations: Sequence[float],
                        b_grid: Sequence[float],
                        omegas: Sequence[float] = (),
                        gamma: float = NV.gamma) -> None:
    """The one validity rule for signal-curve requests (``signal`` and sweeps).

    Raises InvalidParameter for an unknown protocol or engine, the analytic
    engine on the echo protocol, numeric+noise without a noise model, an
    ``ensemble`` or ``workers`` below 1, an ``ensemble`` above
    ``_MAX_ENSEMBLE``, a non-finite interaction time, field or drive
    frequency (``omegas``, rad/s), a gamma that is not positive and finite
    (``constants.check_gamma``), and a Larmor phase gamma*|B|*T above
    ``_MAX_PHASE``.  ``workers`` has no effect; values above 1 emit a
    DeprecationWarning.
    """
    if protocol not in _PROTOCOLS:
        raise InvalidParameter(f"unknown protocol {protocol!r}")
    if engine not in _ENGINES:
        raise InvalidParameter(f"unknown engine {engine!r}")
    if protocol == "hahn" and engine == "analytic":
        raise InvalidParameter("analytic engine is not defined for the echo protocol")
    if engine == "numeric+noise" and noise is None:
        raise InvalidParameter("numeric+noise engine needs a noise model")
    _check_ensemble(ensemble)
    check_count("workers", workers)
    if not np.all(np.isfinite(np.asarray(durations, dtype=float))):
        raise InvalidParameter("interaction times must be finite")
    if not np.all(np.isfinite(np.asarray(b_grid, dtype=float))):
        raise InvalidParameter("fields must be finite")
    if not np.all(np.isfinite(np.asarray(omegas, dtype=float))):
        raise InvalidParameter("drive frequencies must be finite")
    check_gamma(gamma)
    # Python floats, so that an overflow is inf and not a numpy warning
    phase = (gamma * float(np.max(np.abs(b_grid), initial=0.0))
             * float(np.max(np.abs(durations), initial=0.0)))
    if not phase <= _MAX_PHASE:
        raise InvalidParameter(
            f"the Larmor phase gamma*|B|*T reaches {phase:.3g} rad, above "
            f"{_MAX_PHASE:.3g} rad")
    if workers > 1:
        warnings.warn("workers has no effect: sweep points run serially; the "
                      "key will be removed", DeprecationWarning, stacklevel=2)


@dataclass(frozen=True)
class SweepSpec:
    """One sweep request: protocol, control grids, field grid, engine.

    Angular frequencies in rad/s, times in seconds, fields in tesla.
    ``omegas`` and ``n_rotations`` apply to the berry protocol only.
    ``workers`` is deprecated and has no effect (must be >= 1).
    """

    protocol: str
    times: Sequence[float]
    b_grid: Sequence[float]
    omegas: Optional[Sequence[float]] = None
    n_rotations: Optional[Sequence[int]] = None
    engine: str = "analytic"
    noise: Optional[SpectralDensity] = None
    seed: int = 0
    ensemble: int = 200
    sigma_p: float = 1.0
    overhead: float = 0.0
    gamma: float = NV.gamma
    workers: int = 1

    def __post_init__(self):
        check_curve_request(self.protocol, self.engine, self.noise,
                            self.ensemble, self.workers, self.times,
                            self.b_grid, self.omegas or (), self.gamma)
        if len(self.times) == 0 or len(self.b_grid) < 2:
            raise InvalidParameter("times nonempty and b_grid of length >= 2 required")
        if self.protocol == "berry" and (not self.omegas or not self.n_rotations):
            raise InvalidParameter("berry sweeps need omegas and n_rotations grids")
        check_positive("sigma_p", self.sigma_p)
        check_nonnegative("overhead", self.overhead)


@dataclass(frozen=True)
class SweepRecord:
    """Outcome at one grid point; ``p_curve`` is P on the spec's ``b_grid``."""

    index: int
    protocol: str
    engine: str
    omega: Optional[float]
    n_rotations: Optional[int]
    duration: float
    adiabaticity: Optional[float]
    p_curve: tuple
    eta: Optional[float]
    max_slope: Optional[float]
    b_max: Optional[float]
    t2g: Optional[float]
    t2g_residual: Optional[float]
    status: str
    error: str = ""


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    records: tuple

    @property
    def ok(self) -> bool:
        return all(r.status == "ok" for r in self.records)


def _grid_points(spec: SweepSpec):
    if spec.protocol == "berry":
        return list(itertools.product(spec.omegas, spec.n_rotations, spec.times))
    return [(None, None, t) for t in spec.times]


def signal_curve(protocol: str, engine: str, duration: float, b_grid,
                 omega: Optional[float] = None, n_rot: Optional[int] = None,
                 noise: Optional[SpectralDensity] = None, ensemble: int = 1,
                 seed_key: tuple = (0,),
                 gamma: float = NV.gamma) -> np.ndarray:
    """Signal P over ``b_grid`` (tesla) for one protocol point and engine.

    ``omega`` (rad/s) and ``n_rot`` apply to berry only.  ``numeric+noise``
    averages ``ensemble`` runs of the sequence; run k sees one Lorentzian OU
    trajectory sampled every min(tau_c/10, T/256) from the random stream
    ``seed_key + (k,)`` and interpolated linearly.  Free evolution (ramsey,
    hahn) turns by the exact integral of that trajectory, with no mesh;
    swept segments (berry) run on the co-rotating mesh.  Other noise
    families raise InvalidParameter.
    """
    if engine == "analytic":
        if protocol == "ramsey":
            return analytic.ramsey_signal(DynamicModel(duration, gamma), b_grid)
        return analytic.berry_signal(GeometricModel(omega, n_rot, gamma), b_grid)

    if protocol == "ramsey":
        plan = sequences.build_ramsey(duration)
    elif protocol == "hahn":
        plan = sequences.build_hahn(duration)
    else:
        plan = sequences.build_berry(omega, n_rot, duration)
    if engine == "numeric":
        return sequences.execute_batch(plan, b_grid, gamma=gamma)

    if not isinstance(noise, noise_mod.Lorentzian):
        raise InvalidParameter("numeric+noise engine needs a Lorentzian model")
    dt = min(noise.tau_c / 10.0, duration / 256.0)
    total = np.zeros_like(b_grid)
    for k in range(ensemble):
        traj = noise_mod.ou_trajectory(noise, duration, dt, seed_key + (k,))
        total += sequences.execute_batch(plan, b_grid, noise_trajectory=traj,
                                         gamma=gamma)
    return total / ensemble


def _sensitivity_from_curve(b_grid, p_curve, duration, sigma_p, overhead):
    if float(np.ptp(p_curve)) < 1e-9:
        raise DegenerateSlope("signal slope is flat over the sampled grid")
    slopes = np.gradient(p_curve, b_grid)
    i = int(np.argmax(np.abs(slopes)))
    best = float(abs(slopes[i]))
    if best < 1e-15:
        raise DegenerateSlope("curve slope vanishes over the sampled grid")
    eta = sigma_p * math.sqrt(duration + overhead) / best
    return eta, best


def _auto_decay_grid(S, a_value, n_points=28):
    """Sampling grid spanning the 1/e time of chi(T; A).

    Raises InvalidParameter when chi(T; A) does not cross 1 between about
    1e-19 s and 1e9 s.
    """

    def total_chi(t):
        return decoherence_function(S, a_value, t).total - 1.0

    try:
        t1e = find_root(total_chi, 1e-7, 1e-3, grow=2.0, steps=40, xtol=2e-12,
                        rtol=1e-10)
    except NoRoot as exc:
        raise InvalidParameter(f"chi(T; A={a_value:g}) does not cross 1 between "
                               f"{exc.lo:.3g} s and {exc.hi:.3g} s") from None
    return np.linspace(0.15 * t1e, 2.1 * t1e, n_points)


def _eval_point(spec: SweepSpec, b_grid, index, omega, n_rot, duration):
    gamma = spec.gamma
    try:
        p_curve = np.asarray(signal_curve(spec.protocol, spec.engine, duration,
                                          b_grid, omega, n_rot, spec.noise,
                                          spec.ensemble, (spec.seed, index),
                                          gamma), dtype=float)
        if spec.protocol == "ramsey":
            model = DynamicModel(duration, gamma)
            b_max = analytic.ramsey_field_range(model)
        elif spec.protocol == "berry":
            model = GeometricModel(omega, n_rot, gamma)
            b_max = analytic.berry_field_range(model)
        else:
            b_max = None

        if spec.engine == "analytic":
            rep = analytic.sensitivity(model, (b_grid[0], b_grid[-1]), duration,
                                       spec.sigma_p, spec.overhead)
            eta, max_slope = rep.eta, rep.max_slope
        else:
            eta, max_slope = _sensitivity_from_curve(
                b_grid, p_curve, duration, spec.sigma_p, spec.overhead)

        a_value = None
        if spec.protocol == "berry":
            a_value = adiabaticity(omega, n_rot, duration, 0.0, gamma)

        t2g = t2g_res = None
        if spec.noise is not None and spec.protocol == "berry":
            curve = _eq3_decay_curve(spec.noise, a_value)
            t2g, t2g_res = noise_mod.fit_T2g(
                np.stack([curve.times, curve.values], axis=1))

        return SweepRecord(
            index=index, protocol=spec.protocol, engine=spec.engine,
            omega=omega, n_rotations=n_rot, duration=duration,
            adiabaticity=a_value, p_curve=tuple(p_curve.tolist()), eta=eta,
            max_slope=max_slope, b_max=b_max, t2g=t2g, t2g_residual=t2g_res,
            status="ok")
    except PhasemagError as exc:
        return SweepRecord(
            index=index, protocol=spec.protocol, engine=spec.engine,
            omega=omega, n_rotations=n_rot, duration=duration,
            adiabaticity=None, p_curve=(), eta=None, max_slope=None,
            b_max=None, t2g=None, t2g_residual=None, status="error",
            error=str(exc))


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate signal curve, sensitivity and field range on every grid point.

    Failures are recorded per point without aborting the sweep.  Points are
    evaluated one after another in grid order; numeric+noise point i draws
    trajectory k from the stream (seed, i, k).
    """
    b_grid = np.asarray(spec.b_grid, dtype=float)
    records = tuple(_eval_point(spec, b_grid, i, om, n, t)
                    for i, (om, n, t) in enumerate(_grid_points(spec)))
    return SweepResult(spec=spec, records=records)


# ---------------------------------------------------------------------------
# power-law fitting
# ---------------------------------------------------------------------------

# the SweepRecord attributes a power law may fit
_CONTROLS = ("omega", "n_rotations", "duration", "adiabaticity")
_RESPONSES = ("eta", "b_max", "t2g")


@dataclass(frozen=True)
class PowerLawFit:
    """Multilinear log-log fit: response ~ prod(control^exponent)."""

    response: str
    exponents: dict
    stderr: dict
    log_prefactor: float
    residual_rms: float
    n_points: int


def fit_power_law(result: SweepResult, response: str,
                  controls: Sequence[str]) -> PowerLawFit:
    """Least squares in log-log space; exact on pure power laws.

    Requires at least 3 distinct values per fitted control among the
    successful records, and positive responses.
    """
    if response not in _RESPONSES:
        raise InvalidParameter(f"unknown response {response!r}")
    for c in controls:
        if c not in _CONTROLS:
            raise InvalidParameter(f"unknown control {c!r}")
    rows = [r for r in result.records if r.status == "ok"]
    y = []
    x = []
    for r in rows:
        yv = getattr(r, response)
        cv = [getattr(r, c) for c in controls]
        if yv is None or any(v is None for v in cv):
            continue
        if yv <= 0 or any(v <= 0 for v in cv):
            raise InvalidParameter("power-law fit needs positive values")
        y.append(math.log(yv))
        x.append([1.0] + [math.log(v) for v in cv])
    if len(y) < len(controls) + 1:
        raise FitFailure(f"only {len(y)} usable points for {len(controls)} controls")
    xmat = np.asarray(x)
    for j, c in enumerate(controls):
        if len(set(np.round(xmat[:, j + 1], 12))) < 3:
            raise InvalidParameter(f"need >= 3 distinct values of control {c!r}")
    yvec = np.asarray(y)
    coef, _, rank, _ = np.linalg.lstsq(xmat, yvec, rcond=None)  # matrix_rank's tol
    if rank < xmat.shape[1]:
        raise FitFailure("rank-deficient design matrix")
    resid = yvec - xmat @ coef
    dof = max(len(y) - xmat.shape[1], 1)
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(xmat.T @ xmat)
    stderr = {c: float(math.sqrt(max(cov[j + 1, j + 1], 0.0)))
              for j, c in enumerate(controls)}
    exps = {c: float(coef[j + 1]) for j, c in enumerate(controls)}
    return PowerLawFit(response=response, exponents=exps, stderr=stderr,
                       log_prefactor=float(coef[0]),
                       residual_rms=float(np.sqrt(np.mean(resid**2))),
                       n_points=len(y))


# ---------------------------------------------------------------------------
# decoupled-control demonstration
# ---------------------------------------------------------------------------

# largest zero-field adiabaticity the decoupled-control curve may reach
_SMART_A_LIMIT = 0.1


@dataclass(frozen=True)
class SmartControlRow:
    k: float
    omega: float
    n_rotations: int
    adiabaticity: float
    eta: float
    b_max: float
    eta_ratio: float
    b_max_ratio: float


@dataclass(frozen=True)
class SmartControlResult:
    rows: tuple
    enhancement_factor: float
    eta_held_within: float  # max |eta_ratio - 1|


def smart_control_curve(base: GeometricModel, duration: float,
                        k_grid) -> SmartControlResult:
    """Scale Omega -> k*Omega, N -> round(k*N) at fixed T and Omega/N ratio.

    Sensitivity, at sigma_P = 1 and no overhead, stays constant (max slope
    tracks N/Omega) while the field range grows like k^(3/2).  Raises
    AdiabaticityViolation naming the first k at which the zero-field
    adiabaticity exceeds ``_SMART_A_LIMIT``.
    """
    k_grid = sorted(check_positive("k", float(k)) for k in k_grid)
    if not k_grid:
        raise InvalidParameter("k_grid must not be empty")
    rows = []
    base_eta = base_bmax = None
    for k in k_grid:
        omega = k * base.rabi
        # round(x, 0) keeps an overflowed k*N a float for check_turns
        n_rot = check_turns(max(1.0, round(k * base.n_rotations, 0)))
        a_val = adiabaticity(omega, n_rot, duration, 0.0, base.gamma)
        if a_val > _SMART_A_LIMIT:
            raise AdiabaticityViolation(
                f"adiabaticity {a_val:.3g} exceeds {_SMART_A_LIMIT:g} at k={k:g}",
                scale=k)
        model = GeometricModel(omega, n_rot, base.gamma)
        b_max = analytic.berry_field_range(model)
        rep = analytic.sensitivity(model, (0.0, b_max), duration)
        if base_eta is None:
            base_eta, base_bmax = rep.eta, b_max
        rows.append(SmartControlRow(
            k=k, omega=omega, n_rotations=n_rot, adiabaticity=a_val,
            eta=rep.eta, b_max=b_max, eta_ratio=rep.eta / base_eta,
            b_max_ratio=b_max / base_bmax))
    enhancement = max(r.b_max_ratio for r in rows)
    eta_held = max(abs(r.eta_ratio - 1.0) for r in rows)
    return SmartControlResult(rows=tuple(rows), enhancement_factor=enhancement,
                              eta_held_within=eta_held)


# ---------------------------------------------------------------------------
# nonadiabatic sensitivity scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonadiabaticRow:
    a_value: float
    omega: float
    n_rotations: int
    engine: str
    eta_geo: float
    eta_dyn: float
    crossed: bool


def nonadiabatic_sensitivity_scan(a_grid, duration: float, S: SpectralDensity,
                                  n_rotations: int = 2,
                                  sigma_p: float = 1.0,
                                  b_points: int = 161,
                                  gamma: float = NV.gamma):
    """Geometric sensitivity vs adiabaticity at fixed interaction time.

    Each target A is realized exactly by Omega = 2*pi*N/(A*T) at fixed N and
    T.  Signal curves use the adiabatic chirp formula for A <= 0.05 and the
    exact noise-free sequence (``sequences.execute_batch``, closed form in
    the rotating frame) above; both are attenuated by exp(-chi(T; A)).  The
    reference is the free-precession sensitivity at the same T with its own
    attenuation.  Returns (rows, crossover_a); crossover_a is the first
    grid A with eta_geo < eta_dyn, or None.
    """
    check_turns(n_rotations)
    check_positive("sigma_p", sigma_p)
    chi_ram = noise_mod.ramsey_exponent(S, duration)
    eta_dyn = sigma_p * math.sqrt(duration) * math.exp(chi_ram) / (gamma * duration)
    rows = []
    crossover = None
    for a_target in sorted(check_positive("adiabaticity", float(a))
                           for a in a_grid):
        omega = TWO_PI * n_rotations / (a_target * duration)
        model = GeometricModel(omega, n_rotations, gamma)
        b_max = analytic.berry_field_range(model)
        b_grid = np.linspace(0.0, 1.05 * b_max, b_points)
        engine = "analytic" if a_target <= 0.05 else "numeric"
        p_curve = signal_curve("berry", engine, duration, b_grid, omega,
                               n_rotations, gamma=gamma)
        w_att = math.exp(-decoherence_function(S, a_target, duration).total)
        eta_geo_raw, _ = _sensitivity_from_curve(b_grid, p_curve, duration,
                                                 sigma_p, 0.0)
        eta_geo = eta_geo_raw / w_att
        crossed = eta_geo < eta_dyn
        if crossed and crossover is None:
            crossover = a_target
        rows.append(NonadiabaticRow(a_value=a_target, omega=omega,
                                    n_rotations=n_rotations, engine=engine,
                                    eta_geo=eta_geo, eta_dyn=eta_dyn,
                                    crossed=crossed))
    return rows, crossover


# ---------------------------------------------------------------------------
# decoherence regime scan
# ---------------------------------------------------------------------------

_REGIME_EDGES = ((0.1, "adiabatic"), (1.0, "intermediate"),
                 (5.0, "nonadiabatic"), (math.inf, "strongly-nonadiabatic"))


def classify_regime(a_value: float) -> str:
    for edge, label in _REGIME_EDGES:
        if a_value < edge:
            return label
    return _REGIME_EDGES[-1][1]


@dataclass(frozen=True)
class RegimeRow:
    """Fitted coherence time at one adiabaticity.

    ``curve`` holds the exp(-chi) samples the eq3 engine fitted, also where
    the fit failed; None for the Monte-Carlo engine and unsampled curves.
    """

    a_value: float
    t2g: Optional[float]
    residual: Optional[float]
    regime: str
    status: str
    error: str = ""
    curve: Optional[noise_mod.CoherenceCurve] = None


def decoherence_regime_scan(a_grid, S: SpectralDensity, engine: str = "eq3",
                            omega: float = TWO_PI * 0.5e6,
                            ensemble: int = 100, seed: int = 0,
                            t_points: int = 10,
                            gamma: float = NV.gamma):
    """Coherence time vs adiabaticity.

    ``eq3`` samples exp(-chi(T; A)) and fits the squared exponential.  The
    ``monte-carlo`` engine instead propagates the full sequence at zero
    static field over an OU ensemble, holding A along the decay by scaling
    the turn count with T (nearest integer; N >= 1).  The Monte-Carlo path
    is the authoritative model in the strongly nonadiabatic limit and is
    markedly slower; time j of the decay grid draws its runs from the key
    (seed, j, 0) (``noise.ou_bank``), which every A of the scan shares.
    Raises InvalidParameter for an unknown engine, an A outside [0, 1e150)
    or an ``ensemble`` below 1 or above ``_MAX_ENSEMBLE``, before any row
    is computed.
    """
    if engine not in ("eq3", "monte-carlo"):
        raise InvalidParameter(f"unknown engine {engine!r}")
    _check_ensemble(ensemble)
    a_values = [check_adiabaticity(float(a)) for a in a_grid]
    rows = []
    for a_value in sorted(a_values):
        curve = None
        try:
            if engine == "eq3":
                curve = _eq3_decay_curve(S, a_value)
                samples = np.stack([curve.times, curve.values], axis=1)
            else:
                grid = _auto_decay_grid(S, a_value, n_points=t_points)
                samples = _mc_decay_samples(S, a_value, omega, grid, ensemble,
                                            seed, gamma)
            t2g, res = noise_mod.fit_T2g(samples)
            rows.append(RegimeRow(a_value=a_value, t2g=t2g, residual=res,
                                  regime=classify_regime(a_value), status="ok",
                                  curve=curve))
        except PhasemagError as exc:
            rows.append(RegimeRow(a_value=a_value, t2g=None, residual=None,
                                  regime=classify_regime(a_value),
                                  status="error", error=str(exc), curve=curve))
    return rows


def _eq3_decay_curve(S: SpectralDensity, a_value: float) -> noise_mod.CoherenceCurve:
    """exp(-chi(T; A)) on 28 times from 0.15 to 2.1 times its 1/e time.

    Raises InvalidParameter when chi(T; A) does not cross 1.
    """
    return noise_mod.coherence_decay(S, a_value, _auto_decay_grid(S, a_value))


# the knot mesh's tolerance for the Monte-Carlo decay samples: on the
# 4-run example scan the fitted T2g lies within 1.1e-5 us of one at 1e-10
_MC_TOL = 1e-3


def _mc_decay_samples(S, a_value, omega, t_grid, ensemble, seed, gamma):
    out = []
    for j, t in enumerate(t_grid):
        n_rot = max(1, int(round(a_value * omega * t / TWO_PI)))
        plan = sequences.build_berry(omega, n_rot, float(t))
        dt = min(S.tau_c / 10.0, float(t) / 128.0)
        bank = noise_mod.ou_bank(S, float(t), dt, ensemble, (seed, j))
        p = sequences.execute_batch(plan, np.zeros(ensemble),
                                    noise_trajectory=bank, tol=_MC_TOL,
                                    gamma=gamma)
        out.append((float(t), float(np.mean(p))))
    return np.asarray(out)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def to_jsonl(result: SweepResult, fits: Sequence[PowerLawFit] = ()) -> str:
    """Line-delimited records with canonical float formatting."""
    lines = []
    for r in result.records:
        obj = {
            "record": "point",
            "index": r.index,
            "protocol": r.protocol,
            "engine": r.engine,
            "omega_MHz": fmt(None if r.omega is None else r.omega / (TWO_PI * 1e6)),
            "N": "" if r.n_rotations is None else int(r.n_rotations),
            "T_us": fmt(r.duration * 1e6),
            "adiabaticity": fmt(r.adiabaticity),
            "eta": fmt(r.eta),
            "max_slope": fmt(r.max_slope),
            "B_max_mT": fmt(None if r.b_max is None else r.b_max * 1e3),
            "T2g_us": fmt(None if r.t2g is None else r.t2g * 1e6),
            "status": r.status,
            "error": r.error,
        }
        lines.append(json.dumps(obj, sort_keys=True))
    for f in fits:
        obj = {
            "record": "power_law_fit",
            "response": f.response,
            "exponents": {k: fmt(v) for k, v in sorted(f.exponents.items())},
            "stderr": {k: fmt(v) for k, v in sorted(f.stderr.items())},
            "residual_rms": fmt(f.residual_rms),
            "n_points": f.n_points,
        }
        lines.append(json.dumps(obj, sort_keys=True))
    return "\n".join(lines) + "\n"

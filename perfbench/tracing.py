"""Spans around phasemag's public functions, recorded from outside the package.

``Tracer.install`` replaces every module-level binding of each traced
function inside the ``phasemag`` package with a wrapper, so calls are caught
however a module reached the function (``harness`` imports
``decoherence_function`` by name, the package root re-exports everything).
Each span records name, layer, start, end, parent span and request id.
Spans stay in memory; ``write`` dumps them once when the run ends.

Calls made inside ``harness.run_sweep`` worker processes are not seen: a
``workers > 1`` sweep shows up as harness self time.
"""

from __future__ import annotations

import json
import sys
import time

# layer -> (module, public functions traced in it)
TRACED = {
    "core": ("phasemag.core", ("propagate_swept_report", "propagate_swept")),
    "sequences": ("phasemag.sequences", ("execute", "execute_batch")),
    "analytic": ("phasemag.analytic", (
        "ramsey_signal", "ramsey_slope", "ramsey_ambiguities",
        "ramsey_field_range", "berry_signal", "berry_slope",
        "berry_phase_argument", "berry_field_range", "sensitivity",
        "hyperfine_average", "adiabaticity", "adiabaticity_small_field")),
    "noise": ("phasemag.noise", (
        "ramsey_exponent", "echo_exponent", "decoherence_function",
        "coherence_decay", "fit_T2g", "calibrate_noise", "ou_trajectory",
        "ou_bank", "mc_free_precession_decay", "spectral_overlay")),
    "estimate": ("phasemag.estimate", (
        "measure_geometric", "measure_dynamic", "geometric_candidates",
        "estimate_geometric", "estimate_dynamic")),
    "harness": ("phasemag.harness", (
        "run_sweep", "fit_power_law", "smart_control_curve",
        "nonadiabatic_sensitivity_scan", "decoherence_regime_scan")),
    "cli": ("phasemag.cli", ("main",)),
}

# Every per-layer metric, in report order, with its unit.
PER_LAYER_UNITS = {
    "import.phasemag_s": "s",
    "import.scipy_s": "s",
    "core.calls": "count",
    "core.busy_s": "s",
    "core.mesh_steps": "count",
    "core.refine_depth_max": "count",
    "core.us_per_step": "us",
    "sequences.clean_calls": "count",
    "sequences.clean_busy_s": "s",
    "sequences.clean_fields": "count",
    "sequences.clean_s_per_field": "s",
    "sequences.noisy_calls": "count",
    "sequences.noisy_busy_s": "s",
    "sequences.noisy_field_trajs": "count",
    "sequences.noisy_s_per_field_traj": "s",
    "sequences.max_ref_err": "abs",
    "analytic.calls": "count",
    "analytic.busy_s": "s",
    "noise.quad_calls": "count",
    "noise.quad_busy_s": "s",
    "noise.quad_lorentz_ms_per_call": "ms",
    "noise.quad_other_ms_per_call": "ms",
    "noise.calibrate_calls": "count",
    "noise.calibrate_busy_s": "s",
    "noise.quad_per_calibrate": "count",
    "noise.setup_calibrate_s": "s",
    "noise.fit_calls": "count",
    "noise.fit_busy_s": "s",
    "noise.ou_samples": "count",
    "noise.ou_busy_s": "s",
    "noise.ns_per_ou_sample": "ns",
    "noise.mc_calls": "count",
    "noise.mc_busy_s": "s",
    "noise.mc_trajectories": "count",
    "estimate.calls": "count",
    "estimate.busy_s": "s",
    "estimate.candidates": "count",
    "estimate.resolved_frac": "ratio",
    "harness.calls": "count",
    "harness.self_s": "s",
    "harness.points": "count",
    "harness.point_ok_frac": "ratio",
    "harness.pool_speedup": "ratio",
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "split.clean_propagation_frac": "ratio",
    "split.noisy_ensemble_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

# span record fields
NAME, LAYER, START, END, PARENT, REQUEST, INFO = range(7)


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _info_core(args, kwargs, out):
    report = out[1]
    return {"steps": report.steps, "depth": len(report.error_history)}


def _info_sequences(args, kwargs, out):
    noisy = _arg(args, kwargs, 2, "noise_trajectory") is not None
    return {"fields": int(out.size) if hasattr(out, "size") else 1,
            "noisy": noisy}


def _info_execute(args, kwargs, out):
    return {"fields": 1, "noisy": _arg(args, kwargs, 2, "noise_trajectory") is not None}


def _info_quad(args, kwargs, out):
    return {"lorentz": type(_arg(args, kwargs, 0, "S")).__name__ == "Lorentzian"}


def _info_ou(args, kwargs, out):
    return {"samples": int(out.values.size)}


def _info_mc(args, kwargs, out):
    return {"trajectories": int(_arg(args, kwargs, 2, "n_traj"))}


def _info_estimate_geometric(args, kwargs, out):
    return {"candidates": out.candidates_considered, "resolved": True}


def _info_estimate_dynamic(args, kwargs, out):
    return {"candidates": len(out), "resolved": len(out) == 1}


def _info_sweep(args, kwargs, out):
    return {"points": len(out.records),
            "ok": sum(r.status == "ok" for r in out.records)}


def _info_regime(args, kwargs, out):
    return {"points": len(out), "ok": sum(r.status == "ok" for r in out)}


INFO_FNS = {
    "propagate_swept_report": _info_core,
    "execute": _info_execute,
    "execute_batch": _info_sequences,
    "ramsey_exponent": _info_quad,
    "echo_exponent": _info_quad,
    "ou_trajectory": _info_ou,
    "ou_bank": _info_ou,
    "mc_free_precession_decay": _info_mc,
    "estimate_geometric": _info_estimate_geometric,
    "estimate_dynamic": _info_estimate_dynamic,
    "run_sweep": _info_sweep,
    "decoherence_regime_scan": _info_regime,
}


class Tracer:
    """Span recorder plus the patch that feeds it."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.request = None
        self._patched = []  # (module, attribute, original)

    def _wrap(self, layer, name, fn):
        spans, stack, info_fn = self.spans, self._stack, INFO_FNS.get(name)
        qualname = f"{layer}.{name}"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [qualname, layer, clock(), 0.0,
                   stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if info_fn is not None:
                rec[INFO] = info_fn(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        """Patch every binding of every traced function in loaded phasemag modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "phasemag" or n.startswith("phasemag."))]
        for layer, (modname, names) in TRACED.items():
            home = sys.modules[modname]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT],
                                     "request": s[REQUEST], "info": s[INFO]},
                                    sort_keys=True) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, timed, passes, pass_seconds):
    """Per-layer metrics from the spans recorded during ``passes`` traced passes.

    ``timed`` holds the request ids of those passes; spans of other requests
    (set-up, checks) are left out.  Counts and busy times are per pass;
    ``pass_seconds`` is the summed wall time of the traced passes.
    """
    n = len(spans)
    keep = [s[REQUEST] in timed for s in spans]
    child = [0.0] * n
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]

    def has_ancestor(i, pred):
        p = spans[i][PARENT]
        while p >= 0:
            if pred(spans[p]):
                return True
            p = spans[p][PARENT]
        return False

    def select(pred, outermost=True):
        return [spans[i] for i in range(n) if keep[i] and pred(spans[i])
                and not (outermost and has_ancestor(i, pred))]

    def busy(group):
        return sum(s[END] - s[START] for s in group)

    def info(s, key, default=0):
        return s[INFO][key] if s[INFO] else default

    def named(*names):
        return lambda s: s[NAME] in names

    def layer(name):
        return lambda s: s[LAYER] == name

    per = 1.0 / passes
    m = {}

    core = select(layer("core"))
    steps = sum(info(s, "steps") for s in core)
    m["core.calls"] = len(core) * per
    m["core.busy_s"] = busy(core) * per
    m["core.mesh_steps"] = steps * per
    m["core.refine_depth_max"] = max((info(s, "depth") for s in core), default=0)
    m["core.us_per_step"] = _ratio(busy(core) * 1e6, steps)

    def clean(s):
        return s[LAYER] == "sequences" and not info(s, "noisy", False)

    def noisy(s):
        return s[LAYER] == "sequences" and info(s, "noisy", False)

    for label, pred, unit in (("clean", clean, "field"),
                              ("noisy", noisy, "field_traj")):
        group = select(pred)
        fields = sum(info(s, "fields") for s in group)
        m[f"sequences.{label}_calls"] = len(group) * per
        m[f"sequences.{label}_busy_s"] = busy(group) * per
        m[f"sequences.{label}_{unit}s"] = fields * per
        m[f"sequences.{label}_s_per_{unit}"] = _ratio(busy(group), fields)

    ana = select(layer("analytic"))
    m["analytic.calls"] = len(ana) * per
    m["analytic.busy_s"] = busy(ana) * per

    is_quad = named("noise.ramsey_exponent", "noise.echo_exponent")
    quad = select(is_quad, outermost=False)
    lor = [s for s in quad if info(s, "lorentz", False)]
    other = [s for s in quad if not info(s, "lorentz", False)]
    m["noise.quad_calls"] = len(quad) * per
    m["noise.quad_busy_s"] = busy(quad) * per
    m["noise.quad_lorentz_ms_per_call"] = _ratio(busy(lor) * 1e3, len(lor))
    m["noise.quad_other_ms_per_call"] = _ratio(busy(other) * 1e3, len(other))
    is_cal = named("noise.calibrate_noise")
    cal = select(is_cal)
    quad_in_cal = sum(1 for i in range(n)
                      if keep[i] and is_quad(spans[i]) and has_ancestor(i, is_cal))
    m["noise.calibrate_calls"] = len(cal) * per
    m["noise.calibrate_busy_s"] = busy(cal) * per
    m["noise.quad_per_calibrate"] = _ratio(quad_in_cal, len(cal))
    fit = select(named("noise.fit_T2g"))
    m["noise.fit_calls"] = len(fit) * per
    m["noise.fit_busy_s"] = busy(fit) * per
    ou = select(named("noise.ou_bank", "noise.ou_trajectory"))
    samples = sum(info(s, "samples") for s in ou)
    m["noise.ou_samples"] = samples * per
    m["noise.ou_busy_s"] = busy(ou) * per
    m["noise.ns_per_ou_sample"] = _ratio(busy(ou) * 1e9, samples)
    mc = select(named("noise.mc_free_precession_decay"))
    m["noise.mc_calls"] = len(mc) * per
    m["noise.mc_busy_s"] = busy(mc) * per
    m["noise.mc_trajectories"] = sum(info(s, "trajectories") for s in mc) * per

    est = select(named("estimate.estimate_geometric", "estimate.estimate_dynamic"))
    m["estimate.calls"] = len(est) * per
    m["estimate.busy_s"] = busy(est) * per
    m["estimate.candidates"] = sum(info(s, "candidates") for s in est) * per
    m["estimate.resolved_frac"] = _ratio(
        sum(1 for s in est if info(s, "resolved", False)), len(est))

    graded = select(named("harness.run_sweep", "harness.decoherence_regime_scan"))
    points = sum(info(s, "points") for s in graded)
    m["harness.calls"] = len(select(layer("harness"))) * per
    m["harness.self_s"] = sum(s[END] - s[START] - child[i] for i, s in enumerate(spans)
                              if keep[i] and s[LAYER] == "harness") * per
    m["harness.points"] = points * per
    m["harness.point_ok_frac"] = _ratio(sum(info(s, "ok") for s in graded), points)

    m["cli.calls"] = len(select(layer("cli"))) * per
    m["cli.self_s"] = sum(s[END] - s[START] - child[i] for i, s in enumerate(spans)
                          if keep[i] and s[LAYER] == "cli") * per

    def clean_prop(s):
        return clean(s) or s[LAYER] == "core"

    noisy_names = named("noise.ou_bank", "noise.ou_trajectory",
                        "noise.mc_free_precession_decay")

    def noisy_ens(s):
        return noisy(s) or noisy_names(s)

    m["split.clean_propagation_frac"] = _ratio(busy(select(clean_prop)), pass_seconds)
    m["split.noisy_ensemble_frac"] = _ratio(busy(select(noisy_ens)), pass_seconds)
    return m

"""Tracer patching, span arithmetic, result parsing and BENCHMARK.json."""

import dataclasses
import json
import math
import os

import pytest

import child
import run
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture
def pm():
    import phasemag
    import phasemag.cli  # noqa: F401  (the tracer patches every loaded module)
    return phasemag


def test_install_patches_every_binding_and_uninstall_restores(pm):
    original = pm.noise.decoherence_function
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod in (pm, pm.noise, pm.harness):
            assert mod.decoherence_function is not original
            assert mod.decoherence_function.__wrapped__ is original
        assert pm.cli.main.__wrapped__ is not None
    finally:
        tracer.uninstall()
    for mod in (pm, pm.noise, pm.harness):
        assert mod.decoherence_function is original


def test_spans_nest_and_self_time_excludes_children(pm):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.request = "p0.r0"
        bath = pm.noise.Lorentzian(2.0 * math.pi * 5e3, 20e-6)
        pm.noise.coherence_decay(bath, 0.3, [5e-6, 10e-6])
    finally:
        tracer.uninstall()
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[0] == "noise.coherence_decay"
    assert names.count("noise.decoherence_function") == 2
    assert names.count("noise.ramsey_exponent") == 2
    for s in tracer.spans[1:]:
        assert s[tracing.PARENT] >= 0
        parent = tracer.spans[s[tracing.PARENT]]
        assert parent[tracing.START] <= s[tracing.START] <= s[tracing.END] <= parent[tracing.END]
        assert s[tracing.REQUEST] == "p0.r0"
    wall = tracer.spans[0][tracing.END] - tracer.spans[0][tracing.START]
    m = tracing.layer_metrics(tracer.spans, {"p0.r0"}, 1, wall)
    assert m["noise.quad_calls"] == 4
    assert m["noise.quad_lorentz_ms_per_call"] > 0
    assert m["noise.quad_other_ms_per_call"] == 0
    assert m["noise.quad_busy_s"] <= wall
    assert tracing.layer_metrics(tracer.spans, {"other"}, 1, wall)["noise.quad_calls"] == 0


def test_tail_has_ten_samples_beyond_it():
    assert child.MIN_TAIL_SAMPLES * (100.0 - child.TAIL_PERCENTILE) / 100.0 >= 10.0


def test_parse_importtime_takes_outermost_scipy():
    # post-order, two spaces per nesting level: scipy and scipy.optimize._x
    # are children of scipy.optimize, the only outermost scipy module
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:        10 |         60 |     scipy",
        "import time:        40 |        100 |     scipy.optimize._x",
        "import time:        20 |        400 |   scipy.optimize",
        "import time:         5 |        900 | phasemag",
    ])
    phasemag_s, scipy_s = run.parse_importtime(text)
    assert phasemag_s == pytest.approx(900e-6)
    assert scipy_s == pytest.approx(400e-6)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert max(m["bound"] for m in spec["end_to_end"]) == \
        next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("kind, perturb", [
    ("lib.execute_batch.berry", lambda p: p + 2e-5),
    ("lib.decoherence_function.lorentz",
     lambda t: type(t)(geometric=t.geometric, dynamic=t.dynamic * (1 + 2e-6))),
])
def test_checks_reject_a_small_error(pm, tmp_path, kind, perturb):
    ctx = workloads.Context(pm=pm, work_dir=str(tmp_path), nproc=1, gamma=pm.NV.gamma)
    name = "signal_numeric" if kind.startswith("lib.execute") else "analysis"
    req = next(r for r in workloads.build(name, ctx, 7) if r.kind == kind)
    result = req.call()
    req.check(result)
    with pytest.raises(workloads.CheckFailed):
        req.check(perturb(result))


def test_ramp_check_catches_a_defect_that_time_reversal_cancels(pm, tmp_path, monkeypatch):
    ctx = workloads.Context(pm=pm, work_dir=str(tmp_path), nproc=1, gamma=pm.NV.gamma)
    req = next(r for r in workloads.build("signal_numeric", ctx, 7)
               if r.kind == "lib.propagate_swept_report")
    req.check(req.call())
    exact = pm.core.propagate_swept_report
    # a Rabi rate off by 0.1 % in forward and backward propagation alike
    monkeypatch.setattr(pm.core, "propagate_swept_report",
                        lambda state, rabi, *rest: exact(state, rabi * 1.001, *rest))
    with pytest.raises(workloads.CheckFailed, match="ODE reference"):
        req.check(req.call())


def test_a_call_that_writes_nothing_fails_on_a_later_pass(pm, tmp_path):
    ctx = workloads.Context(pm=pm, work_dir=str(tmp_path), nproc=1, gamma=pm.NV.gamma)
    req = next(r for r in workloads.build("analysis", ctx, 7) if r.kind == "cli.calibrate")
    results, _, _ = child.run_requests([req], None, "p0", [])
    assert child.check_pass([req], results)[0] == []
    silent = dataclasses.replace(req, call=lambda: "")
    results, _, _ = child.run_requests([silent], None, "p1", [])
    assert len(child.check_pass([silent], results)[0]) == 1

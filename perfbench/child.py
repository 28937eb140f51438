"""One benchmark workload in a fresh interpreter; started by ``run.py``.

``--setup-only`` imports phasemag, does the workload's one-time set-up,
prints ``READY`` with the CPU seconds spent since the process started
(scaled, then raw), and exits.
Otherwise the child runs whole passes over the seeded request list until
``--seconds`` is spent, but never fewer untraced passes than give the tail
percentile ``MIN_TAIL_SAMPLES`` samples, however slow a pass is.  It checks
every output after each pass (outside the timed region), repeats one CLI
request at the end to check byte-identical output, and prints one
``RESULT <json>`` line.

With ``--trace 1`` passes alternate untraced / traced; per-layer metrics
come from the traced passes and ``trace.overhead_frac`` compares the two.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

# The tail is always p90 over at least 100 samples (10 beyond it), so a
# slower or faster build changes the sample count, never the percentile.
TAIL_PERCENTILE = 90.0
MIN_TAIL_SAMPLES = 100
MAX_REPORTED_FAILURES = 5
# CPU seconds of reference_kernel() on the machine the benchmark's bounds were
# set on (2-core VM, Python 3.11.7, numpy 2.4.6); one sample per 6 requests.
REFERENCE_S = 0.020
REFERENCE_EVERY = 6


def percentile(values, p):
    return float(np.percentile(np.asarray(values, dtype=float), p))


def import_phasemag():
    import phasemag
    import phasemag.cli  # the console entry point; the package does not load it
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(phasemag.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported phasemag from {phasemag.__file__}, not {src}")
    return phasemag


def cpu_clock():
    """CPU seconds of this process plus its reaped children (sweep workers)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_kernel():
    """CPU seconds of fixed work that never touches phasemag.

    An interpreter loop and a pairwise product of 65536 3x3 matrices: the
    two kinds of work the workloads do.  Its time tracks how fast the
    machine runs at the moment, so measured times can be scaled to a
    nominal speed (``REFERENCE_S``).
    """
    c0 = time.process_time()
    x = 0.0
    for k in range(100000):
        x = 0.9 * x + (k % 7)
    a = np.random.default_rng(0).standard_normal((65536, 3, 3))
    while a.shape[0] > 1:
        a = np.matmul(a[1::2], a[0::2]) / 3.0
    return time.process_time() - c0


def speed_scale(reference_samples):
    """Factor that turns CPU seconds measured now into nominal-speed seconds."""
    return REFERENCE_S / statistics.median(reference_samples)


def run_requests(requests, tracer, label, refs):
    """One timed pass over every request.

    A reference sample goes into ``refs`` before every ``REFERENCE_EVERY``-th
    request, and each request's output files are deleted before it runs, so
    its check reads only what this call wrote; both happen outside the timed
    calls.  Returns (results, per-request CPU s, per-request wall s).
    """
    results, cpu, wall = [], [], []
    for j, req in enumerate(requests):
        if j % REFERENCE_EVERY == 0:
            refs.append(reference_kernel())
        remove_outputs(req)
        if tracer is not None:
            tracer.request = f"{label}.r{j}"
        c0, w0 = cpu_clock(), time.perf_counter()
        try:
            res, err = req.call(), None
        except Exception as exc:  # a failed request is counted, not fatal
            res, err = None, f"{type(exc).__name__}: {exc}"
        cpu.append(cpu_clock() - c0)
        wall.append(time.perf_counter() - w0)
        results.append((res, err))
    return results, cpu, wall


def check_pass(requests, results):
    """Check every output; return (failure messages, bytes written)."""
    failures, nbytes = [], 0
    for req, (res, err) in zip(requests, results):
        if err is None:
            try:
                req.check(res)
            except Exception as exc:
                err = f"{type(exc).__name__}: {exc}"
        if err is not None:
            failures.append(f"{req.kind}: {err}")
        if req.kind.startswith("cli.") and isinstance(res, str):
            nbytes += len(res.encode())
        nbytes += sum(os.path.getsize(p) for p in req.outputs if os.path.exists(p))
    return failures, nbytes


def remove_outputs(req):
    for p in req.outputs:
        if os.path.exists(p):
            os.remove(p)


def read_outputs(req):
    out = []
    for p in req.outputs:
        try:
            with open(p, "rb") as fh:
                out.append(fh.read())
        except FileNotFoundError:
            out.append(None)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--nproc", type=int, required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    pm = import_phasemag()
    import workloads
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.request = "setup"
    baths = workloads.setup(args.workload, pm)
    if args.setup_only:
        setup_cpu = cpu_clock()
        scale = speed_scale([reference_kernel() for _ in range(5)])
        print(f"READY {setup_cpu * scale!r} {setup_cpu!r}", flush=True)
        return 0

    import scipy

    ctx = workloads.Context(pm=pm, work_dir=args.work_dir, nproc=args.nproc,
                            gamma=pm.NV.gamma, baths=baths)
    requests = workloads.build(args.workload, ctx, args.seed)
    det_req = workloads.determinism_request(args.workload, requests)
    det_bytes = None
    # a traced run needs one untraced and one traced pass; an untraced run
    # needs MIN_TAIL_SAMPLES requests for its tail, even past --seconds
    min_passes = 2 if tracer is not None else -(-MIN_TAIL_SAMPLES // len(requests))

    attempted = failed = 0
    failures = []
    pass_cpu = {False: [], True: []}
    refs = {False: [], True: []}
    pass_wall = {False: [], True: []}
    req_cpu = []
    kind_wall = {}
    bytes_per_pass = []
    timed_ids = set()
    loop_start = time.perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        if tracer is not None:
            (tracer.install if traced else tracer.uninstall)()
        pass_start = time.perf_counter()
        results, cpu, wall = run_requests(requests, tracer, f"p{k}",
                                          refs[traced])
        if tracer is not None:
            if traced:
                timed_ids.update(f"p{k}.r{j}" for j in range(len(requests)))
            tracer.request = f"p{k}.check"
        fails, nbytes = check_pass(requests, results)
        attempted += len(requests)
        failed += len(fails)
        failures.extend(fails[:MAX_REPORTED_FAILURES - len(failures)])
        pass_cpu[traced].append(sum(cpu))
        pass_wall[traced].append(sum(wall))
        if not traced:
            req_cpu.extend(cpu)
            for req, t in zip(requests, wall):
                kind_wall.setdefault(req.kind, []).append(t)
        bytes_per_pass.append(nbytes)
        if det_req is not None and det_bytes is None:
            det_bytes = read_outputs(det_req)
        k += 1
        elapsed = time.perf_counter() - loop_start
        if k >= min_passes and \
                elapsed + (time.perf_counter() - pass_start) > args.seconds:
            break

    if tracer is not None:
        tracer.uninstall()
    if det_req is not None:
        attempted += 1
        remove_outputs(det_req)
        try:
            det_req.call()
            if read_outputs(det_req) != det_bytes:
                raise RuntimeError("output bytes differ from the first run")
        except Exception as exc:
            failed += 1
            failures.append(f"determinism {det_req.kind}: {type(exc).__name__}: {exc}")

    n = len(req_cpu)
    scale = speed_scale(refs[False])
    out = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:MAX_REPORTED_FAILURES],
        "passes": k,
        "requests_per_pass": len(requests),
        "samples": n,
        "tail_percentile": TAIL_PERCENTILE,
        "pass_cpu": pass_cpu[False],
        "pass_wall": pass_wall[False],
        "speed_scale": scale,
        "run_s": statistics.median(pass_cpu[False]) * scale,
        "request_p50_s": percentile(req_cpu, 50.0) * scale,
        "request_tail_s": percentile(req_cpu, TAIL_PERCENTILE) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "phasemag": pm.__version__},
    }
    if tracer is not None:
        from tracing import layer_metrics
        m = layer_metrics(tracer.spans, timed_ids, len(pass_wall[True]),
                          sum(pass_wall[True]))
        m["noise.setup_calibrate_s"] = sum(
            s[3] - s[2] for s in tracer.spans
            if s[5] == "setup" and s[0] == "noise.calibrate_noise")
        m["sequences.max_ref_err"] = ctx.max_ref_err
        w1, w2 = (kind_wall.get(f"lib.run_sweep.workers{w}") for w in (1, 2))
        m["harness.pool_speedup"] = (statistics.median(w1) / statistics.median(w2)
                                     if w1 and w2 else 0.0)
        m["cli.bytes_out"] = statistics.median(bytes_per_pass)
        m["trace.overhead_frac"] = (
            statistics.median(pass_cpu[True]) * speed_scale(refs[True])
            / (statistics.median(pass_cpu[False]) * scale) - 1.0)
        out["per_layer"] = m
        if args.spans:
            tracer.write(args.spans)
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

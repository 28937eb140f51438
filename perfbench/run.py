#!/usr/bin/env python3
"""phasemag benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; phasemag is imported from ``src/``.
Workloads: signal_numeric, noise_ensemble, analysis (see workloads.py).

``--trace 0`` reports the end-to-end metrics:
  setup_s         median time a fresh interpreter takes to import phasemag and
                  finish the workload's set-up (three probes before the
                  workload process and three after)
  run_s           median time of one pass over the seeded request list
  request_p50_s   median time per request
  request_tail_s  per-request time at p90, over at least 100 requests
                  (sample count printed above the result)
All times are CPU seconds of the measured process and its reaped children
(sweep workers), scaled to a nominal machine speed: each process also times
a fixed reference kernel that never touches phasemag, and its times are
multiplied by nominal / measured reference time.  On a shared virtual
machine wall time also holds the time the hypervisor gives the CPU to
another guest (7-20 % of a pass here), and the CPU itself runs up to a
third slower or faster from one minute to the next; neither says anything
about phasemag.  Raw CPU and wall times are printed for reference.
  peak_rss_mb     peak resident memory of the workload process
``--trace 1`` runs the workload again with spans around every public
function and reports the per-layer metrics instead.

Every request's output is checked against an independent closed form; the
last stdout line is one JSON object with keys correct, attempted, failed and
metrics.  The workload runs in a fresh child process so that set-up and
memory belong to it alone.  BLAS/OpenMP thread counts are capped at nproc
(1 when unset) and sweep workers at min(2, nproc).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("signal_numeric", "noise_ensemble", "analysis")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 6
IMPORT_PROBES = 3
# time allowed beyond --seconds for the probes, the workload process's
# minimum passes and its last pass
MARGIN_S = 140.0

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "request_p50_s": "s",
                    "request_tail_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    pass


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("time budget exhausted")
        return left


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env(n):
    env = dict(os.environ)
    for var in THREAD_VARS:
        try:
            value = int(env.get(var, "1"))
        except ValueError:
            value = 1
        env[var] = str(max(1, min(value, n)))
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def setup_probe(cmd, env, deadline):
    """(scaled, raw) CPU seconds a fresh interpreter spends until READY."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=deadline.left())
    finally:
        _stop(proc)
    words = out.split()
    if proc.returncode != 0 or len(words) != 3 or words[0] != "READY":
        raise BenchError(f"set-up probe failed: {err.strip()[-2000:]}")
    return float(words[1]), float(words[2])


def import_probe(env, deadline):
    """(phasemag, scipy) cumulative import seconds from ``-X importtime``."""
    res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import phasemag"],
                         capture_output=True, text=True, env=env, cwd=ROOT,
                         timeout=deadline.left())
    if res.returncode != 0:
        raise BenchError(f"import probe failed: {res.stderr.strip()[-2000:]}")
    return parse_importtime(res.stderr)


def parse_importtime(text):
    """Cumulative seconds of phasemag and of scipy's outermost imports."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # header line
        name = parts[2]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, name.strip(), cumulative * 1e-6))
    phasemag = next((c for d, n, c in rows if n == "phasemag"), 0.0)
    scipy = 0.0
    ancestors = []  # walk in reverse: parents precede children
    for depth, name, cumulative in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a[1] for a in ancestors):
            scipy += cumulative
        ancestors.append((depth, is_scipy))
    return phasemag, scipy


def run_child(args, env, work_dir, n, deadline, spans=None):
    cmd = [sys.executable, CHILD, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--nproc", str(n)]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=deadline.left())
    except subprocess.TimeoutExpired:
        raise BenchError("workload process timed out")
    finally:
        _stop(proc)
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process failed ({proc.returncode}): {err.strip()[-2000:]}")
    return json.loads(lines[-1][len("RESULT "):])


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "phasemag", "__init__.py")):
        print(f"error: no phasemag sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    # a terminated run still stops and reaps its workload process (finally blocks)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = Deadline(args.seconds + MARGIN_S)
    n = nproc()
    env = child_env(n)
    work_dir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        probe = [sys.executable, CHILD, "--setup-only", "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", "0", "--work-dir", work_dir,
                 "--nproc", str(n)]
        if args.trace:
            imports = [import_probe(env, deadline) for _ in range(IMPORT_PROBES)]
            spans_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(spans_dir, exist_ok=True)
            spans = os.path.join(spans_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
            res = run_child(args, env, work_dir, n, deadline, spans)
        else:
            # half the probes before and half after the workload, so set-up is
            # sampled in two machine phases
            setup = [setup_probe(probe, env, deadline) for _ in range(SETUP_PROBES // 2)]
            res = run_child(args, env, work_dir, n, deadline)
            setup += [setup_probe(probe, env, deadline) for _ in range(SETUP_PROBES // 2)]
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    v = res["versions"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print(f"env python {v['python']} numpy {v['numpy']} scipy {v['scipy']} "
          f"phasemag {v['phasemag']} nproc {n} "
          + " ".join(f"{k}={env[k]}" for k in THREAD_VARS))
    print(f"passes {res['passes']} x {res['requests_per_pass']} requests"
          + ("" if args.trace else f"; request_tail_s is p{res['tail_percentile']:g} "
             f"of {res['samples']} untraced samples"))
    print("untraced passes, raw CPU s: " + " ".join(f"{w:.4f}" for w in res["pass_cpu"]))
    print("untraced passes, wall s: " + " ".join(f"{w:.4f}" for w in res["pass_wall"]))
    print(f"speed scale {res['speed_scale']:.4f}")
    if not args.trace:
        print(f"set-up raw CPU s: {statistics.median(r for _, r in setup):.4f}")
    for f in res["failures"]:
        print(f"FAILED {f}")

    if args.trace:
        from tracing import PER_LAYER_UNITS
        m = dict(res["per_layer"])
        m["import.phasemag_s"] = statistics.median(p for p, _ in imports)
        m["import.scipy_s"] = statistics.median(s for _, s in imports)
        metrics = {k: metric(m[k], u) for k, u in PER_LAYER_UNITS.items()}
        print(f"spans written to {os.path.relpath(spans, ROOT)}")
    else:
        values = {"setup_s": statistics.median(s for s, _ in setup), "run_s": res["run_s"],
                  "request_p50_s": res["request_p50_s"],
                  "request_tail_s": res["request_tail_s"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: metric(values[k], u) for k, u in END_TO_END_UNITS.items()}
    for name, mv in metrics.items():
        print(f"  {name:36s} {mv['value']:.6g} {mv['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

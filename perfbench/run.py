#!/usr/bin/env python3
"""Run one workload of the qstatwork benchmark and print its metrics.

    python3 perfbench/run.py --workload fig3-smooth --seed 1 --seconds 18 --trace 0

The run repeats the workload's call list until ``--seconds`` have
passed.  The first list is a warm-up; ``wall_s`` is the median of the
others, scaled to a nominal machine speed by slices of a fixed
calibration kernel run between the calls (see ``calibration_s``).
Between the first lists it times ``SETUP_PROBES`` fresh interpreters
that import qstatwork and generate the seeded inputs; ``setup_s`` is
their median, scaled to nominal speed by a baseline interpreter (see
``setup_probe``).  Every output is checked against the paper's checks
and against the reference values in
``references.json``.  With ``--trace 1`` the run alternates untraced and
traced call lists and prints the per-layer metrics, unscaled, instead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run record with the environment and source state goes to
``perfbench/out/``, and the traced run writes its spans there as well.
"""

from __future__ import annotations

import os

# One BLAS thread: sweep threads x BLAS threads stays within the cores, and
# the reduction order, hence every value, repeats exactly.  This has to be
# set before NumPy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import functools
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "qstatwork"
OUT = BENCH_DIR / "out"
REFERENCES = BENCH_DIR / "references.json"

SETUP_PROBES = 5
SETUP_BASELINE = "import numpy, scipy.special, mpmath"
SETUP_NOMINAL_S = 0.45   # baseline interpreter time at nominal speed (2-core x86-64 box)
CAL_ITERATIONS = {"small": 6000, "dense": 700}
CAL_NOMINAL_S = 0.05     # calibration kernel time at nominal speed (2-core x86-64 box)
REF_RTOL = 1e-9          # largest relative deviation from a reference that passes

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "dynamics.run_cycle.smooth.busy_s": "s",
    "dynamics.run_cycle.smooth.calls": "count",
    "dynamics.sector_steps": "count",
    "dynamics.us_per_sector_step": "us",
    "dynamics.run_cycle.impulse.busy_s": "s",
    "dynamics.adiabaticity_witness.busy_s": "s",
    "dynamics.unitarity_residual_max": "1",
    "dynamics.trace_drift_max": "1",
    "dynamics.leakage_max": "1",
    "analytics.compute_amplitudes.busy_s": "s",
    "analytics.compute_amplitudes.calls": "count",
    "analytics.enhancement.busy_s": "s",
    "analytics.enhancement.calls": "count",
    "analytics.general_work.busy_s": "s",
    "analytics.enhancement_region.busy_s": "s",
    "analytics.moment_f.busy_s": "s",
    "analytics.moment_f.points": "count",
    "analytics.moment_f.band_points": "count",
    "analytics.verify_inequalities.busy_s": "s",
    "analytics.failed": "count",
    "fermi.f_N.busy_s": "s",
    "fermi.f_N.calls": "count",
    "fermi.fermi_outcoupled_work.busy_s": "s",
    "sweeps.run_sweep.busy_s": "s",
    "sweeps.run_sweep.cells": "count",
    "sweeps.run_sweep.cells_failed": "count",
    "sweeps.overhead_s": "s",
    "sweeps.thread_speedup": "1",
    "trace.uncovered_s": "s",
    "trace_overhead_frac": "1",
}


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="how long the call lists are repeated")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting the per-layer metrics")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# one call list
# ---------------------------------------------------------------------------

def drift(out: dict, ref: dict | None, atol: float = 0.0) -> float:
    """Largest relative deviation of an op's outputs from its reference.

    A number within ``atol`` of its reference counts as no deviation.
    """
    if ref is None or set(out) != set(ref):
        return math.inf
    worst = 0.0
    for key, val in out.items():
        want = ref[key]
        if isinstance(want, (bool, str)) or isinstance(val, (bool, str)):
            d = 0.0 if val == want else 1.0
        elif val == want or abs(val - want) <= atol:
            d = 0.0
        else:
            d = abs(val - want) / abs(want) if want else math.inf
        worst = max(worst, d if d == d else math.inf)    # a NaN is a mismatch
    return worst


@dataclass
class Rep:
    """Outcome of one pass over a workload's call list."""

    wall: float             # summed time of the calls
    failed: set
    errors: list
    drift: float
    gap: float | None
    spans: list
    origin: float           # perf_counter at the start of the list
    speed: float | None     # speed factor from the calibration slices, if run


def run_rep(wl, references: dict, tracer=None, calibrate=False) -> Rep:
    """Call every op once, then apply the paper's checks and the references.

    Only the calls are timed.  With ``calibrate``, a slice of the
    calibration kernel runs before each call and after the last; the
    slices add up to one kernel run, and ``speed`` is ``CAL_NOMINAL_S``
    over their total time.  An op fails when it raises, fails a check,
    or deviates from its reference by more than ``REF_RTOL``.
    """
    outputs, failed, errors = {}, set(), []
    threads = wl.options["threads"] if any(op.layer == "sweeps" for op in wl.ops) else 1
    slice_iterations = max(1, CAL_ITERATIONS[wl.calibration] // (len(wl.ops) + 1))
    wall = cal = 0.0
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        for op in wl.ops:
            if calibrate:
                cal += calibration_s(wl.calibration, threads, slice_iterations)
            start = time.perf_counter()
            try:
                outputs[op.name] = op.call()
            except Exception:      # a raising op is counted, and the run goes on
                failed.add(op.name)
                errors.append({"op": op.name, "traceback": traceback.format_exc()})
            wall += time.perf_counter() - start
        if calibrate:
            cal += calibration_s(wl.calibration, threads, slice_iterations)
    speed = None
    if calibrate:
        share = slice_iterations * (len(wl.ops) + 1) / CAL_ITERATIONS[wl.calibration]
        speed = CAL_NOMINAL_S * share / cal
    check_failed, gap = wl.check(outputs)
    failed |= check_failed
    worst = 0.0
    atol = {op.name: op.atol for op in wl.ops}
    for name, out in outputs.items():
        d = drift(out, references.get(name), atol[name])
        if d > REF_RTOL:
            failed.add(name)
        worst = max(worst, d)
    spans = tracer.spans if tracer is not None else []
    return Rep(wall, failed, errors, worst, gap, spans, t0, speed)


def load_references(wl) -> dict:
    with open(REFERENCES) as fh:
        refs = json.load(fh)
    return refs["workloads"].get(wl.name, {}).get(str(wl.variant), {})


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@functools.cache
def _kernel_matrices():
    import numpy as np

    return (np.arange(256.0).reshape(16, 16) / 256.0 + 0j,
            np.arange(4096.0).reshape(64, 64) / 4096.0 / 64 + 0j)


def _kernel(kind: str, iterations: int) -> float:
    a, b = _kernel_matrices()
    x, y, acc = a, b, 0.0
    for _ in range(iterations):
        x = (x @ a) * 0.01 + a
        if kind == "dense":
            y = y @ b + b
        acc += float(x[0, 0].real)       # scalar Python work, as in the steppers
    return acc


def calibration_s(kind: str, threads: int, iterations: int) -> float:
    """Wall time of a fixed kernel shaped like a workload's hot loop.

    A shared machine's speed drifts by tens of percent within seconds
    and minutes.  A call list's time is multiplied by ``CAL_NOMINAL_S``
    over the time of this kernel, run in slices between the list's calls
    so that it meets the same phases; this reports the list at nominal
    speed and cancels most of the drift.  The "small" kernel is
    interpreter-bound, like the engine propagators, quadrature and mpmath;
    the "dense" kernel adds a 64 x 64 complex matmul per iteration, like
    the split stepper on a dim-16 system.  The iterations are split over
    as many threads as the measured call list runs on, so that the kernel
    meets the same contention for cores and for the interpreter lock.
    """
    t0 = time.perf_counter()
    if threads == 1:
        # in the calling thread, which stays on the core the call list used
        _kernel(kind, iterations)
        return time.perf_counter() - t0
    workers = [threading.Thread(target=_kernel, args=(kind, max(1, iterations // threads)))
               for _ in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return time.perf_counter() - t0


def _interpreter_s(cmd) -> float:
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls every 50 ms and rounds the time up
    subprocess.run(cmd, check=True, cwd=ROOT)
    return time.perf_counter() - t0


def setup_probe(args) -> dict:
    """Time a fresh interpreter that imports qstatwork and builds the inputs.

    Import time follows the machine's slow phases, which last minutes,
    and the calibration kernel does not track it.  A baseline interpreter
    that only imports NumPy, SciPy and mpmath runs just before the probe;
    the probe is reported as ``scaled_s`` = probe time x
    ``SETUP_NOMINAL_S`` / baseline time.  Work that qstatwork's import or
    the input generation adds still shows in full.
    """
    base = _interpreter_s([sys.executable, "-c", SETUP_BASELINE])
    probe = _interpreter_s([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                            "--workload", args.workload, "--seed", str(args.seed)])
    return {"probe_s": probe, "baseline_s": base, "scaled_s": probe * SETUP_NOMINAL_S / base}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(rep: Rep, wl) -> dict:
    """Per-layer metrics of one traced call list."""
    import tracing

    agg = tracing.summarize(rep.spans)

    def busy(name):
        return agg.get(name, {}).get("busy_s", 0.0)

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def count(name, key):
        return agg.get(name, {}).get("counts", {}).get(key, 0)

    def worst(key):
        return max((agg.get(f"dynamics.run_cycle.{kind}", {}).get("max", {}).get(key, 0.0)
                    for kind in ("smooth", "impulse")), default=0.0)

    smooth = "dynamics.run_cycle.smooth"
    steps = count(smooth, "sector_steps")
    layer_of = {op.name: op.layer for op in wl.ops}
    return {
        "dynamics.run_cycle.smooth.busy_s": busy(smooth),
        "dynamics.run_cycle.smooth.calls": calls(smooth),
        "dynamics.sector_steps": steps,
        "dynamics.us_per_sector_step": 1e6 * busy(smooth) / steps if steps else 0.0,
        "dynamics.run_cycle.impulse.busy_s": busy("dynamics.run_cycle.impulse"),
        "dynamics.adiabaticity_witness.busy_s": busy("dynamics.adiabaticity_witness"),
        "dynamics.unitarity_residual_max": worst("unitarity_residual"),
        "dynamics.trace_drift_max": worst("trace_drift"),
        "dynamics.leakage_max": worst("leakage"),
        "analytics.compute_amplitudes.busy_s": busy("analytics.compute_amplitudes"),
        "analytics.compute_amplitudes.calls": calls("analytics.compute_amplitudes"),
        "analytics.enhancement.busy_s": busy("analytics.enhancement"),
        "analytics.enhancement.calls": calls("analytics.enhancement"),
        "analytics.general_work.busy_s": busy("analytics.general_work"),
        "analytics.enhancement_region.busy_s": busy("analytics.enhancement_region"),
        "analytics.moment_f.busy_s": busy("analytics.moment_f"),
        "analytics.moment_f.points": count("analytics.moment_f", "points"),
        "analytics.moment_f.band_points": count("analytics.moment_f", "band_points"),
        "analytics.verify_inequalities.busy_s": busy("analytics.verify_inequalities"),
        "analytics.failed": sum(layer_of.get(n) == "analytics" for n in rep.failed),
        "fermi.f_N.busy_s": busy("fermi.f_N"),
        "fermi.f_N.calls": calls("fermi.f_N"),
        "fermi.fermi_outcoupled_work.busy_s": busy("fermi.fermi_outcoupled_work"),
        "sweeps.run_sweep.busy_s": busy("sweeps.run_sweep"),
        "sweeps.run_sweep.cells": count("sweeps.run_sweep", "cells"),
        "sweeps.run_sweep.cells_failed": count("sweeps.run_sweep", "cells_failed"),
        "trace.uncovered_s": rep.wall - tracing.covered_s(rep.spans),
    }


def sweep_single_thread(wl, references, threaded_wall: float) -> tuple:
    """Run the sweep once on one thread: run_sweep's own time and the pool's speed-up."""
    import tracing

    threads = wl.options["threads"]
    wl.options["threads"] = 1
    try:
        rep = run_rep(wl, references, tracing.Tracer())
    finally:
        wl.options["threads"] = threads
    sweep_spans = [s for s in rep.spans if s.name == "sweeps.run_sweep"]
    return rep, {
        "sweeps.overhead_s": sum(tracing.self_time_s(s, rep.spans) for s in sweep_spans),
        "sweeps.thread_speedup": rep.wall / threaded_wall,
    }


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def source_state() -> dict:
    files = sorted(PACKAGE.glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    rev = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        rev = res.stdout.strip() or None
    return {"git_rev": rev, "src_sha256": digest.hexdigest(), "src_lines": lines}


def write_record(name: str, payload) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / name
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, default=str)
    return path


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def use_source() -> bool:
    """Put the checkout's ``src`` first on the import path; False if it is missing."""
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: qstatwork sources not found under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    if not use_source():
        return 2
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    if args.setup_probe:
        workloads.build(args.workload, args.seed)
        return 0

    wl = workloads.build(args.workload, args.seed)
    uses_pool = any(op.layer == "sweeps" for op in wl.ops)
    references = load_references(wl)
    reps = [run_rep(wl, references)]                  # warm-up
    deadline = time.perf_counter() + args.seconds - reps[0].wall
    untraced, traced, scaled_walls, setups = [], [], [], []
    if args.trace:
        import tracing
    while True:
        if args.trace and len(traced) < len(untraced):
            rep = run_rep(wl, references, tracing.Tracer())
            traced.append(rep)
        else:
            rep = run_rep(wl, references, calibrate=not args.trace)
            untraced.append(rep)
            if not args.trace:
                scaled_walls.append(rep.wall * rep.speed)
                if len(setups) < SETUP_PROBES:
                    # spread through the run; its time does not count against --seconds
                    t0 = time.perf_counter()
                    setups.append(setup_probe(args))
                    deadline += time.perf_counter() - t0
        reps.append(rep)
        if time.perf_counter() >= deadline and (traced or not args.trace):
            break
    while not args.trace and len(setups) < SETUP_PROBES:
        setups.append(setup_probe(args))

    if args.trace:
        per_rep = [layer_metrics(r, wl) for r in traced]
        metrics = {k: (statistics.median_low if PER_LAYER[k] == "count" else statistics.median)(
            [m[k] for m in per_rep]) for k in per_rep[0]}
        traced_wall = statistics.median(r.wall for r in traced)
        metrics["trace_overhead_frac"] = (
            traced_wall / statistics.median(r.wall for r in untraced) - 1.0)
        metrics["sweeps.overhead_s"] = metrics["sweeps.thread_speedup"] = 0.0
        if uses_pool:
            single, extra = sweep_single_thread(wl, references, traced_wall)
            reps.append(single)
            traced.append(single)
            metrics.update(extra)
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(scaled_walls),
            "setup_s": statistics.median(p["scaled_s"] for p in setups),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
    metrics = {k: metrics[k] for k in units}

    attempted = len(reps) * len(wl.ops)
    failed = sum(len(r.failed) for r in reps)
    value_drift = max(r.drift for r in reps)
    gaps = [r.gap for r in reps if r.gap is not None]
    xcheck_gap = max(gaps) if gaps else None
    correct = failed == 0 and value_drift <= REF_RTOL

    tag = f"{wl.name}-seed{wl.seed}-trace{args.trace}"
    record = {
        "workload": wl.name,
        "seed": wl.seed,
        "variant": wl.variant,
        "trace": args.trace,
        "seconds": args.seconds,
        "inputs_sha256": hashlib.sha256(
            json.dumps(wl.inputs, sort_keys=True).encode()).hexdigest(),
        "environment": environment(),
        "source": source_state(),
        "sweep_threads": wl.options["threads"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "checks": {
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "value_drift": value_drift,
            "value_drift_tol": REF_RTOL,
            "xcheck_gap": xcheck_gap,
            "xcheck_band": workloads.XCHECK_BAND,
        },
        "raw_wall_s": statistics.median(r.wall for r in untraced),
        "rep_walls_s": {"untraced": [r.wall for r in untraced],
                        "traced": [r.wall for r in traced], "warm_up": reps[0].wall},
        "speed_factors": [r.speed for r in untraced if r.speed is not None],
        "setup_probes": setups,
        "failed_ops": sorted({n for r in reps for n in r.failed}),
        "errors": [e for r in reps for e in r.errors][:10],
    }
    record_path = write_record(f"run-{tag}.json", record)
    if traced:
        write_record(f"spans-{tag}.json", [
            {"wall_s": r.wall, "spans": tracing.to_records(r.spans, r.origin)} for r in traced])

    print(f"workload {wl.name}  seed {wl.seed} (input variant {wl.variant})  "
          f"trace {args.trace}  call lists {len(reps)} ({len(untraced)} untraced, "
          f"{len(traced)} traced, 1 warm-up)")
    for k, v in metrics.items():
        print(f"  {k:40s} {v:.6g} {units[k]}")
    if not args.trace:
        print(f"unscaled: wall {record['raw_wall_s']:.6g} s  "
              f"median speed factor {statistics.median(record['speed_factors']):.4g}  "
              f"setup {statistics.median(p['probe_s'] for p in setups):.6g} s")
    gap_text = "n/a" if xcheck_gap is None else f"{xcheck_gap:.3g} (band {workloads.XCHECK_BAND})"
    print(f"checks: attempted {attempted}  failed {failed}  failed_frac {failed / attempted:.3g}  "
          f"value_drift {value_drift:.3g} (tol {REF_RTOL:g})  xcheck_gap {gap_text}")
    for name in record["failed_ops"]:
        print(f"  failed: {name}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

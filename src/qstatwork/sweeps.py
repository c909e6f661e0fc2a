"""CLI front end: configuration ingestion, parameter sweeps of the work of
(engine, coupling, system) cases, the figure regression battery, and
persistent CSV/JSON outputs.  Fermionic lambda tables come from the `fermi`
command and the Fig.-4 targets, not from a sweep.

The commands that write files (`fermi`, `region`, `figure`, `sweep`)
write plot-ready CSV data plus a JSON manifest; `analytic`, `evolve` and
`verify` print to stdout, and nothing here renders plots.  Outputs are
deterministic: an identical config gives byte-identical data files (full
17-digit round-trip floats, fixed row order), and a dataset manifest
re-ingests to the exact sweep spec that produced it.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import numbers
import os
import pickle
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__ as _VERSION
from . import analytics, fermi as fermi_mod
from .dynamics import SAMPLE_EVERY, PropagatorConfig, run_cycle, run_cycles
from .errors import ConfigError, DegenerateHamiltonianError, DomainError, QstatworkError
from .protocols import (
    EngineParams,
    ExternalSystem,
    Impulse,
    Sampled,
    SmoothPlateau,
    Statistics,
    _trapezoid,
    harmonic_system,
)

ANALYTIC_CELL_CAP = 10 ** 5
SWEEP_METHODS = ("analytic", "numerical", "both")
NUMERICAL_CELL_CAP = 10 ** 3


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _write_csv(path, columns, rows):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_dataset(out_dir, columns, rows, manifest, workers: int = 1):
    """Write <out_dir>/data.csv and <out_dir>/manifest.json: `manifest` with
    the tool version and the `environment(workers)` of the run."""
    _write_csv(os.path.join(out_dir, "data.csv"), columns, rows)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(manifest, tool_version=_VERSION, environment=environment(workers)), fh,
                  indent=2, sort_keys=True)
        fh.write("\n")


def environment(workers: int = 1) -> dict:
    """The software and machine behind a run: the Python and NumPy
    versions, the BLAS NumPy was built with, the cores of this process's
    affinity mask, the `workers` processes the run used (the CLI maps on
    every core, capped at the run's task count), the OpenBLAS thread
    count of this process (None under another BLAS; every process of a
    `parallel_map` on more than one worker runs one while it computes)
    and the git revision of the checkout holding the package (None
    outside one)."""
    import platform

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "cores": len(os.sched_getaffinity(0)),
        "workers": workers,
        "blas_threads": _blas_threads(),
        "git_revision": _git_revision(),
    }


@functools.cache
def _git_revision():
    """HEAD of the git checkout holding the package, read once per process
    (a `git` call takes milliseconds, as long as a small sweep)."""
    import subprocess

    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=os.path.dirname(__file__),
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return (out.stdout.strip() or None) if out.returncode == 0 else None


# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------

# _FIELDS[section][field] = (type, default, CLI flag of `analytic` and
# `evolve`).  The type is float, int (a count: 3 and 3.0 pass, 2.7 does
# not) or a tuple of the allowed strings.
_FIELDS = {
    "engine": {
        "N": (int, 2, "--N"),
        "Omega0": (float, 1.0, "--omega0"),
        "Delta": (float, 0.0, "--delta"),
        "v": (float, 0.1, "--v"),
        "T": (float, 20.0, "--T"),
        "beta_c_E0": (float, 2.0, "--beta-c-e0"),   # beta_c E(0)
        "beta_h_EH": (float, 0.25, "--beta-h-eh"),  # beta_h E(T/2)
    },
    "coupling": {
        "kind": (("impulse", "plateau"), "impulse", "--coupling"),
        "g": (float, 0.01, "--g"),
        "t1_frac": (float, 0.35, "--t1-frac"),
        "delta_t": (float, 0.9, "--delta-t"),
        "alpha_over_T": (float, 2142.0, "--alpha-over-t"),
    },
    "system": {                 # a harmonic oscillator; others are built through the API
        "omega_T": (float, 2 * math.pi * 0.05, "--omega-t"),
        "dim": (int, 12, "--dim"),
    },
}
_SWEEP_KEYS = {"axes", "method", "out"}
# Of the coupling fields and evolve's --trace, what each coupling kind reads
# (an impulse takes no steps to trace); every engine and system field is read
_READS = {"impulse": ("coupling.kind", "coupling.g", "coupling.t1_frac"),
          "plateau": ("coupling.kind", "coupling.g", "coupling.delta_t",
                      "coupling.alpha_over_T", "--trace")}


def _check_read(cfg: dict, axes=(), extra=()):
    """Refuse the first coupling field given in the sections of `cfg` or on
    a sweep axis, or of the `extra` names, that a coupling kind it takes does
    not read: once per sweep, not per cell."""
    axes = dict(axes)
    kinds = axes.get("coupling.kind", (_section("coupling", cfg.get("coupling", {}))["kind"],))
    for name in sorted({f"{s}.{key}" for s, fields in cfg.items() for key in fields}
                       | axes.keys() | set(extra)):
        for kind in _FIELDS["coupling"]["kind"][0]:     # another axis value fails its cells
            if kind in kinds and name.startswith(("coupling.", "--")) and name not in _READS[kind]:
                raise ConfigError(f"{name} is not read when coupling.kind is {kind}")


def _check_keys(section: str, given: dict, allowed):
    if not isinstance(given, dict):
        raise ConfigError(f"'{section}' must be an object, got {type(given).__name__}")
    for key in given:
        if key not in allowed:
            raise ConfigError(
                f"unknown field '{section}.{key}'; allowed: {sorted(allowed)}"
            )


def _typed(name: str, kind, value):
    """`value` of the config field `name` as its `kind` of _FIELDS, or a
    ConfigError: null, a bool, a string, a list or an object is no number,
    NaN and an infinity are not finite, and a huge integer is out of range."""
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{name} must be one of {list(kind)}, got {value!r}")
        return value
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ConfigError(f"{name} is out of range: an integer of {value.bit_length()} bits")
    count = kind is int
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or count and not float(value).is_integer()):
        raise ConfigError(f"{name} must be {'an integer' if count else 'a number'}, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return kind(value)


def _section(name: str, given) -> dict:
    """Every field of the config section `name`: the `given` ones checked
    against their types, the rest at their defaults."""
    fields = _FIELDS[name]
    _check_keys(name, given, fields)
    return {key: _typed(f"{name}.{key}", kind, given[key]) if key in given else default
            for key, (kind, default, _) in fields.items()}


def _check_axes(axes):
    if not isinstance(axes, list):
        raise ConfigError(f"'sweep.axes' must be a list, got {type(axes).__name__}")
    for i, axis in enumerate(axes):
        _check_keys(f"sweep.axes[{i}]", axis, {"param", "values"})
        if not isinstance(axis.get("param"), str) or not isinstance(axis.get("values"), list):
            raise ConfigError(f"sweep.axes[{i}] needs a string 'param' and a list 'values'")


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be an object, got {type(doc).__name__}")
    validate_config(doc)
    return doc


def validate_config(doc: dict):
    for section in doc:
        if section not in _FIELDS and section != "sweep":
            raise ConfigError(f"unknown config section '{section}'")
    for section in _FIELDS:
        _section(section, doc.get(section, {}))
    _check_keys("sweep", doc.get("sweep", {}), _SWEEP_KEYS)
    _check_axes(doc.get("sweep", {}).get("axes", []))


def build_engine(cfg: dict) -> EngineParams:
    f = _section("engine", cfg)
    beta_c_E0, beta_h_EH = f.pop("beta_c_E0"), f.pop("beta_h_EH")
    # the drive alone, at placeholder temperatures, sets E_0 and E_T/2
    drive = EngineParams(**f, beta_c=1.0, beta_h=0.0)
    e_0, e_half = (drive.start_values[t0].energy for t0 in (0.0, drive.T / 2))
    for name, t, energy in (("beta_c_E0", "0", e_0), ("beta_h_EH", "T/2", e_half)):
        if energy == 0:
            raise ConfigError(f"engine.{name} is in units of E({t}), which is 0 for this drive")
    return replace(drive, beta_c=beta_c_E0 / e_0, beta_h=beta_h_EH / e_half)


def build_schedule(cfg: dict, T: float):
    f = _section("coupling", cfg)
    if f["kind"] == "impulse":
        return Impulse(g=f["g"], t1=f["t1_frac"] * T / 2, T=T)
    return SmoothPlateau(g=f["g"], delta_t=f["delta_t"], alpha=f["alpha_over_T"] / T, T=T)


def build_system(cfg: dict, T: float) -> ExternalSystem:
    f = _section("system", cfg)
    return harmonic_system(f["omega_T"] / T, f["dim"])


def _build_case(cfg: dict):
    """(engine, schedule, system) from the engine/coupling/system sections."""
    engine = build_engine(cfg.get("engine", {}))
    schedule = build_schedule(cfg.get("coupling", {}), engine.T)
    system = build_system(cfg.get("system", {}), engine.T)
    return engine, schedule, system


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------

def worker_count(requested: int, n_inputs: int) -> int:
    """Workers for n_inputs independent tasks: `requested`, capped at the
    cores this process may run on and at n_inputs, and at least 1."""
    return max(1, min(requested, len(os.sched_getaffinity(0)), n_inputs))


# names of OpenBLAS's thread-count setter and getter ("set" or "get" for
# {}) in the builds NumPy ships with
_OPENBLAS_THREADS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads")


@functools.cache
def _openblas_threads(verb: str) -> tuple:
    """OpenBLAS's `verb`_num_threads function ("set" or "get"), typed, in
    each OpenBLAS this process has loaded (NumPy's, loaded on import, so
    looked up once per process); empty under another BLAS."""
    import ctypes

    argtypes, restype = {"set": ([ctypes.c_int], None), "get": ([], ctypes.c_int)}[verb]
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        return ()
    fns = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        name = next((n.format(verb) for n in _OPENBLAS_THREADS if hasattr(lib, n.format(verb))),
                    None)
        if name is not None:
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = argtypes, restype
            fns.append(fn)
    return tuple(fns)


def _one_blas_thread():
    """Run the OpenBLAS that NumPy loaded on one thread: the first step of
    every CLI command, and of `parallel_map` with more than one worker,
    whose forked children inherit the setting.

    The workers already take the cores, and OpenBLAS threads that compete
    for them are slow: on 2 cores, `figure fig3a` on 2 workers with 2
    OpenBLAS threads each took 5x as long as one process.  One process's
    products are too small to gain from a second thread, and slow down
    when another process competes for the cores: `figure fig3a` in one
    process took 1.24-1.26x as long on OpenBLAS's default 2 threads in two
    runs, and as long in two others.  A BLAS other than OpenBLAS keeps its
    own setting.
    """
    _set_blas_threads(1)


def _set_blas_threads(n: int):
    for setter in _openblas_threads("set"):
        setter(n)


def _blas_threads():
    """The thread count of the OpenBLAS that NumPy loaded, or None."""
    getters = _openblas_threads("get")
    return getters[0]() if getters else None


def parallel_map(fn, inputs, workers: int = 1) -> list:
    """[fn(x) for x in inputs] on up to `workers` processes, in input
    order.  `worker_count` caps them at the cores of the affinity mask: the
    CLI asks for every core, and a narrower mask (taskset) gives fewer.

    With one worker the inputs run in this process.  With more, this
    process forks `workers` - 1 children, which start from its state and
    live only for this call, and computes its own share of the inputs
    alongside them; `workers` counts every process that computes.  Every
    one of them runs OpenBLAS on one thread (`_one_blas_thread`), and this
    process gets its own count back on return.  fn's results must be
    picklable.  An exception fn raises in any process is raised here (a
    child prints its traceback to stderr first); a child that ends
    without sending its results raises RuntimeError.
    Every child has been waited for when this returns or raises.
    """
    inputs = list(inputs)
    workers = worker_count(workers, len(inputs))
    if workers == 1:
        return [fn(x) for x in inputs]
    # inputs go out in chunks, about 16 per worker: enough to balance cells
    # of unequal cost, and few enough for the queue below to fit in a pipe
    # (a chunk per input is no faster: a 2000-cell impulse sweep on 2
    # workers took 0.79 s with it, 0.81 s in chunks, 1.13-1.18 s serially)
    chunk = max(1, len(inputs) // (16 * workers))
    # what this process buffered is written once, not again by each child
    _flush_std()
    threads = _blas_threads()
    _one_blas_thread()
    # the queue: one pipe holding every chunk's start as 4 bytes, which
    # this process and its children read until it is empty and closed, so
    # that whoever is free takes the next chunk.  The starts, at most 32 x
    # 4 bytes per worker, go in one write that the pipe holds whole (64 KiB
    # on Linux), so each read of 4 bytes takes one whole start
    queue, queue_w = os.pipe()
    children = {}       # pid -> read end of the pipe its results come on
    try:
        try:
            for _ in range(workers - 1):
                pid, results_r = _fork_worker(fn, inputs, chunk, queue, queue_w)
                children[pid] = results_r
            _write_all(queue_w, np.arange(0, len(inputs), chunk, dtype="<u4").tobytes())
        finally:
            os.close(queue_w)
        try:
            done = _pull(fn, inputs, chunk, queue)
        except BaseException:
            # empty the queue, so that the children stop after their chunk
            while os.read(queue, 1 << 16):
                pass
            raise
    finally:
        os.close(queue)
        messages = _reap(children)
        if threads is not None:
            _set_blas_threads(threads)
    for pid, status, data in messages:
        if status != 0 or not data:
            code = os.waitstatus_to_exitcode(status)
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise RuntimeError(f"worker process {pid} {how} without sending its results")
        sent = pickle.loads(data)
        if isinstance(sent, BaseException):
            raise sent
        done += sent
    out = [None] * len(inputs)
    for start, values in done:
        out[start:start + len(values)] = values
    return out


def _pull(fn, inputs, chunk: int, queue: int) -> list:
    """[(start, [fn(x) for x in inputs[start:start + chunk]])] for each
    start this process reads from the queue pipe, until it is empty and
    every write end is closed."""
    done = []
    while raw := os.read(queue, 4):
        start = int.from_bytes(raw, "little")
        done.append((start, [fn(x) for x in inputs[start:start + chunk]]))
    return done


def _fork_worker(fn, inputs, chunk: int, queue: int, queue_w: int) -> tuple:
    """Fork a child that runs `_pull` and sends back, pickled on a pipe of
    its own, its list or the exception fn raised: (pid, read end)."""
    results_r, results_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(results_r)
        os.close(results_w)
        raise
    if pid:
        os.close(results_w)
        return pid, results_r
    # the child: whatever happens, it leaves here, never returning into
    # the caller's frames
    status = 1
    try:
        os.close(results_r)
        os.close(queue_w)       # else the queue never reads as closed
        try:
            sent = _pull(fn, inputs, chunk, queue)
        except Exception as exc:
            import traceback

            traceback.print_exc()       # the caller raises exc, but not its traceback
            sent = exc
        _write_all(results_w, pickle.dumps(sent, pickle.HIGHEST_PROTOCOL))
        status = 0
    except BaseException:
        import traceback

        traceback.print_exc()
    finally:
        _flush_std()
        os._exit(status)


def _reap(children: dict) -> list:
    """(pid, wait status, bytes sent) of each child, after reading its pipe
    to the end and waiting for it to exit."""
    messages = []
    for pid, results_r in children.items():
        with open(results_r, "rb") as fh:
            data = fh.read()
        messages.append((pid, os.waitpid(pid, 0)[1], data))
    return messages


def _write_all(fd: int, data: bytes):
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _flush_std():
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):     # None, or closed
            pass


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    """Cartesian sweep: named axes over config fields plus fixed sections."""

    axes: tuple              # ((param, (values...)), ...)
    fixed: dict              # engine/coupling/system sections
    method: str = "analytic"  # analytic | numerical | both
    out: str = "out-sweep"

    def __post_init__(self):
        if self.method not in SWEEP_METHODS:
            raise ConfigError(f"unknown sweep method '{self.method}'")
        if not isinstance(self.out, str):
            raise ConfigError(f"sweep.out must be a string, got {self.out!r}")
        axes = []
        for param, values in self.axes:
            section, _, fld = param.partition(".")
            if fld not in _FIELDS.get(section, {}):
                raise ConfigError(f"axis parameter '{param}' does not name a "
                                  "known engine/coupling/system field")
            axes.append((param, tuple(values)))
        object.__setattr__(self, "axes", tuple(axes))
        validate_config(self.fixed)
        _check_read(self.fixed, axes)
        n = self.n_cells
        cap = NUMERICAL_CELL_CAP if self.method in ("numerical", "both") else ANALYTIC_CELL_CAP
        if n > cap:
            raise ConfigError(f"sweep has {n} cells, above the cap {cap}")

    @property
    def n_cells(self) -> int:
        return math.prod(len(values) for _, values in self.axes)

    def to_dict(self) -> dict:
        return {
            "axes": [{"param": p, "values": list(v)} for p, v in self.axes],
            "fixed": self.fixed,
            "method": self.method,
            "out": self.out,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSpec":
        _check_keys("sweep", d, _SWEEP_KEYS | {"fixed"})
        _check_axes(d.get("axes", []))
        return cls(tuple((a["param"], tuple(a["values"])) for a in d.get("axes", [])),
                   d.get("fixed", {}), **{k: d[k] for k in ("method", "out") if k in d})


def _set_fields(cfg: dict, values) -> dict:
    """`cfg` copied, with each ("section.field", value) of `values` set over
    it: a sweep cell's axis values, or the field flags given (their dests)."""
    cfg = {section: dict(fields) for section, fields in cfg.items()}
    for name, value in values:
        section, _, key = name.partition(".")
        cfg.setdefault(section, {})[key] = value
    return cfg


def _grid(cfg: dict, axes) -> tuple:
    """The cells of the grid of `axes` ((param, values), ...) in row-major
    order, the first axis outermost, and each cell's config document: `cfg`
    with the cell's values set over it (`_set_fields`)."""
    cells = list(itertools.product(*(values for _, values in axes)))
    return cells, [_set_fields(cfg, zip((p for p, _ in axes), cell)) for cell in cells]


def _eval_work_cell(cfg: dict, method: str) -> tuple:
    """(works by column name, diagnostics) of the case of config document
    `cfg` by `method`: the diagnostics of the two runs (indistinguishable,
    then distinguishable) of run_cycles where the method runs cycles, each
    with `cycle_wall_s`, its even share of the call's wall time."""
    engine, schedule, system = _build_case(cfg)
    out, diags = {}, []
    if method in ("analytic", "both"):
        # a smooth cell's amplitudes serve both statistics and the N = 1 reference
        amps = (None if isinstance(schedule, Impulse)
                else analytics.level_amplitudes(engine, schedule, system))
        ratio, rec_b, rec_d = analytics.enhancement(engine, schedule, system, amps)
        one = replace(engine, N=1)
        w1 = (analytics.impulse_work(one, schedule, system, Statistics.BOSE) if amps is None
              else analytics.general_work(one, schedule, system, Statistics.BOSE, amps)).avg_work
        out.update(
            work_indist=rec_b.avg_work,
            work_dist=rec_d.avg_work,
            enhancement=ratio,
            sqrt_work_ratio=math.sqrt(rec_b.avg_work / w1) if w1 > 0 else math.nan,
        )
    if method in ("numerical", "both"):
        t0 = time.perf_counter()
        results = run_cycles(engine, schedule, system)
        wall = (time.perf_counter() - t0) / len(results)
        diags = [dict(res.diagnostics, cycle_wall_s=wall) for res in results]
        wb, wd = (res.work.avg_work for res in results)
        out.update(work_indist_numeric=wb, work_dist_numeric=wd, enhancement_numeric=wb / wd)
    return out, diags


def _eval_cell(method: str, cfg: dict) -> tuple:
    """One sweep cell: (values, diagnostics, status, wall seconds where it
    ran).  A cell that fails gives no values, no diagnostics and an
    `error:<Type>` status."""
    t0 = time.perf_counter()
    try:
        data, diags = _eval_work_cell(cfg, method)
        status = "ok"
    except (QstatworkError, ValueError, ArithmeticError) as exc:
        data, diags, status = {}, [], f"error:{type(exc).__name__}"
    return data, diags, status, time.perf_counter() - t0


def run_sweep(spec: SweepSpec, threads: int = 1, out_dir: str = None) -> dict:
    """Evaluate every cell, write <out>/data.csv and <out>/manifest.json.

    Cells evaluate independently on up to `threads` worker processes
    (`parallel_map`), and rows are assembled in row-major cell order
    whatever the count; failed cells are tagged per row and count toward
    the exit status (> 1% failed is an error).  Where cells ran cycles,
    the manifest's `cycles` is the `_cycle_summary` of the runs of its ok
    cells.
    """
    out_dir = out_dir or spec.out
    t_start = time.time()
    cells, cfgs = _grid(spec.fixed, spec.axes)
    results = parallel_map(functools.partial(_eval_cell, spec.method), cfgs, threads)

    value_cols = next((list(data) for data, _, status, _ in results if status == "ok"), [])
    columns = [p for p, _ in spec.axes] + value_cols + ["status"]
    rows = [[*cell, *(data.get(c, math.nan) for c in value_cols), status]
            for cell, (data, _, status, _) in zip(cells, results)]
    diags = [diag for _, cell_diags, _, _ in results for diag in cell_diags]
    manifest = {
        "spec": spec.to_dict(),
        "n_cells": len(cells),
        "n_failed": sum(status != "ok" for _, _, status, _ in results),
        "wall_time_s": time.time() - t_start,
        "cell_wall_s": [wall for *_, wall in results],
        **({"cycles": _cycle_summary(diags)} if diags else {}),
    }
    _write_dataset(out_dir, columns, rows, manifest, worker_count(threads, len(cells)))
    return manifest


# ---------------------------------------------------------------------------
# figure targets
# ---------------------------------------------------------------------------

# The Fig.-2a and Fig.-3 config documents: a field they do not give takes its _FIELDS default
_FIG2A_CONFIG = {"system": {"dim": 10}}
_FIG3_CONFIG = {"coupling": {"kind": "plateau", "g": 0.5}, "system": {"dim": 16}}
_FIG2A_AXES = {"engine.Delta": (0.0, 1.4, 4.2), "engine.N": tuple(range(1, 9))}
_FIG3_AXES = {"engine.N": tuple(range(1, 7))}


def _preset(cfg: dict, axes: dict) -> dict:
    """A figure manifest's record of its cycles: their config document with every
    field that its coupling kind reads resolved (`_section`), and the axis values
    set over it, so that a sweep of that config over those axes reruns them."""
    config = {name: _section(name, cfg.get(name, {})) for name in _FIELDS}
    reads = _READS[config["coupling"]["kind"]]
    config["coupling"] = {k: v for k, v in config["coupling"].items() if f"coupling.{k}" in reads}
    return {"config": config, "axes": axes}


def _impulse_runs(workers: int = 1, n_values=_FIG2A_AXES["engine.N"],
                  deltas=_FIG2A_AXES["engine.Delta"]):
    """Fig.-2a kick: rows (N, Delta/Omega0, analytic E, numeric E), Delta
    outermost, and the diagnostics of every run (indistinguishable, then
    distinguishable, per row), the rows' cells run on `workers` processes."""
    cells, cfgs = _grid(_FIG2A_CONFIG, (("engine.Delta", deltas), ("engine.N", n_values)))
    runs = parallel_map(functools.partial(_eval_work_cell, method="both"), cfgs, workers)
    rows = [[N, delta, out["enhancement"], out["enhancement_numeric"]]
            for (delta, N), (out, _) in zip(cells, runs)]
    return rows, [diag for _, diags in runs for diag in diags]


def _sqrt_work_rows(x_values):
    """Fig.-2b rows (N, beta_c E_0, sqrt of the Delta = 0 second moment)
    for N = 1..40."""
    return [[N, float(x), math.sqrt(analytics.delta0_second_moment(N, float(x)))]
            for x in x_values for N in range(1, 41)]


def _fig3_data(workers: int):
    """Fig.-3 plateau works (N, W_indist, W_dist) for N = 1..6 and the
    diagnostics of every run, the cells of each N run on `workers` processes."""
    cells, cfgs = _grid(_FIG3_CONFIG, _FIG3_AXES.items())
    # longest first (the cost grows with N), so that the workers end on short cycles
    runs = parallel_map(functools.partial(_eval_work_cell, method="numerical"), cfgs[::-1],
                        workers)[::-1]
    data = [(N, out["work_indist_numeric"], out["work_dist_numeric"])
            for (N,), (out, _) in zip(cells, runs)]
    return data, [diag for _, diags in runs for diag in diags]


def _figure_fig2a(runs):
    rows, diags = runs
    columns = ["N", "delta_over_omega0", "E_ratio_analytic", "E_ratio_numeric"]
    return columns, rows, _check_impulse(rows), {"cycles": _cycle_summary(diags)}


def _figure_fig2b():
    rows = _sqrt_work_rows(np.linspace(0.25, 4.0, 16))
    return ["N", "beta_c_E0", "sqrt_work_ratio"], rows, _check_sqrt_scaling(rows), {}


def _figure_fig3a(fig3):
    data, diags = fig3
    rows = [[N, wb, math.sqrt(wb / data[0][1])] for N, wb, _ in data]
    return (["N", "work_indist_numeric", "sqrt_work_ratio"], rows, _check_fig3(data),
            {"cycles": _cycle_summary(diags)})


def _figure_fig3b(fig3):
    data, diags = fig3
    return (["N", "E_ratio_numeric"], [[N, wb / wd] for N, wb, wd in data], _check_fig3(data),
            {"cycles": _cycle_summary(diags)})


def _figure_fig4(n_values):
    rows = fermi_mod.lambda_table(n_values, np.arange(2.5, 6.01, 0.25))
    columns = ["N", "beta_com_omega", "lambda", "lambda_asymptotic", "method"]
    return columns, rows, _check_fermi_parity(rows), {}


def _figure_figs1():
    region = analytics.enhancement_region(build_engine({}), np.linspace(0.0, 4.0, 9),
                                          np.linspace(0.1, 10 * math.pi, 24), (2, 6, 12, 20))
    return (["delta_over_omega0", "omegaT", "N", "enhanced"], list(region.rows()),
            _check_region(region), {"quadrature": region.quadrature._asdict()})


@dataclass(frozen=True)
class FigureTarget:
    # run: ([the output of `shared`]) -> (CSV columns, rows, (ok, detail) of
    # the check, what the manifest records of the work: the `_cycle_summary`
    # of its runs, or the quadrature of its region map)
    run: object
    description: str
    preset: dict
    # a function of the worker count running the target's cycles on that
    # many processes, once per command for every target that shares it
    # (run_figure's `shared`); closed-form figures have none
    shared: object = None


FIGURES = {
    "fig2a": FigureTarget(_figure_fig2a, "impulse enhancement vs N for three gap mixes",
                          _preset(_FIG2A_CONFIG, _FIG2A_AXES), _impulse_runs),
    "fig2b": FigureTarget(_figure_fig2b, "sqrt of work ratio over (N, beta_c E_0), Delta = 0",
                          {"beta_c_E0": "0.25..4", "N": "1..40"}),
    "fig3a": FigureTarget(_figure_fig3a, "nonperturbative work scaling, indistinguishable",
                          _preset(_FIG3_CONFIG, _FIG3_AXES), _fig3_data),
    "fig3b": FigureTarget(_figure_fig3b, "nonperturbative enhancement scaling",
                          _preset(_FIG3_CONFIG, _FIG3_AXES), _fig3_data),
    "fig4even": FigureTarget(functools.partial(_figure_fig4, (2, 4)),
                             "fermionic parity law, even N",
                             {"N": [2, 4], "beta_com_omega": "2.5..6 by 0.25"}),
    "fig4odd": FigureTarget(functools.partial(_figure_fig4, (3, 5)), "fermionic parity law, odd N",
                            {"N": [3, 5], "beta_com_omega": "2.5..6 by 0.25"}),
    "figS1": FigureTarget(_figure_figs1, "binary enhancement region map",
                          {"g": 0.01, "delta_t": 0.9, "alpha_over_T": 2142.0}),
}


def _cycle_summary(diags) -> dict:
    """Run diagnostics for a manifest: the worst health indicators, each step
    count summed over the runs that make it and each run's `cycle_wall_s`."""
    out = {f"{key}_max": max(d[key] for d in diags)
           for key in ("isometry_drift", "trace_drift", "dropped_weight")}
    out.update({f"{key}_total": sum(d[key] for d in diags if key in d)
                for key in ("n_steps_per_half", "split_steps", "n_engine_steps")
                if any(key in d for d in diags)})
    out["n_cycles"] = len(diags)
    out["cycle_wall_s"] = [d["cycle_wall_s"] for d in diags]
    return out


def run_figure(fig_id: str, out_dir: str, workers: int = 1, shared: dict = None) -> tuple:
    """Regenerate one figure's data CSV and run its criterion check on it,
    its run_cycles calls on `workers` processes (`parallel_map`).

    `shared` maps each `FigureTarget.shared` function to its output and is
    filled here: the figures of one command pass one dict, so that data
    they share is computed once, and a figure that finds its data there
    records only its own wall time.  Returns the check's (ok, detail).
    """
    if fig_id not in FIGURES:
        raise ConfigError(f"unknown figure id '{fig_id}'; choose from {sorted(FIGURES)}")
    t0 = time.time()
    target, shared = FIGURES[fig_id], {} if shared is None else shared
    args = ()
    if target.shared is not None:
        if target.shared not in shared:
            shared[target.shared] = target.shared(workers)
        args = (shared[target.shared],)
    columns, rows, (ok, detail), work = target.run(*args)
    # the tasks of a figure with cycles are its run_cycles calls, two runs each
    used = worker_count(workers, work["cycles"]["n_cycles"] // 2) if "cycles" in work else 1
    _write_dataset(out_dir, columns, rows, {
        "figure": fig_id,
        "description": target.description,
        "preset": target.preset,
        "n_rows": len(rows),
        "failures": [] if ok else [detail],
        "wall_time_s": time.time() - t0,
        **work,
    }, used)
    return ok, detail


# ---------------------------------------------------------------------------
# verify battery: one check per acceptance criterion (1-8). Each holds its
# bounds once and returns (ok, detail); `verify`, the figure runners and
# tests/test_acceptance.py all call these.
# ---------------------------------------------------------------------------

# criterion 8's (N values, beta omega values) at verify sizes
_FERMI_VERIFY_GRID = ((2, 3, 4, 5), (4.0, 5.0, 6.0))


def run_verify(seed: int = 0, fast: bool = False, workers: int = 1) -> list:
    """Criteria 1, 2, 5, 8 and (full runs only) 3 at verify sizes:
    (name, ok, detail) per check. Every check runs whatever the others give;
    criterion 3's run_cycles calls run on `workers` processes."""
    rng = np.random.default_rng(seed)
    checks = [
        ("moment-oracles", *_check_moment_oracles()),
        ("inequality-battery", *_check_inequalities(rng, *((20, 10) if fast else (60, 40)))),
        ("delta0-dominance", *_check_delta0_dominance(rng, 10 if fast else 50)),
        ("fermi-parity", *_check_fermi_parity(fermi_mod.lambda_table(*_FERMI_VERIFY_GRID))),
    ]
    if not fast:
        checks.append(("impulse-enhancement",
                       *_check_impulse(_impulse_runs(workers, (1, 2, 4), (1.4,))[0])))
    return checks


def _direct_moment(N, x, power):
    """<m^power> at inverse temperature x by the direct Boltzmann sum over
    m = -N/2..N/2 with weights e^{-2xm}; shares no code with
    analytics.moment_f/moment_h, which it checks."""
    m = np.arange(N + 1) - N / 2
    w = np.exp(-2 * x * (m - m[0]))
    return float((m ** power * w).sum() / w.sum())


def _check_moment_oracles():
    """Criterion 1: closed-form f and h against the direct sums, N <= 60."""
    worst = max(
        max(abs(analytics.moment_f(N, x) - _direct_moment(N, x, 2)),
            abs(analytics.moment_h(N, x) - _direct_moment(N, x, 1)))
        for N in range(1, 61) for x in (1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 50.0)
    )
    return worst < 1e-12, f"max |closed - direct sum| = {worst:.2e} (< 1e-12)"


def _check_inequalities(rng, n_max: int, n_grid: int):
    """Criterion 2: the four moment inequalities on verify_inequalities'
    N <= n_max grid of n_grid x values (it raises on a violation), on 1e4
    random (N <= 60, x, y) draws, and the four N = 1 equalities.  Margins
    of both are held to -INEQUALITY_TOL max(1, N^2/4)."""
    try:
        rep = analytics.verify_inequalities(n_max, np.geomspace(1e-3, 50.0, n_grid))
    except QstatworkError as exc:
        return False, str(exc)
    Ns = rng.integers(1, 61, size=10 ** 4)
    xs = rng.uniform(1e-3, 20.0, size=10 ** 4)
    ys = rng.uniform(1e-3, 20.0, size=10 ** 4)
    scale = np.maximum(1.0, Ns * Ns / 4)
    worst = min(float((m / scale).min())
                for m in analytics.inequality_margins(Ns, xs, ys).values())
    grid = min(m for m, _ in rep.margins.values())
    tol = analytics.INEQUALITY_TOL
    ok = worst > -tol and rep.n1_equality_defect < 1e-12
    return ok, (f"grid margins {grid:.1e} (> -{tol:.0e} max(1, N^2/4)), "
                f"draws {worst:.1e} max(1, N^2/4) (> -{tol:.0e} max(1, N^2/4)), "
                f"N=1 equality {rep.n1_equality_defect:.1e} (< 1e-12)")


def _check_impulse(rows):
    """Criterion 3 on Fig.-2a rows: analytic E >= 1 with E = 1 at N = 1,
    and the numeric E within 2% of the analytic one."""
    min_ratio = min(r[2] for r in rows)
    n1 = max((abs(r[2] - 1.0) for r in rows if r[0] == 1), default=0.0)
    worst = max(abs(num - ana) / ana for _, _, ana, num in rows)
    ok = min_ratio >= 1 - 1e-12 and n1 < 1e-12 and worst < 0.02
    return ok, (f"min E = {min_ratio:.6f} (>= 1), E(N=1)-1 = {n1:.1e} (< 1e-12), "
                f"numeric-vs-analytic {worst:.2e} (< 2e-2)")


def _line_r2(rows) -> list:
    """R^2 of the least-squares line of sqrt(work) against N over N x <= 1,
    at every x of the rows (N, x, sqrt work) with three such N or more."""
    r2 = []
    for x in dict.fromkeys(r[1] for r in rows):
        pts = np.array([(N, y) for N, xx, y in rows if xx == x and N * x <= 1.0])
        if len(pts) >= 3:   # R^2 of the least-squares line = squared correlation
            r2.append(float(np.corrcoef(pts.T)[0, 1] ** 2))
    return r2


# the high-temperature x = beta_c E_0 of criterion 4's own Delta = 0 rows
_SQRT_SCALING_X = (0.01, 0.025)


def _check_sqrt_scaling(rows):
    """Criterion 4: sqrt(work) grows linearly in N at high temperature.

    On the check's own Delta = 0 rows at x = 0.01 and 0.025 (N = 1..40, so
    N x <= 1) a line fits with R^2 > 0.9995: the model gives 0.99977 at
    worst, while sqrt(work) ~ N^1.1 on the same N gives 0.99905.  On the
    given rows a line fits with R^2 > 0.99 at every x with three N or more
    with N x <= 1 (Fig. 2b has only x = 0.25, N = 1..4, where no R^2 tells
    N from N^1.5).  And the large-N slope of the second moment is within
    1e-3 of coth(x) at x = 2."""
    own = min(_line_r2(_sqrt_work_rows(_SQRT_SCALING_X)))
    r2 = _line_r2(rows)
    coth = 1 / math.tanh(2.0)
    slope = analytics.delta0_second_moment(500, 2.0) - analytics.delta0_second_moment(499, 2.0)
    slope_rel = abs(slope - coth) / coth
    worst = min(r2, default=math.nan)
    return own > 0.9995 and worst > 0.99 and slope_rel < 1e-3, (
        f"worst R^2 = {own:.5f} (> 0.9995) at x = {_SQRT_SCALING_X}, N = 1..40, and "
        f"{worst:.5f} (> 0.99) over {len(r2)} x values given, "
        f"large-N slope off coth by {slope_rel:.1e} (< 1e-3)")


def random_smooth_case(rng: np.random.Generator):
    """One randomized Delta = 0 configuration for the dominance check."""
    T = float(rng.uniform(10.0, 30.0))
    n = int(rng.integers(1, 13))
    omega0 = float(rng.uniform(0.5, 2.0))
    v = float(rng.uniform(0.02, 0.2))
    beta_c = float(rng.uniform(0.2, 3.0)) / omega0
    beta_h = beta_c * float(rng.uniform(0.05, 0.8))
    engine = EngineParams(N=n, Omega0=omega0, Delta=0.0, v=v, T=T,
                          beta_c=beta_c, beta_h=beta_h)
    if rng.random() < 0.5:
        schedule = None
        while schedule is None:     # a plateau not off at t = 0 and T is drawn again
            try:
                schedule = SmoothPlateau(
                    g=float(rng.uniform(0.002, 0.05)),
                    delta_t=float(rng.uniform(0.5, 0.92)),
                    alpha=float(rng.uniform(300.0, 3000.0)) / T,
                    T=T,
                )
            except ValueError:
                pass
    else:
        tt = np.linspace(0.0, T, 257)
        env = np.sin(math.pi * tt / T) ** 2 * np.sin(2 * math.pi * tt / T) ** 2
        bumps = env * (1 + 0.5 * np.sin(2 * math.pi * rng.integers(1, 4) * tt / T + rng.uniform(0, math.pi)))
        g = float(rng.uniform(0.002, 0.05))
        schedule = Sampled(times=tt, values=g * bumps / max(_trapezoid(bumps, tt), 1e-12))
    dim = int(rng.integers(3, 7))
    energies = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 3.0, size=dim - 1))])
    v_s = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    v_s = (v_s + v_s.conj().T) / 2
    system = ExternalSystem(energies=energies, V_S=v_s)
    return engine, schedule, system


def _check_delta0_dominance(rng, n_draws: int):
    """Criterion 5: at Delta = 0 indistinguishable engines excite every
    coupled level at least as often as distinguishable ones, over n_draws
    random_smooth_case draws."""
    worst, witness = math.inf, None
    for _ in range(n_draws):
        engine, schedule, system = random_smooth_case(rng)
        amps = analytics.level_amplitudes(engine, schedule, system)
        rec_b, rec_d = (analytics.general_work(engine, schedule, system, s, amps)
                        for s in (Statistics.BOSE, Statistics.DISTINGUISHABLE))
        for p_b, p_d in zip(rec_b.p_excite.values(), rec_d.p_excite.values()):
            margin = (p_b - p_d) / max(p_b, p_d, 1e-300)
            if margin < worst:
                worst, witness = margin, engine.N
    return worst > -1e-12, (f"worst normalized margin {worst:.2e} (> -1e-12) at N={witness} "
                            f"over {n_draws} draws")


def _check_fig3(data):
    """Criterion 6 on Fig.-3 works (N, W_indist, W_dist): E > 1 for N >= 2,
    and sqrt(W_indist(N) / W_indist(1)) strictly increasing in N."""
    E = [wb / wd for _, wb, wd in data[1:]]
    root = [math.sqrt(wb / data[0][1]) for _, wb, _ in data]
    monotone = all(b > a for a, b in zip(root, root[1:]))
    return all(e > 1.0 for e in E) and monotone, (
        f"E(N=2..{data[-1][0]}) = {[f'{e:.3f}' for e in E]} (> 1), "
        f"sqrt-ratio monotone: {monotone}")


def _check_region(region):
    """Criterion 7 on the Fig.-S1 map: the N = 2 plane is enhanced, so is
    the Delta = 0 column for N = 1..20 at the map's omega T, and N = 20 has
    a non-enhanced cell beyond omega T = pi."""
    n2 = bool(region.enhanced[region.N_values.index(2)].all())
    column = analytics.enhancement_region(build_engine({}), np.array([0.0]),
                                          region.omega_T, tuple(range(1, 21)))
    col = bool(column.enhanced.all())
    beyond_pi = region.enhanced[region.N_values.index(20)][:, region.omega_T > math.pi]
    gap = not bool(beyond_pi.all())
    return n2 and col and gap, (f"N=2 plane enhanced: {n2}, Delta=0 column (N<=20): {col}, "
                                f"N=20 gap beyond pi: {gap}")


def _check_fermi_parity(rows):
    """Criterion 8 on lambda_table rows: every N given has rows at
    beta omega >= 4, where the parity-law gap is < 0.1 for even N and < 0.2
    for odd N, and f_N = N mod 2 exactly at T = 0 for every N given.

    The bath independence of the isolated-engine lambda = <w_N>/<w_1> is
    not checked: that ratio is f_N, which reads the trap alone."""
    gaps = ([], [])
    for N, bw, lam, _, _ in rows:
        if bw >= 4.0:
            odd = N % 2
            gaps[odd].append(abs((lam - odd) / (8 * math.exp(-(1 + odd) * bw)) - 1))
    even, odd = (max(g, default=0.0) for g in gaps)
    n_values = {r[0] for r in rows}
    covered = bool(n_values) and n_values == {r[0] for r in rows if r[1] >= 4.0}
    exact = all(fermi_mod.f_N(fermi_mod.FermiEnsemble(N=N, omega_trap=1.0, beta_com=math.inf))
                == N % 2 for N in n_values)
    ok = covered and even < 0.1 and odd < 0.2 and exact
    return ok, (f"even gap {even:.3f} (< 0.1, {len(gaps[0])} rows), odd gap {odd:.3f} "
                f"(< 0.2, {len(gaps[1])} rows), every N has rows at beta omega >= 4: "
                f"{covered}, T=0 limits exact: {exact}")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qstatwork",
        description="Collective work of N quantum Otto engines outcoupled to "
                    "an external system: closed-form and exact-numerical paths.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # flags are taken whole: a prefix such as --beta-c is not read as --beta-c-e0
    add_parser = functools.partial(subs.add_parser, allow_abbrev=False)

    p_an = add_parser("analytic", help="closed-form work and enhancement")
    p_ev = add_parser("evolve", help="exact numerical cycle")
    for sub in (p_an, p_ev):
        sub.add_argument("--config", help="JSON config document")
        # a flag per field, stored under "section.field"
        for section, fields in _FIELDS.items():
            for key, (kind, _, flag) in fields.items():
                options = ({"choices": kind} if isinstance(kind, tuple) else
                           {"type": kind, "metavar": flag[2:].replace("-", "_").upper()})
                sub.add_argument(flag, dest=f"{section}.{key}", **options)
    p_ev.add_argument("--statistics", choices=[s.value for s in Statistics], default="bose")
    p_ev.add_argument("--dt", type=float)
    p_ev.add_argument("--trace", help=f"write a trace CSV to this path: a row every "
                      f"{SAMPLE_EVERY} steps and at each stroke's last step (plateau only)")

    # --out on the commands that write files, --config and --seed only where read
    p_fe = add_parser("fermi", help="fermionic parity-law lambda tables")
    p_fe.add_argument("--out", help="output directory")
    p_fe.add_argument("--n-values", type=int, nargs="+", default=[2, 3, 4, 5])
    p_fe.add_argument("--bw-min", type=float, default=2.5)
    p_fe.add_argument("--bw-max", type=float, default=6.0)
    p_fe.add_argument("--bw-points", type=int, default=15)

    p_rg = add_parser("region", help="binary enhancement-region map")
    p_rg.add_argument("--out", help="output directory")
    p_rg.add_argument("--n-values", type=int, nargs="+", default=[2, 6, 12, 20])
    p_rg.add_argument("--delta-max", type=float, default=4.0)
    p_rg.add_argument("--delta-points", type=int, default=9)
    p_rg.add_argument("--omegat-min", type=float, default=0.1)
    p_rg.add_argument("--omegat-max", type=float, default=10 * math.pi)
    p_rg.add_argument("--omegat-points", type=int, default=24)

    p_fig = add_parser("figure", help="regenerate figure datasets and assert them")
    p_fig.add_argument("--out", help="output directory")
    p_fig.add_argument("ids", nargs="+", choices=sorted(FIGURES), metavar="id",
                       help=f"one or more of {sorted(FIGURES)}")

    p_vf = add_parser("verify", help="full oracle/inequality property battery")
    p_vf.add_argument("--seed", type=int, default=0)
    p_vf.add_argument("--fast", action="store_true", help="reduced grids")

    p_sw = add_parser("sweep", help="run a sweep from a config document")
    p_sw.add_argument("--config", help="JSON config document")
    p_sw.add_argument("--out", help="output directory")
    p_sw.add_argument("--method", choices=SWEEP_METHODS)
    return parser


def cli_main(argv=None) -> int:
    """Entry point; returns 0 on success, 1 on assertion/run failure, 2 on
    usage or configuration errors."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    _one_blas_thread()
    try:
        return _dispatch(args)
    except (ConfigError, DegenerateHamiltonianError, DomainError) as exc:
        # a malformed document, or a gap that closes or a value outside the domain
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QstatworkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # out-of-range values rejected by the parameter classes
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    out_dir = getattr(args, "out", None) or f"out-{args.command}"
    if args.command in ("analytic", "evolve"):
        cfg = load_config(args.config) if args.config else {}
        if "sweep" in cfg:
            raise ConfigError(f"the 'sweep' section is for the sweep command, not {args.command}")
        cfg = _set_fields(cfg, ((d, v) for d, v in vars(args).items()
                                if "." in d and v is not None))
        _check_read(cfg, extra=["--trace"] if getattr(args, "trace", None) else [])
        engine, schedule, system = _build_case(cfg)
    if args.command == "analytic":
        ratio, rec_b, rec_d = analytics.enhancement(engine, schedule, system)
        print(json.dumps({
            "indistinguishable": rec_b.to_dict(),
            "distinguishable": rec_d.to_dict(),
            "enhancement_ratio": ratio,
        }, indent=2))
        return 0

    if args.command == "evolve":
        pconf = PropagatorConfig(dt=args.dt, collect_trace=bool(args.trace))
        result = run_cycle(engine, schedule, system, args.statistics, config=pconf)
        if args.trace:
            _write_csv(args.trace, ["t", "tr_rho", "leakage", "system_energy"],
                       result.diagnostics.pop("trace"))
        print(json.dumps(result.to_dict(), indent=2))
        return 0

    if args.command == "fermi":
        bw = np.linspace(args.bw_min, args.bw_max, args.bw_points)
        rows = fermi_mod.lambda_table(args.n_values, bw)
        _write_dataset(out_dir, ["N", "beta_com_omega", "lambda", "lambda_asymptotic", "method"],
                       rows, {"command": "fermi", "n_values": list(args.n_values),
                              "beta_com_omega": [float(b) for b in bw]})
        print(f"wrote {len(rows)} rows to {out_dir}/data.csv")
        return 0

    if args.command == "region":
        region = analytics.enhancement_region(
            build_engine({}), np.linspace(0.0, args.delta_max, args.delta_points),
            np.linspace(args.omegat_min, args.omegat_max, args.omegat_points), args.n_values)
        rows = list(region.rows())
        _write_dataset(out_dir, ["delta_over_omega0", "omegaT", "N", "enhanced"], rows,
                       {"command": "region", "n_values": list(args.n_values),
                        "delta_over_omega0": region.delta_over_omega0.tolist(),
                        "omegaT": region.omega_T.tolist(),
                        "quadrature": region.quadrature._asdict()})
        print(f"wrote {len(rows)} rows to {out_dir}/data.csv")
        return 0

    cores = len(os.sched_getaffinity(0))       # figure, verify and sweep map on all of them
    if args.command == "figure":
        # one id writes into out_dir, several each into out_dir/<id>
        ids, shared, failed = list(dict.fromkeys(args.ids)), {}, False
        for fig_id in ids:
            fig_dir = out_dir if len(ids) == 1 else os.path.join(out_dir, fig_id)
            ok, detail = run_figure(fig_id, fig_dir, cores, shared)
            print(f"{'PASS' if ok else 'FAIL'} [{fig_id}] {detail}; data in {fig_dir}/data.csv")
            failed |= not ok
        return 1 if failed else 0

    if args.command == "verify":
        checks = run_verify(seed=args.seed, fast=args.fast, workers=cores)
        for name, ok, detail in checks:
            print(f"{'PASS' if ok else 'FAIL'} [{name}] {detail}")
        return 0 if all(ok for _, ok, _ in checks) else 1

    if args.command == "sweep":
        if not args.config:
            raise ConfigError("sweep requires --config with a sweep section")
        cfg = load_config(args.config)
        flags = {"method": args.method, "out": args.out}
        spec = SweepSpec.from_dict({
            **cfg.get("sweep", {}), **{k: v for k, v in flags.items() if v is not None},
            "fixed": {k: v for k, v in cfg.items() if k in _FIELDS},
        })
        manifest = run_sweep(spec, threads=cores, out_dir=args.out)
        frac = manifest["n_failed"] / max(1, manifest["n_cells"])
        print(f"{manifest['n_cells']} cells, {manifest['n_failed']} failed")
        return 1 if frac > 0.01 else 0


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()

import functools
import json
import math
import os
import pathlib
import platform
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import qstatwork as qw
import qstatwork.sweeps as sw
from qstatwork.errors import ConfigError

CORES = len(os.sched_getaffinity(0))

# a method-"both" sweep: a smooth perturbative plateau, short and on dim 4,
# so that its eight cycles take a fraction of a second
BOTH_SPEC = sw.SweepSpec(
    axes=(("engine.N", (1, 2)), ("engine.Delta", (0.5, 1.0))),
    fixed={"engine": {"v": 0.2, "T": 2.5},
           "coupling": {"kind": "plateau", "g": 0.01, "delta_t": 0.9},
           "system": {"dim": 4}},
    method="both", out="unused",
)


# Prints OpenBLAS's thread count in this process, then in the two processes
# that ran the tasks of a 2-worker map, then in this process again; -1
# where NumPy does not use OpenBLAS.
BLAS_PROBE = """
import ctypes
import qstatwork.sweeps as sw

def blas_threads(_):
    with open("/proc/self/maps") as fh:
        paths = [line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]]
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                getattr(lib, name).restype = ctypes.c_int
                return getattr(lib, name)()
    return -1

print(blas_threads(0), *sw.parallel_map(blas_threads, range(2), workers=2), blas_threads(0))
"""

# Leaves a line in this process's stdout buffer, then prints a line from
# each task of a 2-worker map, with the pid of the process that ran it.
OUTPUT_PROBE = """
import os, sys, time
import qstatwork.sweeps as sw

def say(x):
    time.sleep(0.2)
    print("task", x, os.getpid())

sys.stdout.write(f"caller {os.getpid()}\\n")
sw.parallel_map(say, range(4), workers=2)
"""


def _pid_of(x):
    return x, os.getpid()


def _sleepy_pids(x, seconds=0.2):
    time.sleep(seconds)
    return x, os.getpid(), os.getppid()


def _misbehave_in(where, action, caller, x):
    """x after 0.1 s, but in the `where` process ("caller" or "child" of
    the map called from pid `caller`) what `action` says."""
    if (os.getpid() == caller) == (where == "caller"):
        if action == "raise":
            raise ZeroDivisionError(x)
        if action == "exit":
            os._exit(3)
        if action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if action == "unpicklable":
            return lambda: x
    time.sleep(0.1)
    return x


def assert_no_child_left():
    # waitpid(-1) raises once this process has no child, running or exited
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_two_cores = pytest.mark.skipif(CORES < 2, reason="one core runs every map in-process")


def subcommand(command: str):
    """The parser of one command of the CLI."""
    subs = next(a for a in sw.build_parser()._actions if a.choices and command in a.choices)
    return subs.choices[command]


def reads(name: str, kind: str) -> bool:
    """Whether analytic and evolve read `name` ("section.field" or a flag)
    under a `kind` coupling."""
    try:
        sw._check_read({"coupling": {"kind": kind}}, extra=[name])
    except ConfigError:
        return False
    return True


class TestWorkers:
    def test_worker_cap(self):
        # the arithmetic only: no map of these sizes runs
        assert sw.worker_count(10 ** 6, 10 ** 6) == CORES
        assert sw.worker_count(10 ** 6, 1) == 1
        assert sw.worker_count(3, 2) == min(2, CORES)
        assert sw.worker_count(0, 5) == sw.worker_count(4, 0) == 1

    def test_parallel_map_keeps_order_and_joins_its_workers(self):
        # the caller is one of the workers, the others are its children
        out = sw.parallel_map(_sleepy_pids, range(4), workers=2)
        assert [x for x, *_ in out] == list(range(4))
        me = os.getpid()
        assert all(me in (pid, parent) for _, pid, parent in out)
        pids = {pid for _, pid, _ in out}
        assert len(pids) <= min(2, CORES)
        if CORES >= 2:
            assert me in pids and len(pids) == 2
        assert_no_child_left()
        # 3000 inputs in 33 chunks that both processes take from the queue:
        # each comes back once, in its place
        short = functools.partial(_sleepy_pids, seconds=1e-4)
        assert [x for x, *_ in sw.parallel_map(short, range(3000), workers=2)] == list(range(3000))
        assert_no_child_left()

    def test_workers_run_openblas_on_one_thread(self):
        # a fresh interpreter with no BLAS thread setting, where OpenBLAS
        # takes every core in the calling process: one thread per worker
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout.split()
        caller, *workers, after = map(int, out)
        if caller == -1:
            pytest.skip("NumPy does not use OpenBLAS here")
        assert workers == [1, 1]
        assert after == caller              # the caller's own count is back

    def test_one_worker_runs_in_process(self):
        assert {pid for _, pid in sw.parallel_map(_pid_of, range(3))} == {os.getpid()}

    @needs_two_cores
    def test_worker_exception_reaches_the_caller(self):
        task = functools.partial(_misbehave_in, "child", "raise", os.getpid())
        with pytest.raises(ZeroDivisionError):
            sw.parallel_map(task, range(4), workers=2)
        assert_no_child_left()

    @needs_two_cores
    @pytest.mark.parametrize("action, how", [("exit", "exited with status 3"),
                                             ("kill", "was killed by signal 9"),
                                             ("unpicklable", "exited with status 1")])
    def test_child_that_sends_nothing_raises(self, action, how):
        task = functools.partial(_misbehave_in, "child", action, os.getpid())
        with pytest.raises(RuntimeError, match=rf"worker process \d+ {how} without sending"):
            sw.parallel_map(task, range(4), workers=2)
        assert_no_child_left()

    @needs_two_cores
    def test_caller_exception_stops_the_children(self):
        # the caller raises on its first task; the children stop after the
        # chunk they hold, long before the 2 s the 20 tasks would take them
        task = functools.partial(_misbehave_in, "caller", "raise", os.getpid())
        t0 = time.perf_counter()
        with pytest.raises(ZeroDivisionError):
            sw.parallel_map(task, range(20), workers=2)
        assert time.perf_counter() - t0 < 1.0
        assert_no_child_left()

    @needs_two_cores
    def test_output_appears_once(self):
        # the caller's unflushed line is not written again by a child, and
        # each child's lines are flushed before it exits; stdout is a pipe,
        # so it is block-buffered unless PYTHONUNBUFFERED is set
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run([sys.executable, "-c", OUTPUT_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout.splitlines()
        caller = out[0].split()[1]
        assert out[0] == f"caller {caller}" and out.count(out[0]) == 1
        tasks = sorted(line.split()[:2] for line in out[1:])
        assert tasks == [["task", str(x)] for x in range(4)]
        assert {line.split()[2] for line in out[1:]} - {caller}    # a child printed



class TestConfig:
    def test_unknown_section(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"engines": {}}))
        with pytest.raises(ConfigError, match="unknown config section"):
            sw.load_config(str(path))

    def test_unknown_field_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"engine": {"NN": 3}}))
        with pytest.raises(ConfigError, match="engine.NN"):
            sw.load_config(str(path))

    def test_malformed_json_diagnostics(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ nope }")
        with pytest.raises(ConfigError, match="line"):
            sw.load_config(str(path))

    @pytest.mark.parametrize("doc, message", [
        ({"engine": 5}, "'engine' must be an object"),
        ({"engine": ["N"]}, "'engine' must be an object"),
        ({"sweep": {"axes": 5}}, "'sweep.axes' must be a list"),
        ({"sweep": {"axes": [{"param": "engine.N"}]}}, "a list 'values'"),
        ({"sweep": {"axes": [{"param": "engine.N", "values": 3}]}}, "a list 'values'"),
        ({"engine": {"Delta": None}}, "engine.Delta must be a number, got None"),
        ({"coupling": {"g": [1]}}, "coupling.g must be a number, got [1]"),
        ({"system": {"omega_T": {}}}, "system.omega_T must be a number, got {}"),
        ({"engine": {"v": True}}, "engine.v must be a number, got True"),
        ({"coupling": {"kind": "kick"}}, "coupling.kind must be one of"),
        # integers too large for a float, for a count and for a number
        ({"engine": {"N": 10 ** 400}}, "engine.N is out of range: an integer of 1329 bits"),
        ({"engine": {"T": 10 ** 400}}, "engine.T is out of range: an integer of 1329 bits"),
        # JSON's NaN and Infinity literals
        ({"engine": {"Omega0": math.nan}}, "engine.Omega0 must be finite, got nan"),
        ({"coupling": {"g": math.inf}}, "coupling.g must be finite, got inf"),
        ({"engine": {"beta_c_E0": -math.inf}}, "engine.beta_c_E0 must be finite, got -inf"),
    ], ids=["engine-number", "engine-list", "axes-number", "axis-without-values",
            "values-number", "null-number", "list-number", "object-number", "bool-number",
            "unknown-choice", "huge-count", "huge-number", "nan-number", "inf-number",
            "minus-inf-number"])
    def test_malformed_section_exit_2(self, tmp_path, capsys, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        for command in ("analytic", "sweep"):
            assert sw.cli_main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and message in err, err

    def test_integer_fields(self):
        # 3 and 3.0 count the same; 2.7 is no count and is not truncated
        T = 20.0
        assert sw.build_engine({"N": 3.0}).N == sw.build_engine({"N": 3}).N == 3
        assert sw.build_system({"dim": 5.0}, T).dim == 5
        for build, field in ((lambda: sw.build_engine({"N": 2.7}), "engine.N"),
                             (lambda: sw.build_system({"dim": 4.5}, T), "system.dim")):
            with pytest.raises(ConfigError, match=f"{field} must be an integer"):
                build()

    def test_fractional_n_exit_2(self, tmp_path, capsys):
        path = tmp_path / "n.json"
        path.write_text(json.dumps({"engine": {"N": 2.7}}))
        assert sw.cli_main(["analytic", "--config", str(path)]) == 2
        assert "engine.N must be an integer, got 2.7" in capsys.readouterr().err

    def test_fractional_seed_exit_2(self, capsys):
        # a seed is a count like N: verify's 2.5 is refused, not truncated to 2
        assert sw.cli_main(["verify", "--fast", "--seed", "2.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid int value: '2.5'" in captured.err

    def test_caption_normalized_baths(self):
        engine = sw.build_engine({"N": 2, "Delta": 1.4, "beta_c_E0": 2.0,
                                  "beta_h_EH": 0.25})
        assert engine.beta_c * float(engine.energy(0.0)) == pytest.approx(2.0)
        assert engine.beta_h * float(engine.energy(engine.T / 2)) == pytest.approx(0.25)


class TestSweepSpec:
    def spec(self, **kw):
        base = dict(
            axes=(("engine.N", (1, 2, 3)),),
            fixed={"engine": {"Delta": 0.0}, "coupling": {"kind": "impulse"}},
            method="analytic",
            out="unused",
        )
        base.update(kw)
        return sw.SweepSpec(**base)

    def test_unknown_axis_param(self):
        with pytest.raises(ConfigError, match="does not name"):
            self.spec(axes=(("engine.mass", (1, 2)),))

    @pytest.mark.parametrize("axis", [{"param": "engine.N"},
                                      {"param": "engine.N", "values": 3},
                                      {"values": [1]}],
                             ids=["no-values", "values-number", "no-param"])
    def test_malformed_axis_config_error(self, axis):
        spec = {"axes": [axis], "fixed": {}}
        with pytest.raises(ConfigError, match="a string 'param' and a list 'values'"):
            sw.SweepSpec.from_dict(spec)

    def test_cell_cap(self):
        with pytest.raises(ConfigError, match="cap"):
            self.spec(axes=(("engine.N", tuple(range(1, 402))),
                            ("engine.Omega0", tuple(np.linspace(1, 2, 300)))))

    def test_manifest_roundtrip(self, tmp_path):
        # the method is always written, "analytic" when none is given
        spec = sw.SweepSpec(axes=(("engine.N", (1, 2)),), fixed={}, out=str(tmp_path / "a"))
        for spec, method in ((spec, "analytic"),
                             (replace(spec, method="both", out=str(tmp_path / "b")), "both")):
            manifest = sw.run_sweep(spec, out_dir=spec.out)
            assert manifest["spec"]["method"] == method
            assert sw.SweepSpec.from_dict(manifest["spec"]) == spec

    @pytest.mark.parametrize("out", [5, None, ["a"]], ids=["number", "null", "list"])
    def test_out_must_be_a_string(self, tmp_path, capsys, out):
        # a non-string out used to fail in os.path.join with a traceback
        with pytest.raises(ConfigError, match="sweep.out must be a string"):
            self.spec(out=out)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"sweep": {"axes": [{"param": "engine.N", "values": [1]}],
                                              "out": out}}))
        assert sw.cli_main(["sweep", "--config", str(path)]) == 2
        assert "config error: sweep.out must be a string" in capsys.readouterr().err

    def test_manifest_times_every_cell(self, tmp_path):
        spec = self.spec(axes=(("engine.N", (1, 2, 3)), ("engine.Delta", (0.0, 0.5))))
        manifest = sw.run_sweep(spec, threads=2, out_dir=str(tmp_path))
        walls = manifest["cell_wall_s"]
        assert len(walls) == manifest["n_cells"] == 6
        assert all(w > 0.0 for w in walls)
        assert json.loads((tmp_path / "manifest.json").read_text())["cell_wall_s"] == walls
        assert "wall" not in (tmp_path / "data.csv").read_text()

    def test_manifest_summarises_the_cycles_of_ok_cells(self, tmp_path):
        # a failed cell runs no cycle; an analytic sweep records none
        spec = replace(BOTH_SPEC, axes=(("engine.N", (1, 2)), ("engine.Delta", (0.5, -1.0))))
        cycles = sw.run_sweep(spec, out_dir=str(tmp_path))["cycles"]
        _, cfgs = sw._grid(spec.fixed, spec.axes)
        expect = sw._cycle_summary([diag for cfg in cfgs[::2]
                                    for diag in sw._eval_work_cell(cfg, "both")[1]])
        assert cycles["n_cycles"] == len(cycles.pop("cycle_wall_s")) == 4
        assert cycles == {k: v for k, v in expect.items() if k != "cycle_wall_s"}
        assert cycles["split_steps_total"] > 0
        analytic = sw.run_sweep(replace(spec, method="analytic"), out_dir=str(tmp_path))
        assert "cycles" not in analytic

    def test_manifest_sums_the_steps_of_mixed_coupling_kinds(self, tmp_path):
        # impulse runs count engine steps, plateau runs split steps: a sweep
        # over coupling.kind records both totals, each over its own runs
        spec = sw.SweepSpec(axes=(("coupling.kind", ("impulse", "plateau")),),
                            fixed={"engine": {"v": 0.2, "T": 2.5}, "coupling": {"g": 0.01},
                                   "system": {"dim": 4}},
                            method="numerical", out="unused")
        manifest = sw.run_sweep(spec, out_dir=str(tmp_path))
        assert manifest["n_failed"] == 0
        cycles = manifest["cycles"]
        _, cfgs = sw._grid(spec.fixed, spec.axes)
        impulse, plateau = (sw._eval_work_cell(cfg, "numerical")[1] for cfg in cfgs)
        assert cycles["n_cycles"] == 4
        assert cycles["n_engine_steps_total"] == sum(d["n_engine_steps"] for d in impulse)
        assert cycles["split_steps_total"] == sum(d["split_steps"] for d in plateau) > 0
        assert cycles["n_steps_per_half_total"] == sum(d["n_steps_per_half"] for d in plateau)
        assert (tmp_path / "data.csv").read_text().count(",ok") == 2

    def test_deterministic_bytes(self, tmp_path):
        spec = self.spec()
        sw.run_sweep(spec, out_dir=str(tmp_path / "a"))
        sw.run_sweep(spec, out_dir=str(tmp_path / "b"))
        a = (tmp_path / "a" / "data.csv").read_bytes()
        b = (tmp_path / "b" / "data.csv").read_bytes()
        assert a == b

    def test_threaded_matches_serial(self, tmp_path):
        # threads counts worker processes; 1 and 2 give the same bytes
        for k, spec in enumerate((self.spec(), BOTH_SPEC)):
            sw.run_sweep(spec, threads=1, out_dir=str(tmp_path / f"s{k}"))
            manifest = sw.run_sweep(spec, threads=2, out_dir=str(tmp_path / f"t{k}"))
            assert_no_child_left()
            assert manifest["n_failed"] == 0
            assert (tmp_path / f"s{k}" / "data.csv").read_bytes() == \
                   (tmp_path / f"t{k}" / "data.csv").read_bytes()

    def test_single_cell_matches_direct_call(self, tmp_path):
        import qstatwork as qw

        spec = sw.SweepSpec(
            axes=(("engine.N", (3,)),),
            fixed={"engine": {"Delta": 0.0}, "coupling": {"kind": "impulse"}},
            method="analytic", out="unused",
        )
        sw.run_sweep(spec, out_dir=str(tmp_path))
        lines = (tmp_path / "data.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        engine = sw.build_engine({"N": 3, "Delta": 0.0})
        sched = sw.build_schedule({"kind": "impulse"}, engine.T)
        system = sw.build_system({}, engine.T)
        ratio, rec_b, _ = qw.enhancement(engine, sched, system)
        got = float(row[header.index("work_indist")])
        assert got == pytest.approx(rec_b.avg_work, rel=1e-15)
        assert float(row[header.index("enhancement")]) == pytest.approx(ratio, rel=1e-15)

    def test_smooth_cell_computes_amplitudes_once(self, monkeypatch):
        # one quadrature of the coupled levels (stroke 1, mirrored into
        # stroke 2) serves both statistics and the N = 1 reference, with
        # the values of the separate closed-form calls
        import qstatwork as qw
        import qstatwork.analytics as an

        cfg = {"engine": {"N": 3, "Delta": 0.5, "v": 0.2, "T": 2.5},
               "coupling": {"kind": "plateau", "g": 0.01}, "system": {"dim": 4}}
        engine, sched, system = sw._build_case(cfg)
        expect = [qw.general_work(p, sched, system, s).avg_work for p, s in (
            (engine, qw.Statistics.BOSE), (engine, qw.Statistics.DISTINGUISHABLE),
            (replace(engine, N=1), qw.Statistics.BOSE))]
        calls = []
        true = an._amplitude_grid

        def counted(engines, schedule, t0, eps, v):
            calls.append(list(eps))
            return true(engines, schedule, t0, eps, v)

        monkeypatch.setattr(an, "_amplitude_grid", counted)
        out, diags = sw._eval_work_cell(cfg, "analytic")
        level1 = [system.energies[1]]
        assert calls == [level1]                # ho(4) couples level 1 only
        assert diags == []                      # and runs no cycle
        assert [out["work_indist"], out["work_dist"]] == expect[:2]
        assert out["sqrt_work_ratio"] == math.sqrt(expect[0] / expect[2])

    def test_error_rows_tagged(self, tmp_path):
        spec = sw.SweepSpec(
            axes=(("engine.Delta", (0.0, -1.0)),),       # -1 is invalid
            fixed={"coupling": {"kind": "impulse"}},
            method="analytic", out="unused",
        )
        for threads in (1, 2):        # the failing cell runs in a worker at 2
            manifest = sw.run_sweep(spec, threads=threads, out_dir=str(tmp_path))
            assert manifest["n_failed"] == 1
            rows = (tmp_path / "data.csv").read_text().splitlines()
            assert rows[1].endswith(",ok") and rows[2].endswith(",error:ValueError")

    def test_fractional_axis_value_fails_its_cell(self, tmp_path):
        spec = sw.SweepSpec(
            axes=(("engine.N", (1.5, 2)),),
            fixed={"coupling": {"kind": "impulse"}},
            method="analytic", out="unused",
        )
        assert sw.run_sweep(spec, out_dir=str(tmp_path))["n_failed"] == 1
        rows = (tmp_path / "data.csv").read_text().splitlines()
        assert rows[1].endswith(",error:ConfigError") and rows[2].endswith(",ok")

    @pytest.mark.parametrize("bad", [None, [1], True], ids=["null", "list", "bool"])
    def test_mistyped_axis_value_fails_its_cell(self, tmp_path, bad):
        spec = sw.SweepSpec(
            axes=(("engine.Delta", (bad, 0.5)),),
            fixed={"coupling": {"kind": "impulse"}},
            method="analytic", out="unused",
        )
        assert sw.run_sweep(spec, out_dir=str(tmp_path))["n_failed"] == 1
        rows = (tmp_path / "data.csv").read_text().splitlines()
        assert rows[1].endswith(",error:ConfigError") and rows[2].endswith(",ok")

    def test_fermi_section_refused(self):
        # a sweep runs the work of (engine, coupling, system) cases; lambda
        # tables come from `qstatwork fermi` and Fig. 4
        with pytest.raises(ConfigError, match="^unknown config section 'fermi'$"):
            self.spec(fixed={"fermi": {"N": 2}})
        with pytest.raises(ConfigError, match="^axis parameter 'fermi.N' does not name"):
            self.spec(axes=(("fermi.N", (2, 3)),))

    def test_sweep_task_refused(self):
        # a manifest that still records a sweep task does not re-ingest
        with pytest.raises(ConfigError, match="^unknown field 'sweep.task'"):
            sw.SweepSpec.from_dict(dict(self.spec().to_dict(), task="work"))


    @pytest.mark.parametrize("kind", ["impulse", "plateau"])
    def test_huge_coupling_fails_its_cell_as_perturbative(self, tmp_path, kind):
        # g^2 overflowed a Python float power: the cell was error:OverflowError
        spec = sw.SweepSpec(axes=(("coupling.kind", (kind,)), ("coupling.g", (1e200,))),
                            fixed={}, method="analytic", out="unused")
        assert sw.run_sweep(spec, out_dir=str(tmp_path))["n_failed"] == 1
        row = (tmp_path / "data.csv").read_text().splitlines()[1]
        assert row.endswith(",error:PerturbativeValidityError"), row

    def test_impulse_sweep_gives_the_fig2a_rows(self, tmp_path):
        # Fig. 2a is the Fig.-2a config document swept over N and Delta: a
        # method-both sweep of it gives the figure's two ratios bit for bit
        spec = sw.SweepSpec(axes=(("engine.N", (1, 2)), ("engine.Delta", (0.0, 1.4))),
                            fixed={"system": {"dim": 10}}, method="both", out="unused")
        sw.run_sweep(spec, out_dir=str(tmp_path))
        header, *rows = (line.split(",") for line in
                         (tmp_path / "data.csv").read_text().splitlines())
        got = {(int(r[0]), float(r[1])): (float(r[header.index("enhancement")]),
                                          float(r[header.index("enhancement_numeric")]))
               for r in rows}
        fig2a, _ = sw._impulse_runs(1, (1, 2), (0.0, 1.4))
        assert len(got) == 4
        assert got == {(N, delta): (ana, num) for N, delta, ana, num in fig2a}


class TestCli:
    @pytest.mark.parametrize("kind", ["impulse", "plateau"])
    def test_huge_coupling_exit_1(self, capsys, kind):
        # g^2 overflowed a Python float power: an OverflowError traceback
        assert sw.cli_main(["analytic", "--coupling", kind, "--g", "1e200"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: total excitation inf is not below 0.5"), \
            captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("flag, value", [("--omegat-min", "-1"), ("--omegat-max", "nan")])
    def test_region_refuses_bad_omega_t(self, tmp_path, capsys, flag, value):
        # a negative omega T wrote a map of negative oscillator frequencies
        # (exit 0); a NaN one ended in a quadrature error (exit 1)
        assert sw.cli_main(["region", "--out", str(tmp_path), flag, value]) == 2
        assert capsys.readouterr().err.startswith("config error: omega T must be positive")
        assert not (tmp_path / "data.csv").exists()

    def test_analytic_n1_unity(self, capsys):
        rc = sw.cli_main(["analytic", "--N", "1", "--delta", "0.7"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["enhancement_ratio"] == pytest.approx(1.0, abs=1e-12)

    def test_negative_rate_reverses_the_sweep(self, capsys):
        # --v -0.1 runs Omega from 3 down to 2 in stroke 1: another work than
        # --v 0.1, and the library's on the same drive.  At Delta = 0 an
        # impulse's closed form reads beta_c E_0 alone and cannot see the sign
        works = {}
        for v in ("0.1", "-0.1"):
            assert sw.cli_main(["analytic", "--omega0", "3", "--delta", "0.5", "--v", v]) == 0
            works[v] = json.loads(capsys.readouterr().out)["indistinguishable"]["avg_work"]
        assert works["-0.1"] != works["0.1"]
        T = 20.0
        p = qw.EngineParams(N=2, Omega0=3.0, Delta=0.5, v=-0.1, T=T,
                            beta_c=2.0 / math.hypot(3.0, 0.5), beta_h=0.25 / math.hypot(2.0, 0.5))
        _, rec_b, _ = qw.enhancement(p, qw.Impulse(g=0.01, t1=0.35 * T / 2, T=T),
                                     qw.harmonic_system(2 * math.pi * 0.05 / T, 12))
        assert works["-0.1"] == rec_b.avg_work

    def test_gap_direction_refused(self, tmp_path, capsys):
        # the sign of engine.v is the direction of the sweep
        path = tmp_path / "direction.json"
        path.write_text(json.dumps({"engine": {"gap_direction": "decreasing"}}))
        assert sw.cli_main(["analytic", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: unknown field 'engine.gap_direction'")

    def test_usage_error_exit_2(self):
        assert sw.cli_main(["analytic", "--no-such-flag"]) == 2
        assert sw.cli_main(["nonsense"]) == 2

    def test_module_entry_point(self, tmp_path):
        # `python -m qstatwork` runs `main`, whose exit status is cli_main's
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "qstatwork", *argv], env=env,
                                  cwd=tmp_path, capture_output=True, text=True, timeout=120)

        ok = run("analytic", "--N", "1")
        assert ok.returncode == 0, ok.stderr
        assert json.loads(ok.stdout)["enhancement_ratio"] == pytest.approx(1.0, abs=1e-12)
        bad = run("analytic", "--no-such-flag")
        assert bad.returncode == 2 and bad.stdout == ""
        assert "unrecognized arguments: --no-such-flag" in bad.stderr

    def test_config_error_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"engine": {"bogus": 1}}))
        rc = sw.cli_main(["analytic", "--config", str(path)])
        assert rc == 2

    @pytest.mark.parametrize("command", ["analytic", "evolve"])
    def test_sweep_section_outside_sweep_exit_2(self, tmp_path, capsys, command):
        # the section changed nothing: the defaults' output, exit 0
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"sweep": {"axes": [{"param": "engine.N", "values": [1, 2]}],
                                              "method": "both", "out": "x"}}))
        assert sw.cli_main([command, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: the 'sweep' section"), captured.err

    def test_bad_value_exit_2(self, tmp_path, capsys):
        # values the parameter classes reject are usage errors, not tracebacks
        path = tmp_path / "n0.json"
        path.write_text(json.dumps({"engine": {"N": 0}}))
        for argv in (["analytic", "--N", "0"], ["analytic", "--delta", "-1"],
                     ["analytic", "--config", str(path)]):
            assert sw.cli_main(argv) == 2
            assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("N, message", [
        ("4", "the drive's energy scale"), ("1", "a span of")],
        ids=["energy-scale", "step-count"])
    def test_overflowing_drive_exit_2(self, capsys, N, message):
        # N max(E_0, E_T/2) = inf ended in a ZeroDivisionError traceback, and
        # a finite 1e308 whose step cap 1e-310 leaves T/2 / cap = inf in an
        # OverflowError traceback
        argv = ["evolve", "--omega0", "1e308", "--v", "0", "--N", N, "--beta-c-e0", "1.5e308",
                "--beta-h-eh", "1e308", "--dim", "4"]
        assert sw.cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {message}"), captured.err

    @pytest.mark.parametrize("argv, field", [
        (["--omega0", "1", "--v", "-0.1"], "beta_h_EH"),
        (["--omega0", "0", "--v", "0.1"], "beta_c_E0")], ids=["zero-E(T/2)", "zero-E(0)"])
    def test_zero_stroke_start_energy_exit_2(self, capsys, argv, field):
        # a Delta = 0 sweep may close the gap at one stroke start; a
        # temperature given in units of that energy ended in a
        # ZeroDivisionError traceback
        assert sw.cli_main(["analytic", "--delta", "0", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: engine.{field}"), captured.err

    @pytest.mark.parametrize("dt", ["nan", "inf", "-inf", "0"])
    def test_non_finite_dt_exit_2(self, capsys, dt):
        # a NaN step passed the positivity check and was refused by the step
        # count as "a span of 10.0 in steps of at most nan takes more steps
        # than a float can count"
        assert sw.cli_main(["evolve", f"--dt={dt}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: dt must be a positive finite number"), \
            captured.err

    @pytest.mark.parametrize("argv, field", [
        (["analytic", "--omega0", "nan", "--beta-c-e0", "2", "--beta-h-eh", "0.25"],
         "engine.Omega0"),
        (["analytic", "--v", "inf", "--beta-c-e0", "2", "--beta-h-eh", "0.25"], "engine.v"),
        (["evolve", "--coupling", "plateau", "--g", "nan", "--dim", "4"], "coupling.g"),
    ], ids=["analytic-nan", "analytic-inf", "evolve-nan"])
    def test_non_finite_flag_exit_2(self, capsys, argv, field):
        # these printed NaN, which is no JSON, and exited 0, or failed to
        # diagonalise in the propagation
        assert sw.cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {field} must be finite"), captured.err

    def test_field_flags_unchanged(self):
        # the flags of analytic and evolve, in help order, and their choices
        fields = ["--N", "--omega0", "--delta", "--v", "--T", "--beta-c-e0", "--beta-h-eh",
                  "--coupling", "--g", "--t1-frac", "--delta-t", "--alpha-over-t", "--omega-t",
                  "--dim"]
        coupling = {"--coupling": ["impulse", "plateau"]}
        for command, extra, choices in (
                ("analytic", [], coupling),
                ("evolve", ["--statistics", "--dt", "--trace"],
                 {**coupling, "--statistics": ["bose", "distinguishable"]})):
            actions = subcommand(command)._actions
            assert [opt for a in actions for opt in a.option_strings
                    if opt not in ("-h", "--help")] == ["--config", *fields, *extra]
            assert {a.option_strings[0]: list(a.choices) for a in actions if a.choices} == choices

    def test_every_flag_changes_the_output(self, tmp_path, monkeypatch, capsys):
        # each option of analytic and evolve, set to two valid values under a
        # coupling kind that reads it, changes what the command gives: its
        # stdout, less the wall times, and the files it writes.  A choice
        # takes two of its choices, a field flag its _FIELDS default and
        # 0.9 times it (0.1 for 0, one more for a count), on the small case
        # N = 1, dim 4 (where Delta != 0, else the kick time changes nothing);
        # any other option is absent, then given as in `given`
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text(json.dumps({"engine": {"v": 0.2}}))
        given = {"--dt": "0.004", "--trace": "trace.csv", "--config": "config.json"}
        case = {"--N": 1, "--dim": 4, "--delta": 0.5}

        def output(command, opts):
            assert sw.cli_main([command, *(str(x) for kv in opts.items() for x in kv)]) == 0
            out = json.loads(capsys.readouterr().out)
            out.get("diagnostics", {}).pop("stroke_wall_s", None)
            files = {p.name: p.read_text() for p in tmp_path.iterdir() if p.name != "config.json"}
            assert all(text.count("\n") > 1 for text in files.values()), files
            for name in files:
                os.remove(name)
            return out, files

        for command in ("analytic", "evolve"):
            for action in subcommand(command)._actions[1:]:      # -h first
                flag, (section, _, key) = action.option_strings[0], action.dest.partition(".")
                name = action.dest if key else flag
                kind = next((k for k in ("plateau", "impulse") if reads(name, k)), "plateau")
                if action.choices:
                    values = list(action.choices)[:2]
                elif key:
                    kind_of, default, _ = sw._FIELDS[section][key]
                    default = case.get(flag, default)
                    values = [default, default + 1 if kind_of is int else 0.9 * default or 0.1]
                else:
                    values = [None, given[flag]]
                base = {**case, "--coupling": kind}
                a, b = (output(command, {**base, flag: v} if v is not None else base)
                        for v in values)
                assert a != b, (command, flag, values)

    def test_config_only_where_read(self, tmp_path, monkeypatch, capsys):
        # every input changes the result: a command that reads no config
        # (region, fermi), writes no file (analytic, evolve, verify) or draws
        # nothing (sweep) must refuse the flag, not silently ignore it, and
        # a config must not hold a field that no command reads
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"engine": {"N": 1}}))
        for argv in (["region", "--config", str(config), "--out", "out"],
                     ["fermi", "--config", str(config), "--out", "out"],
                     ["analytic", "--out", "out"],
                     ["evolve", "--out", "out"],
                     ["verify", "--fast", "--out", "out"],
                     ["sweep", "--config", str(config), "--seed", "3", "--out", "out"]):
            assert sw.cli_main(argv) == 2, argv
            assert "unrecognized arguments" in capsys.readouterr().err, argv
            assert os.listdir(tmp_path) == ["config.json"], argv
        axes = [{"param": "engine.N", "values": [1]}]
        for doc, field in (({"sweep": {"axes": axes, "seed": 5}}, "sweep.seed"),
                           ({"system": {"kind": "harmonic"}}, "system.kind")):
            config.write_text(json.dumps(doc))
            for argv in (["analytic", "--config", str(config)],
                         ["sweep", "--config", str(config), "--out", "out"]):
                assert sw.cli_main(argv) == 2, argv
                assert f"unknown field '{field}'" in capsys.readouterr().err, argv
                assert os.listdir(tmp_path) == ["config.json"], argv
        with pytest.raises(ConfigError, match="unknown field 'sweep.seed'"):
            sw.SweepSpec.from_dict({"axes": axes, "seed": 5})
        # nor an input that the command reads under no setting given with it:
        # a flag or field of the other coupling kind, a second parametrisation
        # of a temperature or frequency, or a statistics where both are computed
        work = {"axes": [{"param": "engine.N", "values": [1, 2]}]}
        kinds = {"axes": [{"param": "coupling.kind", "values": ["impulse", "plateau"]}]}
        unread = "config error: {} is not read when coupling.kind is {}"
        for argv, doc, message in (
                (["analytic", "--statistics", "bose"], None,
                 "unrecognized arguments: --statistics"),
                (["analytic", "--beta-c", "1", "--beta-c-e0", "5"], None,
                 "unrecognized arguments: --beta-c 1"),
                (["evolve", "--beta-h", "1"], None, "unrecognized arguments: --beta-h 1"),
                (["analytic", "--coupling", "plateau", "--t1-frac", "0.2"], None,
                 unread.format("coupling.t1_frac", "plateau")),
                (["analytic", "--delta-t", "0.5"], None,
                 unread.format("coupling.delta_t", "impulse")),
                (["evolve", "--dim", "4", "--trace", "trace.csv"], None,
                 unread.format("--trace", "impulse")),
                (["analytic"], {"system": {"omega": 0.1, "omega_T": 2.0}},
                 "config error: unknown field 'system.omega'"),
                (["sweep", "--out", "out"],
                 {"coupling": {"kind": "plateau", "t1_frac": 0.2}, "sweep": work},
                 unread.format("coupling.t1_frac", "plateau")),
                (["sweep", "--out", "out"], {"coupling": {"t1_frac": 0.2}, "sweep": kinds},
                 unread.format("coupling.t1_frac", "plateau")),
                (["sweep", "--out", "out"], {"engine": {"statistics": "bose"}, "sweep": work},
                 "config error: unknown field 'engine.statistics'")):
            if doc is not None:
                config.write_text(json.dumps(doc))
                argv = [*argv, "--config", str(config)]
            assert sw.cli_main(argv) == 2, argv
            assert message in capsys.readouterr().err, argv
            assert os.listdir(tmp_path) == ["config.json"], argv

    @pytest.mark.parametrize("command", ["analytic", "evolve", "sweep"])
    @pytest.mark.parametrize("doc, message", [
        ({"fermi": {"N": 3}}, "config error: unknown config section 'fermi'"),
        ({"sweep": {"task": "work"}}, "config error: unknown field 'sweep.task'"),
    ], ids=["fermi-section", "sweep-task"])
    def test_fermi_section_and_sweep_task_exit_2(self, tmp_path, monkeypatch, capsys,
                                                 command, doc, message):
        # lambda tables come from `qstatwork fermi` and Fig. 4: no config
        # section or sweep task asks for them
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert sw.cli_main([command, "--config", str(config)]) == 2
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["config.json"]

    def test_evolve_with_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        rc = sw.cli_main([
            "evolve", "--N", "2", "--delta", "0.0", "--coupling", "plateau",
            "--g", "0.01", "--dim", "6", "--trace", str(trace),
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["work"]["method"] == "exact-numerical"
        header = trace.read_text().splitlines()[0]
        assert header == "t,tr_rho,leakage,system_energy"

    def test_region_csv_format(self, tmp_path):
        rc = sw.cli_main([
            "region", "--out", str(tmp_path), "--n-values", "2",
            "--delta-points", "3", "--omegat-points", "4",
            "--omegat-max", str(2 * math.pi),
        ])
        assert rc == 0
        lines = (tmp_path / "data.csv").read_text().splitlines()
        assert lines[0] == "delta_over_omega0,omegaT,N,enhanced"
        assert len(lines) == 1 + 3 * 4
        quadrature = json.loads((tmp_path / "manifest.json").read_text())["quadrature"]
        assert set(quadrature) == {"panels", "refinements", "last_delta"}
        assert quadrature["panels"] > 0 and quadrature["refinements"] == 0

    def test_fermi_cli(self, tmp_path):
        rc = sw.cli_main(["fermi", "--out", str(tmp_path), "--n-values", "2",
                          "--bw-points", "3"])
        assert rc == 0
        lines = (tmp_path / "data.csv").read_text().splitlines()
        assert lines[0] == "N,beta_com_omega,lambda,lambda_asymptotic,method"

    def test_workers_follow_the_affinity_mask(self, tmp_path, monkeypatch, capsys):
        # the commands map on every core of the affinity mask: no flag or
        # environment variable sets the count, and a narrower mask gives fewer
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"sweep": {"axes": [{"param": "engine.N", "values": [1]}]}}))
        assert sw.cli_main(["sweep", "--config", str(config), "--threads", "2"]) == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        monkeypatch.setenv("QSTAT_THREADS", "1")
        for mask, workers in (({0}, 1), (os.sched_getaffinity(0), min(CORES, 24))):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, mask=mask: mask)
            assert sw.cli_main(["figure", "fig2a", "--out", str(tmp_path)]) == 0
            env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
            assert (env["cores"], env["workers"]) == (len(mask), workers)

    def test_figure_fig2b(self, tmp_path):
        rc = sw.cli_main(["figure", "fig2b", "--out", str(tmp_path)])
        assert rc == 0
        header = (tmp_path / "data.csv").read_text().splitlines()[0]
        assert header == "N,beta_c_E0,sqrt_work_ratio"

    def test_figure_manifest_summarises_cycles(self, tmp_path):
        assert sw.cli_main(["figure", "fig2a", "--out", str(tmp_path)]) == 0
        assert_no_child_left()
        cycles = json.loads((tmp_path / "manifest.json").read_text())["cycles"]
        assert cycles["n_cycles"] == len(cycles["cycle_wall_s"]) == 48   # 24 rows, 2 each
        assert all(w > 0.0 for w in cycles["cycle_wall_s"])
        assert max(cycles[f"{k}_max"] for k in ("isometry_drift", "trace_drift")) < 1e-10
        assert cycles["dropped_weight_max"] == 0.0        # kicks drop no weight
        assert cycles["n_engine_steps_total"] > 0 and "n_steps_per_half_total" not in cycles
        assert "wall" not in (tmp_path / "data.csv").read_text()

    def test_cycle_summary_counts_split_steps(self):
        # N = 2 under a smooth plateau: the Dicke run steps one sector, the
        # distinguishable run its spin-1 block only (spin 0 evolves freely)
        _, diags = sw._eval_work_cell({"coupling": {"kind": "plateau"}, "system": {"dim": 6}},
                                      "numerical")
        n = diags[0]["n_steps_per_half"]
        assert [d["split_steps"] for d in diags] == [2 * n, 2 * n]
        assert [d["sectors"] for d in diags] == [[[3, 1]], [[3, 1], [1, 1]]]
        cycles = sw._cycle_summary(diags)
        assert cycles["split_steps_total"] == 4 * n
        assert cycles["n_steps_per_half_total"] == 2 * n

    def test_cli_runs_blas_on_one_thread(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(sw, "_one_blas_thread", lambda: calls.append(1))
        assert sw.cli_main(["analytic", "--N", "1"]) == 0
        assert calls == [1]

    def test_manifests_record_workers_and_blas_threads(self, tmp_path):
        assert sw.cli_main(["figure", "fig2a", "--out", str(tmp_path / "fig2a")]) == 0
        assert sw.cli_main(["figure", "fig2b", "--out", str(tmp_path / "fig2b")]) == 0
        sw.run_sweep(BOTH_SPEC, threads=2, out_dir=str(tmp_path / "sweep"))
        # fig2b is closed-form and runs in this process
        for name, workers in (("fig2a", min(24, CORES)), ("fig2b", 1), ("sweep", min(2, CORES))):
            env = json.loads((tmp_path / name / "manifest.json").read_text())["environment"]
            assert env["workers"] == workers, name
            # cli_main set OpenBLAS to one thread in this process
            assert env["blas_threads"] == sw._blas_threads() and env["blas_threads"] in (1, None)

    def test_figure_ids_share_their_data(self, tmp_path, monkeypatch, capsys):
        # fig3a and fig3b from one command compute their Fig.-3 data once and
        # write what two single-id commands write, here on short stand-in
        # cycles for the Fig.-3 ones
        assert sw.FIGURES["fig3a"].shared is sw.FIGURES["fig3b"].shared is sw._fig3_data
        calls = []

        def fig3_data(workers):
            calls.append(workers)
            runs = [sw._eval_work_cell(cfg, "numerical")
                    for cfg in sw._grid(BOTH_SPEC.fixed, [("engine.N", (1, 2))])[1]]
            return ([(N, out["work_indist_numeric"], out["work_dist_numeric"])
                     for N, (out, _) in zip((1, 2), runs)],
                    [diag for _, diags in runs for diag in diags])

        for fig_id in ("fig3a", "fig3b"):
            monkeypatch.setitem(sw.FIGURES, fig_id, replace(sw.FIGURES[fig_id], shared=fig3_data))
        rc = sw.cli_main(["figure", "fig3a", "fig3b", "--out", str(tmp_path / "both")])
        assert calls == [CORES]
        for fig_id in ("fig3a", "fig3b"):
            assert sw.cli_main(["figure", fig_id, "--out", str(tmp_path / fig_id)]) == rc
        assert len(calls) == 3
        for fig_id in ("fig3a", "fig3b"):
            one, both = tmp_path / fig_id, tmp_path / "both" / fig_id
            assert (both / "data.csv").read_bytes() == (one / "data.csv").read_bytes()
            manifests = [json.loads((d / "manifest.json").read_text()) for d in (one, both)]
            for m in manifests:             # all but the wall times
                del m["wall_time_s"], m["cycles"]["cycle_wall_s"]
            assert manifests[0] == manifests[1]

    def test_figure_figs1_manifest_records_quadrature(self, tmp_path):
        assert sw.cli_main(["figure", "figS1", "--out", str(tmp_path)]) == 0
        quadrature = json.loads((tmp_path / "manifest.json").read_text())["quadrature"]
        assert quadrature["panels"] > 0 and quadrature["refinements"] == 0
        assert 0.0 <= quadrature["last_delta"] < 1e-12
        header = (tmp_path / "data.csv").read_text().splitlines()[0]
        assert header == "delta_over_omega0,omegaT,N,enhanced"

    def test_every_manifest_records_the_environment(self, tmp_path):
        spec = replace(BOTH_SPEC, method="analytic")
        manifests = [sw.run_sweep(spec, out_dir=str(tmp_path / "sweep")) and "sweep"]
        for command in (["fermi", "--n-values", "2"], ["region", "--n-values", "2",
                                                       "--delta-points", "2",
                                                       "--omegat-points", "2"]):
            assert sw.cli_main([command[0], "--out", str(tmp_path / command[0]),
                                *command[1:]]) == 0
            manifests.append(command[0])
        assert sw.cli_main(["figure", "fig2b", "--out", str(tmp_path / "figure")]) == 0
        for name in [*manifests, "figure"]:
            env = json.loads((tmp_path / name / "manifest.json").read_text())["environment"]
            assert env["python"] == platform.python_version()
            assert env["numpy"] == np.__version__ and env["blas"]
            assert env["cores"] == CORES
            rev = env["git_revision"]
            assert rev is None or (len(rev) == 40 and int(rev, 16) >= 0)

    def test_environment_outside_a_checkout(self, tmp_path):
        shutil.copytree(pathlib.Path(sw.__file__).parent, tmp_path / "qstatwork")
        probe = "import qstatwork.sweeps as sw; print(sw.environment()['git_revision'])"
        env = dict(os.environ, PYTHONPATH=str(tmp_path))
        out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "None"

    def test_figure_fig4(self, tmp_path):
        rc = sw.cli_main(["figure", "fig4even", "--out", str(tmp_path)])
        assert rc == 0

    VERIFY_FAST_CHECKS = ("moment-oracles", "inequality-battery", "delta0-dominance",
                          "fermi-parity")

    def test_verify_fast(self, capsys):
        rc = sw.cli_main(["verify", "--fast"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in self.VERIFY_FAST_CHECKS:
            assert f"PASS [{name}]" in out
        assert "FAIL" not in out

    def test_verify_full(self, capsys):
        # the full battery adds criterion 3 on the Fig.-2a cases N = 1, 2, 4
        # at Delta = 1.4
        assert sw.cli_main(["verify"]) == 0
        out = capsys.readouterr().out
        for name in (*self.VERIFY_FAST_CHECKS, "impulse-enhancement"):
            assert f"PASS [{name}]" in out
        assert "FAIL" not in out

    def test_sweep_command(self, tmp_path, capsys):
        # the command writes run_sweep's bytes, and exits 1 once more than 1%
        # of the cells fail
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(dict(BOTH_SPEC.fixed, sweep={
            "axes": [{"param": p, "values": list(v)} for p, v in BOTH_SPEC.axes],
            "method": "both"})))
        assert sw.cli_main(["sweep", "--config", str(config), "--out", str(tmp_path / "cli")]) == 0
        assert capsys.readouterr().out == "4 cells, 0 failed\n"
        sw.run_sweep(BOTH_SPEC, out_dir=str(tmp_path / "api"))
        assert (tmp_path / "cli" / "data.csv").read_bytes() == \
               (tmp_path / "api" / "data.csv").read_bytes()
        for n_cells, rc in ((100, 0), (99, 1)):       # one failed cell (Delta = -1) in each
            deltas = [-1.0, *np.linspace(0.0, 1.0, n_cells - 1).tolist()]
            config.write_text(json.dumps({"sweep": {"axes": [{"param": "engine.Delta",
                                                             "values": deltas}]}}))
            assert sw.cli_main(["sweep", "--config", str(config),
                                "--out", str(tmp_path / "failing")]) == rc
            assert capsys.readouterr().out == f"{n_cells} cells, 1 failed\n"

    def test_verify_seed_180(self, capsys):
        # criterion 5 drew a plateau that does not switch off at t = 0 and T
        # at this seed, and the command ended in a config error
        assert sw.cli_main(["verify", "--fast", "--seed", "180"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_verify_runs_every_check_when_one_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(sw, "_check_moment_oracles", lambda: (False, "forced"))
        assert sw.cli_main(["verify", "--fast"]) == 1
        out = capsys.readouterr().out
        assert "FAIL [moment-oracles] forced" in out
        for name in self.VERIFY_FAST_CHECKS[1:]:
            assert f"PASS [{name}]" in out

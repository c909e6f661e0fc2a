"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench

They run real (shortened) call lists, so they take about half a minute.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (sets the BLAS thread count before NumPy loads)

assert run.use_source()

import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qstatwork import analytics, dynamics, sweeps  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _inputs_json(wl):
    return json.dumps(wl.inputs, sort_keys=True)


def test_same_seed_gives_identical_inputs():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 7), workloads.build(name, 7)
        assert _inputs_json(a) == _inputs_json(b)
        assert [op.name for op in a.ops] == [op.name for op in b.ops]
        assert _inputs_json(a) != _inputs_json(workloads.build(name, 8))


def test_seeds_share_n_lists_and_sector_steps():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 3), workloads.build(name, 4)
        assert [op.name for op in a.ops] == [op.name for op in b.ops]
    steps = []
    for seed in (3, 4):
        wl = workloads.build("fig3-smooth", seed)
        rep = run.run_rep(wl, run.load_references(wl), tracing.Tracer())
        assert rep.failed == set() and rep.drift <= run.REF_RTOL
        steps.append(run.layer_metrics(rep, wl)["dynamics.sector_steps"])
    assert steps[0] == steps[1] > 0


def _cheap_impulse_ops(seed):
    wl = workloads.build("fig2-impulse", seed)
    wl.ops = [op for op in wl.ops if op.name.endswith("Delta=0.0")][:6]
    return wl, run.load_references(wl)


def test_injected_failing_call_raises_failed_frac():
    wl, refs = _cheap_impulse_ops(5)
    assert run.run_rep(wl, refs).failed == set()

    def boom():
        raise RuntimeError("injected failure")

    victim = wl.ops[1]
    wl.ops[1] = workloads.Op(victim.name, victim.layer, boom)
    rep = run.run_rep(wl, refs)
    assert rep.failed == {victim.name}
    assert rep.errors and "injected failure" in rep.errors[0]["traceback"]


def test_output_off_its_reference_is_a_failed_op():
    wl, refs = _cheap_impulse_ops(5)
    victim = wl.ops[0]

    def drifted():
        out = victim.call()
        return {k: v * (1 + 1e-6) for k, v in out.items()}

    wl.ops[0] = workloads.Op(victim.name, victim.layer, drifted)
    rep = run.run_rep(wl, refs)
    assert victim.name in rep.failed
    assert rep.drift > run.REF_RTOL


def test_sweep_that_writes_no_csv_is_a_failed_op(monkeypatch):
    wl = workloads.build("sweep-both", 5)
    refs = run.load_references(wl)
    monkeypatch.setattr(sweeps, "_write_csv", lambda *args, **kwargs: None)
    rep = run.run_rep(wl, refs)
    assert rep.failed == {"run_sweep"}
    assert "data.csv" in rep.errors[0]["traceback"]


def test_inequality_battery_that_returns_early_is_a_failed_op(monkeypatch):
    wl = workloads.build("closed-form", 5)
    wl.ops = [op for op in wl.ops if op.name.startswith("verify_inequalities")]
    refs = run.load_references(wl)
    assert run.run_rep(wl, refs).failed == set()

    def early(N_max, x_grid, tol=1e-12):
        names = ("f_upper_bound", "f_lower_vs_dist", "ladder_vs_dist", "cross_term")
        return analytics.InequalityReport(N_max, np.asarray(x_grid),
                                          {k: (np.inf, None) for k in names}, 0.0)

    monkeypatch.setattr(analytics, "verify_inequalities", early)
    rep = run.run_rep(wl, refs)
    assert rep.failed == {wl.ops[0].name}
    assert rep.drift == float("inf")


def test_tracer_restores_the_layer_functions():
    original = dynamics.run_cycle
    with tracing.Tracer():
        assert dynamics.run_cycle is not original
    assert dynamics.run_cycle is original


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_printed_metric_names_are_those_of_benchmark_json():
    spec = _spec()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        res = _run("closed-form", trace)
        assert res.returncode == 0, res.stderr
        result = json.loads(res.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in spec[section]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == declared
        for name in printed:
            assert NAME_RE.fullmatch(name), name


def test_benchmark_json_names_are_well_formed():
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_without_sources_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = _run("closed-form", 0, cwd=tmp_path)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout


def test_drift_flags_nan_flipped_bits_and_missing_outputs():
    assert run.drift({"w": 2.0, "bits": "01"}, {"w": 2.0, "bits": "01"}) == 0.0
    assert run.drift({"w": float("nan")}, {"w": 2.0}) == float("inf")
    assert run.drift({"bits": "00"}, {"bits": "01"}) == 1.0
    assert run.drift({"w": 2.0}, {"w": 2.0, "x": 1.0}) == float("inf")
    assert run.drift({"w": 2.0}, None) == float("inf")
    assert run.drift({"m": -4e-16}, {"m": -8e-16}, atol=1e-12) == 0.0
    assert run.drift({"m": -4e-12}, {"m": -8e-16}, atol=1e-12) > run.REF_RTOL

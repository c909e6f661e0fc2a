"""Seeded workloads of the qstatwork benchmark.

A workload is a fixed list of top-level calls into the public functions
of ``dynamics``, ``analytics``, ``fermi`` and ``sweeps`` (the ops), the
inputs they receive, and the paper's checks on their outputs.  The seed
draws temperatures, coupling strength, kick time and plateau width.  N
lists, system dims, Omega0, v, Delta and T are fixed, so the step
counts, and with them the cost, do not depend on the seed.

The seed selects one of ``N_VARIANTS`` input draws (``seed % N_VARIANTS``),
so that every input the benchmark can generate has a stored reference.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qstatwork import analytics, dynamics, fermi, sweeps
from qstatwork.protocols import Impulse, SmoothPlateau, Statistics, harmonic_system

N_VARIANTS = 16
XCHECK_BAND = 0.02        # the paper's analytic-vs-numeric band
BOSE, DIST = Statistics.BOSE, Statistics.DISTINGUISHABLE


@dataclass
class Op:
    """One top-level call; ``call`` returns its outputs by name.

    An output matches its reference when it is within ``atol`` of it or
    within the runner's relative tolerance.
    """

    name: str
    layer: str
    call: Callable[[], dict]
    atol: float = 0.0


@dataclass
class Workload:
    name: str
    seed: int
    variant: int
    inputs: dict                   # drawn and fixed inputs, JSON-ready
    ops: list
    # outputs by op name -> (names of ops failing a paper check, xcheck gap or None)
    check: Callable[[dict], tuple]
    options: dict                  # run settings the runner may change: sweep threads
    calibration: str               # kernel whose speed tracks this workload's: small or dense


def _engine(N, delta, T, v, beta_c_E0, beta_h_EH, omega0=1.0):
    return sweeps.build_engine({
        "N": N, "Omega0": omega0, "Delta": delta, "v": v, "T": T,
        "beta_c_E0": beta_c_E0, "beta_h_EH": beta_h_EH,
    })


def _cycle_op(N, stats, params, schedule, system, tag=""):
    def call():
        res = dynamics.run_cycle(params, schedule, system, statistics=stats)
        return {"avg_work": res.work.avg_work}
    return Op(f"run_cycle N={N} {stats.value}{tag}", "dynamics", call)


def _enhancement_op(N, params, schedule, system, tag=""):
    def call():
        ratio, _, _ = analytics.enhancement(params, schedule, system)
        return {"ratio": ratio}
    return Op(f"enhancement N={N}{tag}", "analytics", call)


def _temperatures(rng) -> dict:
    return {"beta_c_E0": float(rng.uniform(1.5, 2.5)),
            "beta_h_EH": float(rng.uniform(0.2, 0.3))}


# ---------------------------------------------------------------------------
# fig3-smooth: Fig.-3 cycles under a strong smooth plateau, Delta = 0
# ---------------------------------------------------------------------------

FIG3 = {"T": 5.0, "Omega0": 1.0, "v": 0.4, "Delta": 0.0, "dim": 16,
        "alpha_over_T": 2142.0, "bose_N": (1, 2, 3), "dist_N": (2,)}


def _fig3_smooth(rng, options):
    f = FIG3
    inputs = dict(f, g=float(rng.uniform(0.45, 0.55)),
                  delta_t=float(rng.uniform(0.85, 0.95)), **_temperatures(rng))
    T = f["T"]
    system = harmonic_system(2 * math.pi * 0.05 / T, f["dim"])
    schedule = SmoothPlateau(g=inputs["g"], delta_t=inputs["delta_t"],
                             alpha=f["alpha_over_T"] / T, T=T)
    ops = []
    for stats, n_list in ((BOSE, f["bose_N"]), (DIST, f["dist_N"])):
        for N in n_list:
            params = _engine(N, f["Delta"], T, f["v"], inputs["beta_c_E0"], inputs["beta_h_EH"])
            ops.append(_cycle_op(N, stats, params, schedule, system))

    def check(out):
        failed = set()
        work = {}
        for N in f["bose_N"]:
            work[N] = out.get(f"run_cycle N={N} bose", {}).get("avg_work")
        ratios = [(N, math.sqrt(w / work[1])) for N, w in work.items()
                  if w is not None and work.get(1)]
        for (_, a), (N, b) in zip(ratios, ratios[1:]):
            if not b > a:
                failed.add(f"run_cycle N={N} bose")
        for N in f["dist_N"]:
            wb = work.get(N)
            wd = out.get(f"run_cycle N={N} distinguishable", {}).get("avg_work")
            if wb is not None and wd is not None and not wb / wd > 1.0:
                failed.add(f"run_cycle N={N} distinguishable")
        return failed, None

    return inputs, ops, check


# ---------------------------------------------------------------------------
# fig2-impulse: Fig.-2a kicks, engine-only propagation
# ---------------------------------------------------------------------------

FIG2 = {"T": 20.0, "Omega0": 1.0, "v": 0.1, "dim": 10, "t1_frac": 0.35,
        "cases": [[0.0, N] for N in range(1, 9)] + [[1.4, 2], [1.4, 3], [4.2, 2]],
        "witness": [1, 1.4], "fermi_N": 3}


def _fig2_impulse(rng, options):
    f = FIG2
    T = f["T"]
    inputs = dict(f, g=float(rng.uniform(0.005, 0.015)),
                  # the Delta = 0 kick time sets no step count, so it is drawn
                  t1_frac_delta0=float(rng.uniform(0.15, 0.85)),
                  beta_com_omega=float(rng.uniform(2.0, 3.0)), **_temperatures(rng))
    temps = (inputs["beta_c_E0"], inputs["beta_h_EH"])
    system = harmonic_system(2 * math.pi * 0.05 / T, f["dim"])
    kicks = {d: Impulse(g=inputs["g"], T=T, t1=(inputs["t1_frac_delta0"] if d == 0.0
                                                 else f["t1_frac"]) * T / 2)
             for d, _ in f["cases"]}
    ops = []
    for d, N in f["cases"]:
        params = _engine(N, d, T, f["v"], *temps)
        tag = f" Delta={d}"
        ops.append(_cycle_op(N, BOSE, params, kicks[d], system, tag))
        ops.append(_cycle_op(N, DIST, params, kicks[d], system, tag))
        ops.append(_enhancement_op(N, params, kicks[d], system, tag))
    wN, wd = f["witness"]
    w_params = _engine(wN, wd, T, f["v"], *temps)
    ops.append(Op(f"adiabaticity_witness N={wN} Delta={wd}", "dynamics",
                  lambda: {"witness": dynamics.adiabaticity_witness(w_params)}))
    ens = fermi.FermiEnsemble(N=f["fermi_N"], omega_trap=1.0,
                              beta_com=inputs["beta_com_omega"],
                              engine=_engine(1, 0.0, T, f["v"], *temps))

    def fermi_call():
        rec = fermi.fermi_outcoupled_work(ens, kicks[0.0], system)
        return {"avg_work": rec.avg_work, "lambda": rec.enhancement_ratio}
    ops.append(Op(f"fermi_outcoupled_work N={f['fermi_N']}", "fermi", fermi_call))

    def check(out):
        failed, gap = set(), 0.0
        for d, N in f["cases"]:
            tag = f" Delta={d}"
            name = f"enhancement N={N}{tag}"
            ratio = out.get(name, {}).get("ratio")
            wb = out.get(f"run_cycle N={N} bose{tag}", {}).get("avg_work")
            wdist = out.get(f"run_cycle N={N} distinguishable{tag}", {}).get("avg_work")
            if ratio is None:
                continue
            if ratio < 1 - 1e-12 or (N == 1 and abs(ratio - 1) > 1e-12):
                failed.add(name)
            if wb is not None and wdist is not None:
                rel = abs(wb / wdist - ratio) / ratio
                gap = max(gap, rel)
                if rel > XCHECK_BAND:
                    failed.add(name)
        return failed, gap

    return inputs, ops, check


# ---------------------------------------------------------------------------
# closed-form: analytics, quadrature and fermi only; no propagation
# ---------------------------------------------------------------------------

CLOSED = {"T": 20.0, "Omega0": 1.0, "v": 0.1, "dim": 10, "alpha_over_T": 2142.0,
          "region_delta": [0.0, 4.0, 9], "region_omega_T": [0.1, 10 * math.pi, 8],
          "region_N": [2, 6, 12, 20], "smooth_cases": [[d, N] for d in (1.4, 4.2) for N in (2, 4, 8)],
          "moment_N": [1, 99], "moment_x": [4.0, 200],
          "ineq_N_max": 40, "ineq_points": 40, "fN_N": list(range(2, 21, 2)),
          "fN_beta_com_omega": 2.0}


def _closed_form(rng, options):
    f = CLOSED
    T = f["T"]
    inputs = dict(f, g=float(rng.uniform(0.005, 0.015)),
                  delta_t=float(rng.uniform(0.85, 0.95)), **_temperatures(rng))
    temps = (inputs["beta_c_E0"], inputs["beta_h_EH"])
    # a uniform x grid over the inequality battery's range; the share of it
    # in the mpmath band (N+1) x <= 8 follows from the grid, not from a choice
    x_max, n_x = f["moment_x"]
    moment_grid = np.linspace(x_max / n_x, x_max, n_x)
    ineq_x = np.sort(rng.uniform(0.02, 4.0, f["ineq_points"]))
    inputs["ineq_x"] = ineq_x.tolist()

    base = _engine(2, 0.0, T, f["v"], *temps)
    region_args = (base, np.linspace(*f["region_delta"]), np.linspace(*f["region_omega_T"]),
                   tuple(f["region_N"]))
    region_kw = dict(g=inputs["g"], delta_t=inputs["delta_t"],
                     alpha_over_T=f["alpha_over_T"], **dict(zip(("beta_c_E0", "beta_h_EH"), temps)))

    def region_call():
        r = analytics.enhancement_region(*region_args, **region_kw)
        return {"bits": "".join("1" if b else "0" for b in r.enhanced.ravel()),
                "n2_plane": bool(r.enhanced[r.N_values.index(2)].all()),
                "delta0_column": bool(r.enhanced[:, 0, :].all())}
    ops = [Op("enhancement_region", "analytics", region_call)]

    system = harmonic_system(2 * math.pi * 0.05 / T, f["dim"])
    schedule = SmoothPlateau(g=inputs["g"], delta_t=inputs["delta_t"],
                             alpha=f["alpha_over_T"] / T, T=T)
    for d, N in f["smooth_cases"]:
        ops.append(_enhancement_op(N, _engine(N, d, T, f["v"], *temps), schedule, system,
                                   f" Delta={d} smooth"))

    def moment_op(N, x):
        def call():
            vals = np.asarray(analytics.moment_f(N, x))
            return {"sum": float(vals.sum()), "x_weighted_sum": float(vals @ x)}
        return Op(f"moment_f N={N}", "analytics", call)
    ops += [moment_op(N, moment_grid) for N in range(f["moment_N"][0], f["moment_N"][1] + 1)]

    def ineq_call():
        report = analytics.verify_inequalities(f["ineq_N_max"], ineq_x)
        out = {f"{name} margin": m for name, (m, _) in report.margins.items()}
        out["n1_equality_defect"] = report.n1_equality_defect
        return out
    # The worst margins sit at the N = 1 equality and are rounding noise, so
    # they are compared to within verify_inequalities' own tolerance.
    ops.append(Op(f"verify_inequalities N_max={f['ineq_N_max']}", "analytics", ineq_call,
                  atol=1e-12))

    fermi_engine = _engine(1, 1.0, T, 0.5, *temps, omega0=0.0)

    def f_n_op(N):
        ens = fermi.FermiEnsemble(N=N, omega_trap=1.0, beta_com=f["fN_beta_com_omega"],
                                  engine=fermi_engine)
        return Op(f"f_N N={N}", "fermi", lambda: {"lambda": fermi.f_N(ens)})
    ops += [f_n_op(N) for N in f["fN_N"]]

    def check(out):
        region = out.get("enhancement_region", {})
        ok = region.get("n2_plane", True) and region.get("delta0_column", True)
        return (set() if ok else {"enhancement_region"}), None

    return inputs, ops, check


# ---------------------------------------------------------------------------
# sweep-both: run_sweep with method="both" on a smooth perturbative plateau
# ---------------------------------------------------------------------------

SWEEP = {"N": [1, 2], "Delta": [0.5, 1.0], "T": 2.5, "Omega0": 1.0, "v": 0.2,
         "dim": 4, "alpha_over_T": 2142.0}
SWEEP_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", "sweep")


def sweep_threads() -> int:
    return len(os.sched_getaffinity(0))


def _sweep_both(rng, options):
    f, out_dir = SWEEP, SWEEP_OUT
    inputs = dict(f, g=float(rng.uniform(0.008, 0.012)),
                  delta_t=float(rng.uniform(0.85, 0.95)), **_temperatures(rng))
    spec = sweeps.SweepSpec(
        axes=(("engine.N", tuple(f["N"])), ("engine.Delta", tuple(f["Delta"]))),
        fixed={
            "engine": {"Omega0": f["Omega0"], "v": f["v"], "T": f["T"],
                       "beta_c_E0": inputs["beta_c_E0"], "beta_h_EH": inputs["beta_h_EH"]},
            "coupling": {"kind": "plateau", "g": inputs["g"], "delta_t": inputs["delta_t"],
                         "alpha_over_T": f["alpha_over_T"]},
            "system": {"dim": f["dim"]},
        },
        method="both", out=out_dir,
    )
    inputs["spec"] = spec.to_dict()

    os.makedirs(out_dir, exist_ok=True)

    def sweep_call():
        # a fresh directory per call, so that a CSV the sweep failed to
        # write cannot be read back from an earlier call
        with tempfile.TemporaryDirectory(dir=out_dir) as call_dir:
            manifest = sweeps.run_sweep(spec, threads=options["threads"], out_dir=call_dir)
            out = {"n_failed": manifest["n_failed"]}
            with open(os.path.join(call_dir, "data.csv"), newline="") as fh:
                for row in csv.DictReader(fh):
                    cell = f"N={int(row['engine.N'])} Delta={float(row['engine.Delta'])}"
                    for col, val in row.items():
                        if col not in ("engine.N", "engine.Delta", "status"):
                            out[f"{col} {cell}"] = float(val)
        return out
    op = Op("run_sweep", "sweeps", sweep_call)

    def check(out):
        res = out.get("run_sweep")
        if res is None:
            return set(), None
        ok, gap = res["n_failed"] == 0, 0.0
        for d in f["Delta"]:
            sqrt_ratios = []
            for N in f["N"]:
                cell = f"N={N} Delta={d}"
                ana, num = res.get(f"enhancement {cell}"), res.get(f"enhancement_numeric {cell}")
                if ana is None or num is None:
                    ok = False
                    continue
                gap = max(gap, abs(num - ana) / ana)
                ok = ok and abs(num - ana) <= XCHECK_BAND * ana and (N < 2 or num > 1.0)
                sqrt_ratios.append(res.get(f"sqrt_work_ratio {cell}", math.nan))
            ok = ok and all(b > a for a, b in zip(sqrt_ratios, sqrt_ratios[1:]))
        return (set() if ok else {"run_sweep"}), gap

    return inputs, [op], check


# name -> (input generator, calibration kernel, see run.calibration_s)
WORKLOADS = {
    "fig3-smooth": (_fig3_smooth, "dense"),
    "fig2-impulse": (_fig2_impulse, "small"),
    "closed-form": (_closed_form, "small"),
    "sweep-both": (_sweep_both, "small"),
}


def build(name: str, seed: int) -> Workload:
    """Generate the inputs and the op list of workload ``name`` from ``seed``."""
    variant = seed % N_VARIANTS
    options = {"threads": sweep_threads()}
    generate, calibration = WORKLOADS[name]
    inputs, ops, check = generate(np.random.default_rng(variant), options)
    return Workload(name, seed, variant, inputs, ops, check, options, calibration)

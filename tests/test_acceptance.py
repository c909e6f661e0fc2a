"""Acceptance battery: one test per criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s` to see them live).

Criteria 1-8 call the same library checks (`qstatwork.sweeps._check_*`)
as `qstatwork verify` and `qstatwork figure`; these tests add only the
wall-time bounds. Heavy propagation results are shared through
module-scoped fixtures and their numerical-health diagnostics feed the
final hygiene criterion.
"""

import math
import os
import time
import types

import numpy as np
import pytest

import qstatwork as qw
import qstatwork.analytics as an
import qstatwork.sweeps as sw
from qstatwork.dynamics import PropagatorConfig, default_dt_cap, run_cycle

from oracles import WORK_ROUNDING_FLOOR

T = 20.0
OMEGA = 2 * math.pi * 0.05 / T

_DIAGNOSTICS = []   # run_cycle diagnostics from every acceptance run


def report(criterion, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}"
    print(f"\n{line}", flush=True)
    assert ok, line


def timed_check(criterion, limit, check, *args):
    """Run one library criterion check and report it with a wall-time bound."""
    t0 = time.time()
    ok, detail = check(*args)
    dt = time.time() - t0
    report(criterion, ok and dt < limit, f"{detail}, {dt:.2f} s (< {limit:g} s)")


def tracked_run(*args, **kwargs):
    res = run_cycle(*args, **kwargs)
    _DIAGNOSTICS.append(res.diagnostics)
    return res


def fig2_engine(N, delta):
    e0 = math.hypot(1.0, delta)
    eh = math.hypot(2.0, delta)
    return qw.EngineParams(N=N, Omega0=1.0, Delta=delta, v=0.1, T=T,
                           beta_c=2.0 / e0, beta_h=0.25 / eh)


IMPULSE = qw.Impulse(g=0.01, t1=0.35 * T / 2, T=T)
FIG3_PLATEAU = qw.SmoothPlateau(g=0.5, delta_t=0.9, alpha=2142.0 / T, T=T)


@pytest.fixture(scope="module")
def fig3_runs():
    """Nonperturbative Fig.-3 works (N, W_indist, W_dist) for N = 1..6,
    the twelve cycles run on one worker process per core."""
    data, diags = sw._fig3_data(workers=len(os.sched_getaffinity(0)))
    _DIAGNOSTICS.extend(diags)
    return data


def shift_moments(monkeypatch, shift):
    """Make every closed form see (f, h) -> shift(N, f, h)."""
    true = an._thermal_moments
    monkeypatch.setattr(an, "_thermal_moments", lambda N, x: shift(N, *true(N, x)))


def test_criterion_1_moment_oracles():
    timed_check("criterion-1 (moment oracles)", 1.0, sw._check_moment_oracles)


def test_criterion_1_negative_control(monkeypatch):
    # f off by 1e-11 at one N, ten times the 1e-12 bound
    shift_moments(monkeypatch, lambda N, f, h: (f + 1e-11 if N == 7 else f, h))
    assert sw._check_moment_oracles()[0] is False


def test_criterion_2_inequality_battery():
    timed_check("criterion-2 (inequality battery)", 10.0, sw._check_inequalities,
                np.random.default_rng(20260809), 60, 40)


def test_criterion_2_fails_on_broken_n1_equality(monkeypatch):
    # h(1, x) off by 1e-10: the Bose and distinguishable weights must agree at N = 1
    # (N is an array when the battery evaluates every N at once)
    shift_moments(monkeypatch, lambda N, f, h: (f, np.where(N == 1, h + 1e-10, h)))
    ok, detail = sw._check_inequalities(np.random.default_rng(0), 4, 5)
    assert ok is False
    assert "witness (1," in detail


def test_criterion_2_draws_fail_on_shifted_f(monkeypatch):
    # f raised by 1e-9 N^2/4 crosses f <= N^2/4; the grid report is held at the
    # true moments, so the failure has to come from the random draws
    rep = an.verify_inequalities(4, np.geomspace(1e-3, 50.0, 5))
    monkeypatch.setattr(an, "verify_inequalities", lambda *args: rep)
    shift_moments(monkeypatch, lambda N, f, h: (f + 1e-9 * N * N / 4, h))
    ok, detail = sw._check_inequalities(np.random.default_rng(0), 4, 5)
    assert ok is False
    assert "draws -" in detail


def test_criterion_3_impulse_enhancement():
    def check():
        rows, diags = sw._impulse_runs()
        _DIAGNOSTICS.extend(diags)
        return sw._check_impulse(rows)

    timed_check("criterion-3 (Fig 2a impulse enhancement)", 300.0, check)


# synthetic rows (N, Delta/Omega0, analytic E, numeric E) that pass criterion 3
IMPULSE_ROWS = [[1, 0.0, 1.0, 1.0], [2, 0.0, 1.3, 1.301], [3, 1.4, 1.5, 1.49]]


def test_criterion_3_negative_controls():
    assert sw._check_impulse(IMPULSE_ROWS)[0] is True
    n1_off = [list(r) for r in IMPULSE_ROWS]
    n1_off[0][2] = 1 + 1e-9                       # E(N = 1) must equal 1
    assert sw._check_impulse(n1_off)[0] is False
    numeric_off = [list(r) for r in IMPULSE_ROWS]
    numeric_off[1][3] = 1.03 * numeric_off[1][2]  # outside the 2% band
    assert sw._check_impulse(numeric_off)[0] is False


def test_criterion_4_quadratic_scaling():
    timed_check("criterion-4 (Fig 2b quadratic scaling)", 30.0,
                lambda: sw._check_sqrt_scaling(sw._sqrt_work_rows([0.1])))


# synthetic Fig.-2b rows (N, beta_c E_0, sqrt work) for N x <= 1 at x = 0.1
def sqrt_rows(sqrt_work):
    return [[N, 0.1, sqrt_work(N)] for N in range(1, 11)]


def test_criterion_4_negative_control():
    assert sw._check_sqrt_scaling(sqrt_rows(lambda N: 0.3 * N + 0.1))[0] is True
    # sqrt(work) = N^2 curves in N: R^2 = 0.95 over N = 1..10
    assert sw._check_sqrt_scaling(sqrt_rows(lambda N: N ** 2))[0] is False


@pytest.mark.parametrize("power, ok", [(1.0, True), (1.1, False), (1.25, False)])
def test_criterion_4_own_rows_reject_curvature(monkeypatch, power, ok):
    # the check's own high-temperature rows replaced by sqrt(work) = N^power
    # over N = 1..40: R^2 = 0.99905 at power 1.1 and 0.99456 at 1.25, both
    # of which passed the R^2 > 0.99 the check held before
    monkeypatch.setattr(sw, "_sqrt_work_rows",
                        lambda xs: [[N, x, N ** power] for x in xs for N in range(1, 41)])
    assert sw._check_sqrt_scaling(sqrt_rows(lambda N: 0.3 * N + 0.1))[0] is ok


def test_criterion_5_delta0_dominance():
    timed_check("criterion-5 (Delta=0 universal dominance)", 60.0,
                sw._check_delta0_dominance, np.random.default_rng(5), 200)


def test_criterion_5_negative_control(monkeypatch):
    # the first Bose probability sits 1e-9 below the distinguishable one
    true = an.general_work
    shifted = []

    def one_bose_below(engine, schedule, system, stats, amplitudes=None):
        rec = true(engine, schedule, system, stats, amplitudes)
        if stats is qw.Statistics.BOSE and not shifted:
            p = true(engine, schedule, system, qw.Statistics.DISTINGUISHABLE, amplitudes).p_excite
            level = next(iter(p))
            shifted.append(level)
            return types.SimpleNamespace(p_excite={**rec.p_excite, level: p[level] - 1e-9})
        return rec

    monkeypatch.setattr(an, "general_work", one_bose_below)
    assert sw._check_delta0_dominance(np.random.default_rng(5), 2)[0] is False
    assert shifted


def test_criterion_5_draws_only_accepted_plateaus():
    # a plateau SmoothPlateau refuses (delta_t near 0.92 with alpha T near
    # 300 is not off at t = 0 and T) is drawn again; without the redraw, 2 of
    # these draws raised
    rng = np.random.default_rng(0)
    for _ in range(10 ** 4):
        sw.random_smooth_case(rng)


def test_criterion_5_integrates_each_level_once(monkeypatch):
    # the amplitudes depend on neither N nor the statistics: one pair of
    # stroke-start integrals per coupled level serves both probabilities,
    # all of a draw's levels in one quadrature per stroke start
    rng = np.random.default_rng(5)
    coupled = sum(np.flatnonzero(system.V_S[1:, 0]).size
                  for _, _, system in (sw.random_smooth_case(rng) for _ in range(3)))
    true, calls = an._amplitude_grid, []

    def counted(engines, schedule, t0, eps, v):
        calls.append(len(eps))
        return true(engines, schedule, t0, eps, v)

    monkeypatch.setattr(an, "_amplitude_grid", counted)
    assert sw._check_delta0_dominance(np.random.default_rng(5), 3)[0] is True
    assert len(calls) == 2 * 3 and sum(calls) == 2 * coupled


def test_criterion_6_nonperturbative(fig3_runs):
    report("criterion-6 (Fig 3 nonperturbative)", *sw._check_fig3(fig3_runs))


# synthetic works (N, W_indist, W_dist) that pass criterion 6
FIG3_ROWS = [(1, 1.0, 1.0), (2, 2.4, 2.0), (3, 3.9, 3.0), (4, 5.6, 4.0)]


def test_criterion_6_negative_controls():
    assert sw._check_fig3(FIG3_ROWS)[0] is True
    # sqrt(W(3)/W(1)) below sqrt(W(2)/W(1)), with E(N = 3) still above 1
    out_of_order = [FIG3_ROWS[0], FIG3_ROWS[1], (3, 2.3, 2.0), FIG3_ROWS[3]]
    assert sw._check_fig3(out_of_order)[0] is False
    e2_below_one = [FIG3_ROWS[0], (2, 2.4, 2.4 / 0.999), *FIG3_ROWS[2:]]
    assert sw._check_fig3(e2_below_one)[0] is False


def test_criterion_7_enhancement_region():
    timed_check("criterion-7 (Fig S1 region map)", 120.0, lambda: sw._figure_figs1()[2])


def test_criterion_7_negative_control():
    # N = 2 and 20 over two omega T, with the N = 20 gap beyond pi
    enhanced = np.array([[[True, True]], [[True, False]]])
    region = an.RegionMap(N_values=(2, 20), delta_over_omega0=np.array([0.0]),
                          omega_T=np.array([1.0, 5.0]), enhanced=enhanced,
                          work_indist=np.zeros((2, 1, 2)), work_dist=np.zeros((2, 1, 2)))
    assert sw._check_region(region)[0] is True
    enhanced[0, 0, 1] = False                      # one N = 2 cell not enhanced
    assert sw._check_region(region)[0] is False


def test_criterion_8_fermionic_parity():
    timed_check("criterion-8 (fermionic parity law)", 60.0,
                lambda: sw._check_fermi_parity(qw.fermi.lambda_table(*sw._FERMI_VERIFY_GRID)))


def test_criterion_8_negative_controls():
    rows = qw.fermi.lambda_table(*sw._FERMI_VERIFY_GRID)
    assert sw._check_fermi_parity(rows)[0] is True
    # odd N only below beta omega = 4, with a lambda far off the parity law:
    # no odd row reaches the gap test, so the rows must not pass
    odd_low = [r for r in rows if r[0] % 2 == 0] + [(3, 3.0, 0.5, 1.0, "recursion")]
    assert sw._check_fermi_parity(odd_low)[0] is False
    assert sw._check_fermi_parity([])[0] is False


def test_criterion_9_statistical_oracles():
    t0 = time.time()
    system = qw.harmonic_system(OMEGA, 8)
    plateau = qw.SmoothPlateau(g=0.01, delta_t=0.9, alpha=2142.0 / T, T=T)
    worst = {}
    # Dicke-sector evolution vs the indistinguishable closed forms
    p3 = fig2_engine(3, 0.7)
    w_num = tracked_run(p3, IMPULSE, system, qw.Statistics.BOSE).work.avg_work
    w_ana = qw.impulse_work(p3, IMPULSE, system, qw.Statistics.BOSE).avg_work
    worst["indist-impulse"] = abs(w_num - w_ana) / w_ana
    w_num = tracked_run(p3, plateau, system, qw.Statistics.BOSE).work.avg_work
    w_ana = qw.general_work(p3, plateau, system, qw.Statistics.BOSE).avg_work
    worst["indist-smooth"] = abs(w_num - w_ana) / w_ana
    # spin-block evolution of the 2^N product space vs the distinguishable
    # closed forms
    worst["dist-impulse"] = 0.0
    for N in (2, 3, 4):
        pd = fig2_engine(N, 0.7)
        w_num = tracked_run(pd, IMPULSE, system, qw.Statistics.DISTINGUISHABLE).work.avg_work
        w_ana = qw.impulse_work(pd, IMPULSE, system,
                                qw.Statistics.DISTINGUISHABLE).avg_work
        worst["dist-impulse"] = max(worst["dist-impulse"], abs(w_num - w_ana) / w_ana)
    pd4 = fig2_engine(4, 0.7)
    w_num = tracked_run(pd4, plateau, system, qw.Statistics.DISTINGUISHABLE).work.avg_work
    w_ana = qw.general_work(pd4, plateau, system,
                            qw.Statistics.DISTINGUISHABLE).avg_work
    worst["dist-smooth"] = abs(w_num - w_ana) / w_ana
    dt = time.time() - t0
    ok = max(worst.values()) < 0.02 and dt < 300
    report("criterion-9 (statistical oracle equivalence)", ok,
           "relative gaps " + ", ".join(f"{k}: {v:.2e}" for k, v in worst.items())
           + f" (< 2e-2), {dt:.0f} s (< 300 s)")


def test_criterion_10_numerical_hygiene(fig3_runs):
    t0 = time.time()
    # (a) conservation across every acceptance run so far
    worst_trace = max(d["trace_drift"] for d in _DIAGNOSTICS)
    worst_herm = max(d["herm_drift"] for d in _DIAGNOSTICS)
    worst_iso = max(d["isometry_drift"] for d in _DIAGNOSTICS)
    worst_unit = max(d["unitarity_residual"] for d in _DIAGNOSTICS)
    cons_ok = max(worst_trace, worst_herm, worst_iso, worst_unit) < 1e-10

    # (b) second-order convergence: halving dt cuts the work error >= 4x.
    # The Fig.-3 plateau (g = 0.5) on dimension 16 puts the coarsest error
    # far above the rounding floor, at Delta = 0 (3.4e-6 of the work) as
    # at Delta = 0.4; the weak g = 0.01 plateau on dimension 8 does not,
    # and its ratio would be measured at the floor.
    p = fig2_engine(2, 0.4)
    system = qw.harmonic_system(OMEGA, 16)
    cap = default_dt_cap(p, system)
    w = {}
    for f in (1, 2, 4):
        w[f] = run_cycle(p, FIG3_PLATEAU, system, qw.Statistics.BOSE,
                         config=PropagatorConfig(dt=cap / f)).work.avg_work
    err1 = abs(w[1] - w[4])
    ratio = err1 / abs(w[2] - w[4])
    margin = 1e3 * WORK_ROUNDING_FLOOR
    conv_ok = ratio >= 4.0 and err1 >= margin

    # (c) truncation: doubling the HO dimension moves the work by < 1e-6
    p2 = fig2_engine(2, 0.0)
    bose = qw.Statistics.BOSE
    imp_small = run_cycle(p2, IMPULSE, qw.harmonic_system(OMEGA, 10), bose).work.avg_work
    imp_big = run_cycle(p2, IMPULSE, qw.harmonic_system(OMEGA, 20), bose).work.avg_work
    fig3_big = run_cycle(p2, FIG3_PLATEAU, qw.harmonic_system(OMEGA, 32), bose).work.avg_work
    trunc_rel = max(
        abs(imp_big - imp_small) / abs(imp_big),
        abs(fig3_big - fig3_runs[1][1]) / abs(fig3_big),
    )
    trunc_ok = trunc_rel < 1e-6
    dt = time.time() - t0
    ok = cons_ok and conv_ok and trunc_ok
    report("criterion-10 (numerical hygiene)", ok,
           f"trace {worst_trace:.1e}, herm {worst_herm:.1e}, isometry {worst_iso:.1e}, "
           f"unitarity {worst_unit:.1e} (all < 1e-10 over {len(_DIAGNOSTICS)} runs); "
           f"dt-halving ratio {ratio:.2f} (>= 4) at |w1 - w4| {err1:.1e} "
           f"(>= {margin:.0e}, 1e3 x rounding floor; w1 {w[1]!r}, w2 {w[2]!r}, "
           f"w4 {w[4]!r}); truncation doubling "
           f"{trunc_rel:.1e} (< 1e-6); {dt:.0f} s")

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import qstatwork as qw
import qstatwork.analytics as an
import qstatwork.sweeps as sw
from qstatwork import _quad
from qstatwork.analytics import (
    delta0_second_moment,
    enhancement_region,
    general_work,
    inequality_margins,
    level_amplitudes,
    verify_inequalities,
)
from qstatwork.errors import InequalityViolationError


class TestInequalityBattery:
    def test_grid_and_margins(self):
        rep = verify_inequalities(30, np.geomspace(1e-3, 50, 25))
        for name, (margin, witness) in rep.margins.items():
            assert margin > -1e-12, (name, witness)
        assert rep.n1_equality_defect < 1e-12

    def test_strict_margins_above_n1(self):
        rep = verify_inequalities(6, [0.5])
        # worst ladder margin comes from the N=1 equality; N=2 margins strict:
        # j(j+1) - (f + h) against (N/2)(1 + tanh x) at N = 2
        f, h = qw.moment_f(2, 0.5), qw.moment_h(2, 0.5)
        margin = (2 - (f + h)) - (1 + math.tanh(0.5))
        assert margin > 1e-3

    def test_small_x_limit_strict_for_n2(self):
        # 4f -> N(N+2)/3 while the distinguishable side -> N as x -> 0
        x = 1e-6
        lhs = 4 * qw.moment_f(2, x)
        rhs = 2 + 2 * 1 * math.tanh(x) ** 2
        assert lhs - rhs > 0.6  # 8/3 - 2 = 2/3 in the limit

    def test_violation_machinery(self, monkeypatch):
        from qstatwork.errors import DomainError

        with pytest.raises(DomainError):
            verify_inequalities(4, [-1.0])
        # a negative tolerance turns every finite margin into a "violation",
        # exercising the failure path, whose message names the witness
        monkeypatch.setattr(an, "INEQUALITY_TOL", -1.0)
        with pytest.raises(InequalityViolationError, match=r"at witness \(1, 0\.5\)"):
            verify_inequalities(4, [0.5])

    def test_random_draw_battery(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(0.01, 8.0, size=64)
        rep = verify_inequalities(40, xs)
        assert all(m > -1e-12 for m, _ in rep.margins.values())


def per_n_battery(N_max, x, tol=1e-12):
    """verify_inequalities' report, one inequality_margins call per N:
    ((worst margins, N = 1 defect), None), or (None, witness) at the first
    violation."""
    worst, n1_defect = {}, 0.0
    for N in range(1, N_max + 1):
        margins = inequality_margins(N, x[:, None], x[None, :])
        for name, vals in margins.items():
            k = int(np.argmin(vals))
            m = float(vals.flat[k])
            if name == "cross_term":
                wit = (N, float(x[k // x.size]), float(x[k % x.size]))
            else:
                wit = (N, float(x[k % x.size]))
            if m < -tol * max(1.0, N * N / 4.0):
                return None, wit
            if name not in worst or m < worst[name][0]:
                worst[name] = (m, wit)
        if N == 1:
            n1_defect = max(float(np.max(np.abs(v))) for v in margins.values())
    return (worst, n1_defect), None


class TestBatteryOverN:
    @pytest.mark.parametrize("N_max, x", [
        (30, np.geomspace(1e-3, 50, 25)),
        (40, np.sort(np.random.default_rng(11).uniform(0.02, 4.0, 40))),
        (7, np.array([0.5]))], ids=["geomspace", "uniform", "one-x"])
    def test_report_equals_per_n_loop(self, N_max, x):
        rep = verify_inequalities(N_max, x)
        (worst, n1_defect), _ = per_n_battery(N_max, x)
        assert rep.margins == worst
        assert rep.n1_equality_defect == n1_defect

    def test_injected_violation_has_the_loop_witness(self, monkeypatch):
        # D = 4f of Bose engines lowered by 100 at one (N, x): f_lower_vs_dist
        # fails there first, whether N is a scalar or an array
        x = np.geomspace(1e-2, 10.0, 9)
        true = an._weights

        def weights(N, xx, statistics):
            a, D, L_plus, L_minus = true(N, xx, statistics)
            if statistics is qw.Statistics.BOSE:
                D = np.where((N == 6) & (xx == x[4]), D - 100.0, D)
            return a, D, L_plus, L_minus

        monkeypatch.setattr(an, "_weights", weights)
        _, witness = per_n_battery(10, x)
        assert witness == (6, float(x[4]))
        with pytest.raises(InequalityViolationError, match="f_lower_vs_dist") as err:
            verify_inequalities(10, x)
        assert str(err.value).endswith(f"at witness {witness}")

    def test_draws_message_equals_per_n_loop(self):
        # criterion 2's draws in one call over an N array, against one call
        # per distinct N on that N's draws
        ok, message = sw._check_inequalities(np.random.default_rng(8), 20, 10)
        rng = np.random.default_rng(8)
        rep = verify_inequalities(20, np.geomspace(1e-3, 50.0, 10))
        Ns = rng.integers(1, 61, size=10 ** 4)
        xs = rng.uniform(1e-3, 20.0, size=10 ** 4)
        ys = rng.uniform(1e-3, 20.0, size=10 ** 4)
        worst = math.inf
        for N in np.unique(Ns):
            x, y, N = xs[Ns == N], ys[Ns == N], int(N)
            margins = inequality_margins(N, x, y).values()
            worst = min(worst, min(float(m.min()) for m in margins) / max(1.0, N * N / 4))
        scale = np.maximum(1.0, Ns * Ns / 4)
        assert min(float((m / scale).min())
                   for m in inequality_margins(Ns, xs, ys).values()) == worst
        grid = min(m for m, _ in rep.margins.values())
        assert ok
        assert message == (f"grid margins {grid:.1e} (> -1e-12 max(1, N^2/4)), "
                           f"draws {worst:.1e} max(1, N^2/4) (> -1e-12 max(1, N^2/4)), "
                           f"N=1 equality {rep.n1_equality_defect:.1e} (< 1e-12)")



def large_n_line(N, x):
    """coth(x) N - (coth(x) - 1) coth(x), the large-N line."""
    coth = 1 / math.tanh(x)
    return coth * N - (coth - 1) * coth


def small_n_form(N, x):
    """f1 N^2 + f2 N, the leading small-x form, with
    f1 = x (x coth x - 1) cosh x / sinh^3 x and
    f2 = 1 - (x coth x - 1) / sinh^2 x."""
    f1 = x * (x / math.tanh(x) - 1) * math.cosh(x) / math.sinh(x) ** 3
    f2 = 1 - (x / math.tanh(x) - 1) / math.sinh(x) ** 2
    return f1 * N ** 2 + f2 * N


class TestAsymptotics:
    """The exact Delta = 0 second moment N(N+2)/2 - 2 f(N, x) of Bose
    engines in its large-N and small-N limits."""

    def test_large_n_line(self):
        exact = delta0_second_moment(500, 2.0)
        assert abs(exact - large_n_line(500, 2.0)) / exact < 1e-3

    def test_discrete_slope_converges_to_coth(self):
        slope = delta0_second_moment(500, 2.0) - delta0_second_moment(499, 2.0)
        assert abs(slope - 1 / math.tanh(2.0)) < 1e-3 / math.tanh(2.0)

    def test_zero_temperature_slope_is_unity(self):
        slope = delta0_second_moment(400, 25.0) - delta0_second_moment(399, 25.0)
        assert abs(slope - 1.0) < 1e-9

    def test_quadratic_coefficients_small_x_limit(self):
        # at N = 1 the small-N form tends to the exact moment 1 as x -> 0,
        # and only there
        assert delta0_second_moment(1, 1e-4) == pytest.approx(1.0, abs=1e-14)
        assert small_n_form(1, 1e-4) == pytest.approx(1.0, abs=1e-7)
        assert small_n_form(1, 2.0) - delta0_second_moment(1, 2.0) > 0.05

    def test_quadratic_form_accuracy_in_regime(self):
        # tight deep inside N beta_c Omega(0) < 1 and still within ~10% at
        # the crossover edge
        x = 0.1
        for N, tol in ((2, 0.03), (5, 0.03), (10, 0.10)):
            exact = delta0_second_moment(N, x)
            assert abs(small_n_form(N, x) - exact) / exact < tol

    def test_crossover_marker(self):
        # the small-N form is the closer one below the crossover N ~ 1/x = 20,
        # the large-N line above it
        x = 0.05
        for N, small_n_closer in ((4, True), (100, False)):
            exact = delta0_second_moment(N, x)
            closer = abs(small_n_form(N, x) - exact) < abs(large_n_line(N, x) - exact)
            assert closer is small_n_closer, N


@pytest.fixture(scope="module")
def region():
    base = qw.EngineParams(N=2, Omega0=1.0, Delta=0.0, v=0.1, T=20.0,
                           beta_c=2.0, beta_h=0.125)
    deltas = np.linspace(0.0, 4.0, 5)
    omts = np.linspace(0.1, 10 * math.pi, 13)
    return enhancement_region(base, deltas, omts, (2, 20))


class TestEnhancementRegion:

    def test_n2_plane_enhanced(self, region):
        assert region.enhanced[region.N_values.index(2)].all()

    def test_delta0_column_enhanced(self, region):
        assert region.enhanced[:, 0, :].all()

    def test_n20_has_gap_beyond_pi(self, region):
        idx = region.N_values.index(20)
        beyond = region.omega_T > math.pi
        assert not region.enhanced[idx][:, beyond].all()

    def test_rows_match_per_cell_amplitudes(self, region):
        # each cell assembled on its own, from compute_amplitudes of level 1
        # of its oscillator, against the stacked rows
        base = qw.EngineParams(N=2, Omega0=1.0, Delta=0.0, v=0.1, T=20.0,
                               beta_c=2.0, beta_h=0.125)
        sched = qw.SmoothPlateau(g=0.01, delta_t=0.9, alpha=2142.0 / base.T, T=base.T)
        stats = (qw.Statistics.BOSE, qw.Statistics.DISTINGUISHABLE)
        for b, dfrac in enumerate(region.delta_over_omega0):
            e0, eh = math.hypot(1.0, dfrac), math.hypot(base.omega_half, dfrac)
            for c, omt in enumerate(region.omega_T):
                system = qw.harmonic_system(omt / base.T, 4)
                amps = level_amplitudes(replace(base, Delta=dfrac), sched, system)
                for a, N in enumerate(region.N_values):
                    engine = replace(base, N=N, Delta=dfrac, beta_c=2.0 / e0, beta_h=0.25 / eh)
                    w_ind, w_dist = (general_work(engine, sched, system, s, amps).avg_work
                                     for s in stats)
                    assert abs(region.work_indist[a, b, c] - w_ind) <= 1e-12 * w_ind
                    assert abs(region.work_dist[a, b, c] - w_dist) <= 1e-12 * w_dist
                    enhanced = w_ind - w_dist >= -1e-12 * max(w_ind, w_dist)
                    assert region.enhanced[a, b, c] == enhanced

    def test_one_quadrature_stack_per_row_and_stroke(self, monkeypatch):
        # c~+- and d (none for Delta = 0) for all omega T of every row in
        # one call per stroke start
        calls = []
        integrate = _quad.integrate_oscillatory
        monkeypatch.setattr(_quad, "integrate_oscillatory",
                            lambda *a, **kw: calls.append(1) or integrate(*a, **kw))
        base = qw.EngineParams(N=2, Omega0=1.0, Delta=0.0, v=0.1, T=20.0,
                               beta_c=2.0, beta_h=0.125)
        region = enhancement_region(base, [0.0, 1.0, 2.0], np.linspace(0.1, 10.0, 6), (2, 3))
        assert len(calls) == 2
        assert region.quadrature.panels > 0 and region.quadrature.refinements == 0
        # every accepted change is within rel_tol = 1e-10 of an amplitude no
        # larger than the plateau area g = 0.01
        assert region.quadrature.last_delta <= 1e-10 * 0.01

    def test_row_independent_of_the_rows_sharing_its_panels(self):
        # the shared panels are cut for the widest row's E_max (the largest
        # Delta); alongside only that row, any row's works are bit-equal
        base = qw.EngineParams(N=2, Omega0=1.0, Delta=0.0, v=0.1, T=20.0,
                               beta_c=2.0, beta_h=0.125)
        deltas, omts = np.linspace(0.0, 4.0, 9), np.linspace(0.1, 10 * math.pi, 8)
        full = enhancement_region(base, deltas, omts, (2, 6, 12, 20))
        for b, dfrac in enumerate(deltas[:-1]):
            pair = enhancement_region(base, [dfrac, deltas[-1]], omts, (2, 6, 12, 20))
            for got, ref in ((pair.work_indist, full.work_indist),
                             (pair.work_dist, full.work_dist)):
                assert got[:, 0].tobytes() == ref[:, b].tobytes()
                assert got[:, 1].tobytes() == ref[:, -1].tobytes()
            assert pair.quadrature.panels == full.quadrature.panels

    def test_figs1_grid_memory_peak(self):
        # each row's stack is contracted before the next is built: the
        # Fig.-S1 grid (9 Delta x 24 omega T x 4 N) peaks at ~2.7 MB
        base = qw.EngineParams(N=2, Omega0=1.0, Delta=0.0, v=0.1, T=20.0,
                               beta_c=2.0, beta_h=0.125)
        args = (base, np.linspace(0.0, 4.0, 9), np.linspace(0.1, 10 * math.pi, 24),
                (2, 6, 12, 20))
        tracemalloc.start()
        try:
            enhancement_region(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3e6

    def test_rows_format(self, region):
        rows = list(region.rows())
        assert len(rows) == 2 * 5 * 13
        d, wt, N, enh = rows[0]
        assert isinstance(enh, bool)

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import qstatwork as qw
from qstatwork.errors import DomainError, InvalidVariantError, QuadratureError
from qstatwork._quad import (KR_NODES, KR_WEIGHTS, QuadStats, _build_panels, _evaluate,
                             integrate_oscillatory)
from qstatwork.analytics import _amplitude_grid, _schedule_breakpoints, level_amplitudes

T = 20.0
# integrate_oscillatory's panel settings for one uncut panel and a relative test alone
ONE_PANEL = dict(breakpoints=(), max_freq=0.0, abs_tol=0.0)


def constant_schedule(g):
    """Literal g/T coupling, the convention the closed-form limits assume."""
    return qw.Sampled(times=np.array([0.0, T]), values=np.array([g / T, g / T]))


def engine(delta, omega0=1.0, v=0.1, beta_c=None):
    e0 = math.hypot(omega0, delta)
    return qw.EngineParams(N=2, Omega0=omega0, Delta=delta, v=v, T=T,
                           beta_c=(2.0 / e0) if beta_c is None else beta_c,
                           beta_h=0.1 / e0)


class TestQuadHelper:
    def test_builtin_kronrod_table_embeds_leggauss10(self):
        # the quadrature's nodes are a literal table: the G10 nodes are every
        # second Kronrod node, from the second, bit-equal to leggauss(10)'s;
        # their weights lie within 1 ulp of 1 of leggauss(10)'s, which rounds
        # them up to 7 ulp of their own size (the table's are QUADPACK's
        # 33-digit values, correctly rounded)
        ref_x, ref_w = np.polynomial.legendre.leggauss(10)
        gauss = KR_WEIGHTS[:, 1] != 0
        assert KR_NODES.shape == (21,) and KR_WEIGHTS.shape == (21, 2)
        assert np.array_equal(np.flatnonzero(gauss), np.arange(1, 21, 2))
        assert KR_NODES[gauss].tobytes() == ref_x.tobytes()
        assert np.all(np.abs(KR_WEIGHTS[gauss, 1] - ref_w) <= np.spacing(1.0))
        assert np.array_equal(KR_NODES, -KR_NODES[::-1])
        assert np.array_equal(KR_WEIGHTS, KR_WEIGHTS[::-1])

    def test_rule_pair_degrees(self):
        # K21 integrates x^k exactly through k = 31 and G10 through k = 19, on
        # [0, 1] (relative) and on [-1, 1] (absolute); on [-1, 1] the next
        # power shows each rule's miss, 2.9e-6 for G10 and 4.4e-12 for K21
        def pair(k, a, b):
            return _evaluate(lambda t, c: c(t ** k), np.array([a, b]))

        for k in range(32):
            k21, g10 = pair(k, 0.0, 1.0)
            sym = pair(k, -1.0, 1.0)
            exact = 2 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(k21 * (k + 1) - 1) <= 1e-15 and abs(sym[0] - exact) <= 1e-15
            if k <= 19:
                assert abs(g10 * (k + 1) - 1) <= 1e-15 and abs(sym[1] - exact) <= 1e-15
        assert abs(pair(20, -1.0, 1.0)[1] - 2 / 21) > 1e-6
        assert abs(pair(32, -1.0, 1.0)[0] - 2 / 33) > 1e-12

    @pytest.mark.parametrize("w, node_counts", [(5.0, [21]), (10.0, [21, 42])])
    def test_one_evaluation_per_panel_set(self, w, node_counts):
        # one panel (no frequency cap): exp(5it) passes on the first panel
        # set, exp(10it) after one halving; the integrand is called once per
        # panel set, on its 21 Kronrod nodes per panel
        calls = []

        def f(t, contract):
            calls.append(t.size)
            return contract(np.exp(1j * w * t))

        value, stats = integrate_oscillatory(f, 0.0, 1.0, **ONE_PANEL)
        assert calls == node_counts
        assert stats.refinements == len(node_counts) - 1 and stats.panels == node_counts[-1] // 21
        assert abs(value - (np.exp(1j * w) - 1) / (1j * w)) < 1e-15

    def test_oscillatory_against_scipy(self):
        f = lambda t: np.exp(1j * 7.3 * t) * np.tanh(5 * (t - 2.0))
        got, _ = integrate_oscillatory(lambda t, c: c(f(t)), 0.0, 6.0, breakpoints=[2.0],
                                       max_freq=7.3, abs_tol=0.0)
        re, _ = quad(lambda t: np.real(f(np.array([t]))[0]), 0, 6, limit=400)
        im, _ = quad(lambda t: np.imag(f(np.array([t]))[0]), 0, 6, limit=400)
        assert abs(got - (re + 1j * im)) < 1e-9

    def test_nonconvergence_raises(self, monkeypatch):
        rng = np.random.default_rng(0)
        noise = lambda t, c: c(rng.normal(size=np.shape(t)))
        monkeypatch.setattr(qw._quad, "REL_TOL", 1e-14)
        monkeypatch.setattr(qw._quad, "MAX_REFINE", 2)
        with pytest.raises(QuadratureError):
            integrate_oscillatory(noise, 0.0, 1.0, **ONE_PANEL)


    def test_stack_matches_single_calls(self, monkeypatch):
        # the smooth component converges on the first panel set, the kinked
        # one after four halvings; each keeps the estimate its own test accepted
        smooth = lambda t, c: c(np.exp(1j * 7.3 * t) * np.tanh(5 * (t - 2.0)))
        kinked = lambda t, c: c(np.abs(t - 2.345) ** 1.5 * np.exp(-1j * 3.1 * t))
        kw = dict(breakpoints=[2.0], max_freq=7.3, abs_tol=0.0)
        max_refine = qw._quad.MAX_REFINE
        monkeypatch.setattr(qw._quad, "REL_TOL", 1e-7)
        monkeypatch.setattr(qw._quad, "MAX_REFINE", 0)
        integrate_oscillatory(smooth, 0.0, 6.0, **kw)
        monkeypatch.setattr(qw._quad, "MAX_REFINE", 3)
        with pytest.raises(QuadratureError):
            integrate_oscillatory(kinked, 0.0, 6.0, **kw)
        monkeypatch.setattr(qw._quad, "MAX_REFINE", max_refine)
        # the stack contracted in two blocks, as a large stack is built
        stacked, _ = integrate_oscillatory(
            lambda t, c: np.stack((smooth(t, c), kinked(t, c))), 0.0, 6.0, **kw)
        assert stacked.shape == (2,)
        assert stacked[0] == integrate_oscillatory(smooth, 0.0, 6.0, **kw)[0]
        assert stacked[1] == integrate_oscillatory(kinked, 0.0, 6.0, **kw)[0]

    def test_reports_its_work(self, monkeypatch):
        smooth = lambda t: np.exp(1j * 7.3 * t) * np.tanh(5 * (t - 2.0))
        kinked = lambda t: np.abs(t - 2.345) ** 1.5 * np.exp(-1j * 3.1 * t)
        kw = dict(breakpoints=[2.0], max_freq=7.3, abs_tol=0.0)
        monkeypatch.setattr(qw._quad, "REL_TOL", 1e-7)
        value, one = integrate_oscillatory(lambda t, c: c(smooth(t)), 0.0, 6.0, **kw)
        (_, kinked_value), both = integrate_oscillatory(
            lambda t, c: c(np.stack((smooth(t), kinked(t)))), 0.0, 6.0, **kw)
        assert one.refinements == 0 and both.refinements == 4
        assert both.panels == 16 * one.panels == 144
        # the accepting |K21 - G10| passed the tolerance of its component
        assert 0 < one.last_delta <= 1e-7 * abs(value)
        assert one.last_delta < both.last_delta <= 1e-7 * abs(kinked_value)
        empty = integrate_oscillatory(lambda t, c: c(smooth(t)), 1.0, 1.0, **ONE_PANEL)
        assert empty == (0j, QuadStats())

    def test_stack_with_one_nonconvergent_component_raises(self, monkeypatch):
        rng = np.random.default_rng(0)
        f = lambda t, c: c(np.stack((np.cos(t) + 0j, rng.normal(size=np.shape(t)) + 0j)))
        monkeypatch.setattr(qw._quad, "REL_TOL", 1e-12)
        monkeypatch.setattr(qw._quad, "MAX_REFINE", 2)
        with pytest.raises(QuadratureError):
            integrate_oscillatory(f, 0.0, 1.0, **ONE_PANEL)

    def test_panels_match_per_segment_linspace(self):
        sched = qw.SmoothPlateau(g=0.01, delta_t=0.9, alpha=2142.0 / T, T=T)
        a, b = 0.0, T / 2
        brk = _schedule_breakpoints(sched, a, b) + [a, -1.0, T]   # ends and outside points drop
        max_freq = 0.3 + 2 * 1.5
        cuts = sorted({a, b, *(p for p in brk if a < p < b)})
        cap = min(b - a, 5.0 / max_freq)
        ref = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            n = max(1, int(np.ceil((hi - lo) / cap)))
            ref.extend(np.linspace(lo, hi, n + 1)[:-1])
        ref.append(b)
        edges = _build_panels(a, b, brk, max_freq)
        assert len(cuts) > 8 and edges.size > len(cuts)
        assert edges.tobytes() == np.array(ref).tobytes()


class TestComputeAmplitudes:
    def test_delta0_d_vanishes(self):
        p = engine(0.0)
        sched = qw.SmoothPlateau(g=0.01, delta_t=0.9, alpha=2142.0 / T, T=T)
        sysho = qw.harmonic_system(0.3, 5)
        for t0 in (0.0, T / 2):
            amp = qw.compute_amplitudes(p, sched, sysho, 1, t0)
            assert amp.d == 0
            assert abs(amp.c_plus) > 0

    def test_uncoupled_level_is_zero(self):
        p = engine(0.4)
        sched = qw.SmoothPlateau(g=0.01, delta_t=0.9, alpha=2142.0 / T, T=T)
        sysho = qw.harmonic_system(0.3, 5)
        amp = qw.compute_amplitudes(p, sched, sysho, 2, 0.0)
        assert amp.c_plus == 0 and amp.c_minus == 0 and amp.d == 0

    def test_impulse_rejected(self):
        p = engine(0.4)
        with pytest.raises(InvalidVariantError):
            qw.compute_amplitudes(p, qw.Impulse(g=0.01, t1=3.0, T=T),
                                  qw.harmonic_system(0.3, 5), 1, 0.0)

    def test_level_domain(self):
        p = engine(0.4)
        sched = qw.SmoothPlateau(g=0.01, delta_t=0.9, alpha=2142.0 / T, T=T)
        with pytest.raises(DomainError):
            qw.compute_amplitudes(p, sched, qw.harmonic_system(0.3, 5), 0, 0.0)

    def test_small_frequency_log_form(self):
        # omega T = 0.1 with constant g/T coupling: d matches the asinh/log
        # closed form (signed-velocity convention; increasing gap here)
        g, delta, v = 0.01, 0.7, 0.1
        p = engine(delta, v=v)
        sysho = qw.harmonic_system(0.1 / T, 4)
        sched = constant_schedule(g)
        sec = lambda th: 1 / math.cos(th)
        th0, thh = float(p.theta(0.0)), float(p.theta(T / 2))
        ref = (g * delta / (v * T)) * math.log(
            (sec(thh) + math.tan(thh)) / (sec(th0) + math.tan(th0))
        )
        for t0 in (0.0, T / 2):
            amp = qw.compute_amplitudes(p, sched, sysho, 1, t0)
            assert abs(abs(amp.d) - abs(ref)) < 0.02 * abs(ref)

    def test_large_frequency_boundary_form(self):
        # omega T = 50, Delta << Omega(0): Re[d(0) d*(T/2)] follows the
        # integration-by-parts boundary formula within 5%
        g, delta = 0.01, 0.1
        p = engine(delta, beta_c=1.9)
        sysho = qw.harmonic_system(50.0 / T, 4)
        sched = constant_schedule(g)
        a0 = qw.compute_amplitudes(p, sched, sysho, 1, 0.0)
        ah = qw.compute_amplitudes(p, sched, sysho, 1, T / 2)
        ec, eh = float(p.energy(0.0)), float(p.energy(T / 2))
        wt = 50.0
        ref = (g ** 2 * delta ** 2 / wt ** 2) * (
            2 * math.cos(wt / 2) / (ec * eh) - math.cos(wt) / ec ** 2 - 1 / eh ** 2
        )
        got = (a0.d * np.conj(ah.d)).real
        assert abs(got - ref) < 0.05 * abs(ref)

    def test_quadrature_tolerance(self, monkeypatch):
        # two tolerance settings agree far below the coarse tolerance
        p = engine(0.6)
        sched = qw.SmoothPlateau(g=0.01, delta_t=0.9, alpha=2142.0 / T, T=T)
        sysho = qw.harmonic_system(2 * math.pi * 0.05 / T, 4)
        monkeypatch.setattr(qw._quad, "REL_TOL", 1e-8)
        a = qw.compute_amplitudes(p, sched, sysho, 1, 0.0)
        monkeypatch.setattr(qw._quad, "REL_TOL", 1e-12)
        b = qw.compute_amplitudes(p, sched, sysho, 1, 0.0)
        assert abs(a.c_plus - b.c_plus) < 1e-9 * max(abs(b.c_plus), 1e-12)
        assert abs(a.d - b.d) < 1e-9 * max(abs(b.d), 1e-12)


def fields(amp):
    return amp.c_plus, amp.c_minus, amp.d, amp.quadrature


SCHED = qw.SmoothPlateau(g=0.01, delta_t=0.9, alpha=2142.0 / T, T=T)


def amplitude_row(p, t0, eps, v):
    """The one-engine `_amplitude_grid`, with its amplitudes as arrays
    over the levels."""
    grid = _amplitude_grid([p], SCHED, t0, eps, v)
    return replace(grid, c_plus=grid.c_plus[0], c_minus=grid.c_minus[0], d=grid.d[0])


class TestAmplitudeRow:
    SCHED = SCHED

    @pytest.mark.parametrize("delta", [0.0, 1.4])
    @pytest.mark.parametrize("t0", [0.0, T / 2])
    def test_one_level_row_is_compute_amplitudes(self, delta, t0):
        p = engine(delta)
        rng = np.random.default_rng(4)
        v_s = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        # two levels 1e-9 apart share their panels, so a row of both is
        # exact against each level alone
        system = qw.ExternalSystem(energies=np.array([0.0, 0.37, 0.37 * (1 + 1e-9)]),
                                   V_S=v_s + v_s.conj().T)
        eps, v = system.energies[1:], system.V_S[1:, 0]
        row = amplitude_row(p, t0, eps, v)
        for k, i in enumerate((1, 2)):
            amp = qw.compute_amplitudes(p, self.SCHED, system, i, t0)
            one = amplitude_row(p, t0, eps[k:k + 1], v[k:k + 1])
            assert fields(amp) == (*(complex(x[0]) for x in fields(one)[:3]), one.quadrature)
            assert (row.c_plus[k], row.c_minus[k], row.d[k]) == fields(amp)[:3]
            assert amp.quadrature.panels > 0 and amp.quadrature.refinements == 0

    @pytest.mark.parametrize("delta", [0.0, 1.4])
    def test_eight_level_row_matches_one_level_calls(self, delta):
        p = engine(delta)
        eps = np.linspace(0.1, 10 * math.pi, 8) / T
        v = np.exp(1j * np.arange(8)) * np.linspace(0.5, 2.0, 8)
        for t0 in (0.0, T / 2):
            row = amplitude_row(p, t0, eps, v)
            for k in range(8):
                one = amplitude_row(p, t0, eps[k:k + 1], v[k:k + 1])
                for got, ref in zip(fields(row)[:3], fields(one)[:3]):
                    assert abs(got[k] - ref[0]) <= 1e-12 * abs(ref[0])
            assert row.quadrature.panels >= one.quadrature.panels

    def test_one_quadrature_per_stroke_start(self, monkeypatch):
        # c~+, c~- and d of the whole row in a single stacked call
        calls = []
        integrate = qw._quad.integrate_oscillatory
        monkeypatch.setattr(qw._quad, "integrate_oscillatory",
                            lambda *a, **kw: calls.append(1) or integrate(*a, **kw))
        eps = np.linspace(0.1, 10 * math.pi, 8) / T
        for t0 in (0.0, T / 2):
            amplitude_row(engine(1.4), t0, eps, np.ones(8))
        assert len(calls) == 2

    @pytest.mark.parametrize("delta", [0.0, 1.4])
    def test_level_amplitudes_match_per_level_calls(self, delta, monkeypatch):
        # every coupled level of a system in one quadrature per stroke
        # start, on panels cut for the highest level; level 3 is uncoupled
        p = engine(delta)
        rng = np.random.default_rng(7)
        v_s = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        v_s = v_s + v_s.conj().T
        v_s[3, 0] = v_s[0, 3] = 0.0
        system = qw.ExternalSystem(energies=np.array([0.0, 0.05, 0.4, 0.9, 1.7, 2.6]), V_S=v_s)
        calls = []
        integrate = qw._quad.integrate_oscillatory
        monkeypatch.setattr(qw._quad, "integrate_oscillatory",
                            lambda *a, **kw: calls.append(1) or integrate(*a, **kw))
        levels = level_amplitudes(p, self.SCHED, system)
        assert len(calls) == 2 and sorted(levels) == [1, 2, 4, 5]
        for i, pair in levels.items():
            for amp, t0 in zip(pair, (0.0, T / 2)):
                ref = qw.compute_amplitudes(p, self.SCHED, system, i, t0)
                for got, want in zip(fields(amp)[:3], fields(ref)[:3]):
                    assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("delta", [0.3, 1.4, 4.2])
    @pytest.mark.parametrize("t0", [0.0, T / 2])
    def test_d_matches_d_alone_on_its_own_panels(self, delta, t0):
        # d shares the c~ panels, cut for eps + 2 E_max; alone it needs only
        # the panels of eps
        p = engine(delta)
        eps = np.linspace(0.1, 10 * math.pi, 8) / T
        v = np.exp(1j * np.arange(8)) * np.linspace(0.5, 2.0, 8)
        lo, hi = t0, t0 + T / 2

        def d_integrand(tt, contract):
            omega = p.Omega0 + 0.1 * (tt if t0 == 0.0 else T - tt)
            cos = delta / np.sqrt(omega ** 2 + delta ** 2)
            return contract(-qw.g_of_t(self.SCHED, tt) * v[:, None]
                            * np.exp(1j * eps[:, None] * tt) * cos)

        ref, _ = integrate_oscillatory(
            d_integrand, lo, hi, breakpoints=_schedule_breakpoints(self.SCHED, lo, hi),
            max_freq=eps.max(), abs_tol=1e-14 * np.abs(v))
        row = amplitude_row(p, t0, eps, v)
        assert row.d.shape == (8,)
        assert np.all(np.abs(row.d - ref) <= 1e-13 * np.abs(ref))

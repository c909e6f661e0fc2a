import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qstatwork as qw
import qstatwork.analytics as an
from qstatwork.analytics import enhancement, level_amplitudes
from qstatwork.errors import InvalidVariantError, PerturbativeValidityError
from qstatwork.sweeps import random_smooth_case

T = 20.0


def engine(N, delta):
    e0 = math.hypot(1.0, delta)
    eh = math.hypot(2.0, delta)
    return qw.EngineParams(N=N, Omega0=1.0, Delta=delta, v=0.1, T=T,
                           beta_c=2.0 / e0, beta_h=0.25 / eh)


def plateau(g=0.01, delta_t=0.9, alpha=2142.0 / T):
    return qw.SmoothPlateau(g=g, delta_t=delta_t, alpha=alpha, T=T)


class TestImpulseWork:
    def test_n1_ratio_is_one(self):
        sched = qw.Impulse(g=0.01, t1=0.35 * T / 2, T=T)
        sysho = qw.harmonic_system(2 * math.pi * 0.05 / T, 8)
        for delta in (0.0, 1.4, 4.2):
            ratio, _, _ = enhancement(engine(1, delta), sched, sysho)
            assert abs(ratio - 1.0) < 1e-12

    def test_delta0_dist_work_is_omega_g2_n(self):
        sched = qw.Impulse(g=0.01, t1=0.35 * T / 2, T=T)
        omega = 2 * math.pi * 0.05 / T
        sysho = qw.harmonic_system(omega, 8)
        for N in (1, 3, 7):
            rec = qw.impulse_work(engine(N, 0.0), sched, sysho,
                                  qw.Statistics.DISTINGUISHABLE)
            assert rec.avg_work == pytest.approx(omega * 0.01 ** 2 * N, rel=1e-12)

    def test_second_stroke_moments(self):
        # impulse in the expansion stroke takes moments against the hot state
        p = engine(3, 0.0)
        m2 = qw.impulse_second_moment(p, 15.0, qw.Statistics.BOSE)
        x_h = p.beta_h * float(p.energy(T / 2))
        expect = 3 * 5 / 2 - 2 * qw.moment_f(3, x_h)
        assert m2 == pytest.approx(expect, rel=1e-12)

    def test_fig2a_shape(self):
        sched = qw.Impulse(g=0.01, t1=0.35 * T / 2, T=T)
        sysho = qw.harmonic_system(2 * math.pi * 0.05 / T, 8)
        ratios = {}
        for delta in (0.0, 1.4, 4.2):
            row = [enhancement(engine(N, delta), sched, sysho)[0] for N in range(1, 9)]
            assert all(r >= 1 - 1e-12 for r in row)
            assert all(b > a - 1e-12 for a, b in zip(row, row[1:]))  # monotone in N
            ratios[delta] = row
        # at these bath parameters the cos^2-weighted margin wins: the
        # enhancement grows with Delta for N >= 3 (closed forms are the oracle)
        assert ratios[4.2][7] > ratios[1.4][7] > ratios[0.0][7]

    def test_requires_impulse(self):
        with pytest.raises(InvalidVariantError):
            qw.impulse_work(engine(2, 0.0), plateau(),
                            qw.harmonic_system(0.3, 4), qw.Statistics.BOSE)

    def test_validity_flag_and_error(self):
        # Delta = 0 distinguishable: total excitation is exactly 4 g^2 here
        sysho = qw.harmonic_system(2 * math.pi * 0.05 / T, 8)
        big = qw.Impulse(g=0.2, t1=0.35 * T / 2, T=T)
        rec = qw.impulse_work(engine(4, 0.0), big, sysho, qw.Statistics.DISTINGUISHABLE)
        assert "perturbative-validity" in rec.flags
        huge = qw.Impulse(g=0.5, t1=0.35 * T / 2, T=T)
        with pytest.raises(PerturbativeValidityError):
            qw.impulse_work(engine(4, 0.0), huge, sysho, qw.Statistics.DISTINGUISHABLE)

    def test_overflowing_or_nan_total_refused(self):
        # g = 1e200 squared as a Python float power raised OverflowError; as a
        # product it gives an infinite total, which is refused, and so is a NaN
        # total, which fails every comparison with 0.5
        sysho = qw.harmonic_system(2 * math.pi * 0.05 / T, 8)
        kick = qw.Impulse(g=1e200, t1=0.35 * T / 2, T=T)
        with pytest.raises(PerturbativeValidityError,
                           match="total excitation inf is not below 0.5"):
            qw.impulse_work(engine(2, 0.0), kick, sysho, qw.Statistics.BOSE)
        with pytest.raises(PerturbativeValidityError,
                           match="total excitation nan is not below 0.5"):
            an._perturbative_record({1: math.nan}, qw.Statistics.BOSE, "test", sysho)
        with pytest.raises(ValueError, match="outside"):
            qw.WorkRecord(qw.Statistics.BOSE, "test", {1: math.nan}, tuple(sysho.energies))

    @given(
        N=st.integers(1, 25),
        beta_c_e0=st.floats(0.05, 6.0),
        t1_frac=st.floats(0.05, 0.95),
        delta=st.floats(0.0, 5.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_indist_never_below_dist(self, N, beta_c_e0, t1_frac, delta):
        e0 = math.hypot(1.0, delta)
        eh = math.hypot(2.0, delta)
        p = qw.EngineParams(N=N, Omega0=1.0, Delta=delta, v=0.1, T=T,
                            beta_c=beta_c_e0 / e0, beta_h=0.2 * beta_c_e0 / eh)
        t1 = t1_frac * T / 2
        m_b = qw.impulse_second_moment(p, t1, qw.Statistics.BOSE)
        m_d = qw.impulse_second_moment(p, t1, qw.Statistics.DISTINGUISHABLE)
        assert m_b >= m_d - 1e-12 * max(m_b, m_d)


class TestGeneralProbability:
    def test_delta0_reduces_to_ladder_forms(self):
        # d = 0 and no cross term: p is exactly the two-bracket combination
        p = engine(3, 0.0)
        sched = plateau()
        sysho = qw.harmonic_system(2 * math.pi * 0.05 / T, 6)
        amps = [qw.compute_amplitudes(p, sched, sysho, 1, t0) for t0 in (0.0, T / 2)]
        x = {0.0: p.beta_c * float(p.energy(0.0)),
             T / 2: p.beta_h * float(p.energy(T / 2))}
        expect, j = 0.0, 3 / 2
        for amp, t0 in zip(amps, (0.0, T / 2)):
            f, h = qw.moment_f(3, x[t0]), qw.moment_h(3, x[t0])
            expect += abs(amp.c_plus) ** 2 * (j * (j + 1) - (f + h))
            expect += abs(amp.c_minus) ** 2 * (j * (j + 1) - (f - h))
        got = qw.general_work(p, sched, sysho, qw.Statistics.BOSE).p_excite[1]
        assert got == pytest.approx(expect, rel=1e-12)

    def test_n1_statistics_agree_for_any_schedule(self):
        p = engine(1, 1.1)
        sched = plateau()
        sysho = qw.harmonic_system(2 * math.pi * 0.05 / T, 6)
        a, b = (qw.general_work(p, sched, sysho, s).p_excite[1] for s in qw.Statistics)
        assert a == pytest.approx(b, rel=1e-10)

    def test_impulse_limit_of_narrow_bump(self):
        p = engine(3, 0.0)
        t1, g = 0.35 * T / 2, 0.01
        width = T / 2000
        tt = np.linspace(t1 - 5 * width, t1 + 5 * width, 4001)
        bump = g * np.exp(-0.5 * ((tt - t1) / width) ** 2) / (width * math.sqrt(2 * math.pi))
        sched = qw.Sampled(times=np.concatenate([[0.0], tt, [T]]),
                           values=np.concatenate([[0.0], bump, [0.0]]))
        sysho = qw.harmonic_system(2 * math.pi * 0.05 / T, 10)
        p_gen = qw.general_work(p, sched, sysho, qw.Statistics.BOSE).p_excite[1]
        p_imp = qw.impulse_work(p, qw.Impulse(g=g, t1=t1, T=T), sysho,
                                qw.Statistics.BOSE).p_excite[1]
        assert abs(p_gen - p_imp) < 1e-3 * p_imp

    def test_delta0_dominance_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            eng, sched, system = random_smooth_case(rng)
            amps = level_amplitudes(eng, sched, system)      # one quadrature per draw
            bose, dist = (qw.general_work(eng, sched, system, s, amps).p_excite
                          for s in qw.Statistics)
            for i, pb in bose.items():
                pd = dist[i]
                assert pb >= pd - 1e-12 * max(pb, pd, 1e-300)

    def test_ladder_weight_n1_equality(self):
        # Bose j(j+1) - (f + s h) against distinguishable (1 + s tanh x)/2
        for x in (0.05, 0.7, 3.0):
            f, h = qw.moment_f(1, x), qw.moment_h(1, x)
            for s in (+1, -1):
                assert 3 / 4 - (f + s * h) == pytest.approx(
                    (1 + s * math.tanh(x)) / 2, abs=1e-14
                )


class TestGeneralWork:
    def test_work_assembly(self):
        p = engine(2, 0.5)
        sched = plateau()
        sysho = qw.harmonic_system(2 * math.pi * 0.05 / T, 6)
        rec = qw.general_work(p, sched, sysho, qw.Statistics.BOSE)
        assert rec.method == "general-perturbative"
        expect = sum(sysho.energies[i] * pi for i, pi in rec.p_excite.items())
        assert rec.avg_work == pytest.approx(expect, rel=1e-14)
        assert set(rec.p_excite) == {1}  # only the dipole-coupled level

    def test_record_probabilities_in_range(self):
        p = engine(2, 0.5)
        rec = qw.general_work(p, plateau(), qw.harmonic_system(0.3, 5),
                              qw.Statistics.DISTINGUISHABLE)
        for v in rec.p_excite.values():
            assert 0 <= v <= 1

    def test_enhancement_general_exceeds_one(self):
        # the plateau covers both strokes; the hot-stroke bracket ratio is the
        # larger one at these baths, so its enhancement tops the stroke-1 impulse
        p = engine(4, 0.0)
        sysho = qw.harmonic_system(2 * math.pi * 0.05 / T, 8)
        r_imp, _, _ = enhancement(p, qw.Impulse(g=0.01, t1=0.35 * T / 2, T=T), sysho)
        r_gen, _, _ = enhancement(p, plateau(g=0.005), sysho)
        assert r_imp > 1.0
        assert r_gen > r_imp

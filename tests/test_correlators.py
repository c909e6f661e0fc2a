import math

import numpy as np

import qstatwork as qw
from qstatwork.analytics import _weights, _x_at

from oracles import DickeAdiabaticOracle, ProductAdiabaticOracle, beta_at


def params_for(N, delta, beta_c=None):
    e0 = math.hypot(1.0, delta)
    return qw.EngineParams(
        N=N, Omega0=1.0, Delta=delta, v=0.1, T=20.0,
        beta_c=(2.0 / e0) if beta_c is None else beta_c, beta_h=0.125,
    )


def correlator(p, t, tp, statistics):
    """<V_R^(I)(t') V_R^(I)(t)> of two times in one stroke, from the
    weights of `_weights` at its start: D cos(theta_t) cos(theta_t') +
    sin(theta_t) sin(theta_t') sum_sigma exp(-i sigma phi(t', t)) L_sigma."""
    t0 = p.stroke_start(t)
    assert p.stroke_start(tp) == t0
    _, D, L_plus, L_minus = _weights(p.N, _x_at(p, t0), statistics)
    ph = qw.phase_integral(p, tp, t0) - qw.phase_integral(p, t, t0)
    ladder = L_plus * np.exp(-1j * ph) + L_minus * np.exp(1j * ph)
    return complex(D * p.cos_theta(t) * p.cos_theta(tp)
                   + p.sin_theta(t) * p.sin_theta(tp) * ladder)


def one_time(p, t, statistics):
    """<V_R^(I)(t)> against the thermal state at the start of t's stroke:
    cos(theta_t) a, with a from `_weights`."""
    a = _weights(p.N, _x_at(p, p.stroke_start(t)), statistics)[0]
    return float(p.cos_theta(t)) * float(a)


PAIRS = [(1.0, 3.0), (2.5, 7.0), (0.5, 9.0), (4.0, 4.0), (11.5, 17.0)]


class TestIndistCorrelator:
    def test_matrix_oracle(self):
        p = params_for(3, 0.5)
        oracle = DickeAdiabaticOracle(p)
        for (t, tp) in PAIRS:
            t0 = p.stroke_start(t)
            ref = oracle.correlator(t, tp, t0, beta_at(p, t0))
            got = correlator(p, t, tp, qw.Statistics.BOSE)
            assert abs(got - ref) < 1e-10

    def test_equal_times_second_moment_delta0(self):
        # C(t, t) at Delta = 0 reduces to N(N+2)/2 - 2f
        p = params_for(4, 0.0)
        x = p.beta_c * float(p.energy(0.0))
        got = correlator(p, 3.0, 3.0, qw.Statistics.BOSE)
        expect = 4 * 6 / 2 - 2 * qw.moment_f(4, x)
        assert abs(got.imag) < 1e-14
        assert abs(got.real - expect) < 1e-12

    def test_equal_times_general_theta(self):
        p = params_for(5, 1.1)
        t1 = 4.2
        got = correlator(p, t1, t1, qw.Statistics.BOSE)
        expect = qw.impulse_second_moment(p, t1, qw.Statistics.BOSE)
        assert abs(got - expect) < 1e-12

    def test_n1_unity(self):
        for delta in (0.0, 0.9, 3.0):
            p = params_for(1, delta)
            got = correlator(p, 2.0, 2.0, qw.Statistics.BOSE)
            assert abs(got - 1.0) < 1e-12

    def test_hermitian_symmetry(self):
        p = params_for(3, 0.8)
        for (t, tp) in PAIRS:
            a = correlator(p, t, tp, qw.Statistics.BOSE)
            b = correlator(p, tp, t, qw.Statistics.BOSE)
            assert abs(a - np.conj(b)) < 1e-12

    def test_second_stroke_uses_hot_state(self):
        p = params_for(3, 0.5)
        oracle = DickeAdiabaticOracle(p)
        ref = oracle.correlator(12.0, 15.0, 10.0, p.beta_h)
        got = correlator(p, 12.0, 15.0, qw.Statistics.BOSE)
        assert abs(got - ref) < 1e-10

    def test_phase_convention_independence(self):
        # arbitrary eigenvector column phases leave the correlator unchanged
        p = params_for(3, 0.7)
        rng = np.random.default_rng(7)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
        fixed = DickeAdiabaticOracle(p)
        scrambled = DickeAdiabaticOracle(p, column_phases=phases)
        for (t, tp) in PAIRS[:3]:
            a = fixed.correlator(t, tp, 0.0, p.beta_c)
            b = scrambled.correlator(t, tp, 0.0, p.beta_c)
            assert abs(a - b) < 1e-10


class TestDistCorrelator:
    def test_product_space_oracle(self):
        p = params_for(4, 0.5)
        oracle = ProductAdiabaticOracle(p)
        for (t, tp) in PAIRS[:4]:
            t0 = p.stroke_start(t)
            ref = oracle.correlator(t, tp, t0, beta_at(p, t0))
            got = correlator(p, t, tp, qw.Statistics.DISTINGUISHABLE)
            assert abs(got - ref) < 1e-10

    def test_equal_times_delta0_is_n(self):
        p = params_for(5, 0.0)
        got = correlator(p, 2.0, 2.0, qw.Statistics.DISTINGUISHABLE)
        assert abs(got - 5.0) < 1e-12

    def test_n1_equals_indist(self):
        p = params_for(1, 0.8)
        for (t, tp) in PAIRS:
            a = correlator(p, t, tp, qw.Statistics.DISTINGUISHABLE)
            b = correlator(p, t, tp, qw.Statistics.BOSE)
            assert abs(a - b) < 1e-12


class TestFactorizedForm:
    def test_straddle_flag_and_value(self):
        # across the reset at T/2 the correlator is the product of the
        # one-time averages, each against its own stroke's thermal state,
        # as the cross term of the excitation probability takes it
        p = params_for(3, 0.6)
        oracle = DickeAdiabaticOracle(p)
        expect = oracle.one_time(14.0, 10.0, p.beta_h) * oracle.one_time(3.0, 0.0, p.beta_c)
        got = one_time(p, 14.0, qw.Statistics.BOSE) * one_time(p, 3.0, qw.Statistics.BOSE)
        assert abs(got - expect) < 1e-12

    def test_within_stroke_not_factorized(self):
        # within one stroke the ladder terms survive: the correlator is not
        # the product of the one-time averages
        p = params_for(3, 0.6)
        ref = DickeAdiabaticOracle(p).correlator(3.0, 7.0, 0.0, p.beta_c)
        product = one_time(p, 7.0, qw.Statistics.BOSE) * one_time(p, 3.0, qw.Statistics.BOSE)
        assert abs(correlator(p, 3.0, 7.0, qw.Statistics.BOSE) - ref) < 1e-10
        assert abs(ref - product) > 1e-3


class TestSingleAvg:
    def test_delta0_vanishes(self):
        p = params_for(4, 0.0)
        for stats in (qw.Statistics.BOSE, qw.Statistics.DISTINGUISHABLE):
            assert one_time(p, 3.0, stats) == 0.0

    def test_first_moment_matches_trace_oracle(self):
        # resolves the printed-form ambiguity: the exact Heisenberg trace picks
        # the (signed) first-moment variant in both statistics
        p = params_for(3, 1.0, beta_c=0.7 / math.hypot(1.0, 1.0))
        d_oracle = DickeAdiabaticOracle(p).one_time(3.0, 0.0, p.beta_c)
        got = one_time(p, 3.0, qw.Statistics.BOSE)
        assert abs(got - d_oracle) < 1e-12
        # the literal printed variant, the second moment, does not match
        printed = 2 * float(p.cos_theta(3.0)) * qw.moment_f(3, p.beta_c * float(p.energy(0.0)))
        assert abs(printed - d_oracle) > 1e-3

        p4 = params_for(4, 0.9)
        p_oracle = ProductAdiabaticOracle(p4).one_time(3.0, 0.0, p4.beta_c)
        got4 = one_time(p4, 3.0, qw.Statistics.DISTINGUISHABLE)
        assert abs(got4 - p_oracle) < 1e-12

    def test_dist_magnitude_is_printed_form(self):
        # |<V>| = N cos(theta) tanh(beta E); the signed value is negative
        p = params_for(1, 0.9)
        x = p.beta_c * float(p.energy(0.0))
        got = one_time(p, 2.0, qw.Statistics.DISTINGUISHABLE)
        assert abs(abs(got) - math.cos(float(p.theta(2.0))) * math.tanh(x)) < 1e-13
        assert got <= 0

    def test_variants_agree_at_n1_magnitude(self):
        p = params_for(1, 0.9)
        a = one_time(p, 2.0, qw.Statistics.BOSE)
        b = one_time(p, 2.0, qw.Statistics.DISTINGUISHABLE)
        assert abs(a - b) < 1e-14

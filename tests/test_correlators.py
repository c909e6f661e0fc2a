import math

import numpy as np

import qstatwork as qw
from qstatwork.analytics import single_avg

from oracles import DickeAdiabaticOracle, ProductAdiabaticOracle, beta_at


def params_for(N, delta, beta_c=None):
    e0 = math.hypot(1.0, delta)
    return qw.EngineParams(
        N=N, Omega0=1.0, Delta=delta, v=0.1, T=20.0,
        beta_c=(2.0 / e0) if beta_c is None else beta_c, beta_h=0.125,
    )


PAIRS = [(1.0, 3.0), (2.5, 7.0), (0.5, 9.0), (4.0, 4.0), (11.5, 17.0)]


class TestIndistCorrelator:
    def test_matrix_oracle(self):
        p = params_for(3, 0.5)
        oracle = DickeAdiabaticOracle(p)
        for (t, tp) in PAIRS:
            t0 = p.stroke_start(t)
            ref = oracle.correlator(t, tp, t0, beta_at(p, t0))
            got = qw.correlator(p, t, tp, qw.Statistics.BOSE).value
            assert abs(got - ref) < 1e-10

    def test_equal_times_second_moment_delta0(self):
        # C(t, t) at Delta = 0 reduces to N(N+2)/2 - 2f
        p = params_for(4, 0.0)
        x = p.beta_c * float(p.energy(0.0))
        got = qw.correlator(p, 3.0, 3.0, qw.Statistics.BOSE).value
        expect = 4 * 6 / 2 - 2 * qw.moment_f(4, x)
        assert abs(got.imag) < 1e-14
        assert abs(got.real - expect) < 1e-12

    def test_equal_times_general_theta(self):
        p = params_for(5, 1.1)
        t1 = 4.2
        got = qw.correlator(p, t1, t1, qw.Statistics.BOSE).value
        expect = qw.impulse_second_moment(p, t1, qw.Statistics.BOSE)
        assert abs(got - expect) < 1e-12

    def test_n1_unity(self):
        for delta in (0.0, 0.9, 3.0):
            p = params_for(1, delta)
            got = qw.correlator(p, 2.0, 2.0, qw.Statistics.BOSE).value
            assert abs(got - 1.0) < 1e-12

    def test_hermitian_symmetry(self):
        p = params_for(3, 0.8)
        for (t, tp) in PAIRS:
            a = qw.correlator(p, t, tp, qw.Statistics.BOSE).value
            b = qw.correlator(p, tp, t, qw.Statistics.BOSE).value
            assert abs(a - np.conj(b)) < 1e-12

    def test_second_stroke_uses_hot_state(self):
        p = params_for(3, 0.5)
        oracle = DickeAdiabaticOracle(p)
        ref = oracle.correlator(12.0, 15.0, 10.0, p.beta_h)
        got = qw.correlator(p, 12.0, 15.0, qw.Statistics.BOSE).value
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
            got = qw.correlator(p, t, tp, qw.Statistics.DISTINGUISHABLE).value
            assert abs(got - ref) < 1e-10

    def test_equal_times_delta0_is_n(self):
        p = params_for(5, 0.0)
        got = qw.correlator(p, 2.0, 2.0, qw.Statistics.DISTINGUISHABLE).value
        assert abs(got - 5.0) < 1e-12

    def test_n1_equals_indist(self):
        p = params_for(1, 0.8)
        for (t, tp) in PAIRS:
            a = qw.correlator(p, t, tp, qw.Statistics.DISTINGUISHABLE).value
            b = qw.correlator(p, t, tp, qw.Statistics.BOSE).value
            assert abs(a - b) < 1e-12


class TestFactorizedForm:
    def test_straddle_flag_and_value(self):
        p = params_for(3, 0.6)
        cv = qw.correlator(p, 3.0, 14.0, qw.Statistics.BOSE)
        assert cv.factorized
        expect = (qw.single_avg(p, 14.0, 10.0, qw.Statistics.BOSE)
                  * qw.single_avg(p, 3.0, 0.0, qw.Statistics.BOSE))
        assert abs(cv.value - expect) < 1e-14

    def test_within_stroke_not_factorized(self):
        p = params_for(3, 0.6)
        assert not qw.correlator(p, 3.0, 7.0, qw.Statistics.BOSE).factorized


class TestSingleAvg:
    def test_delta0_vanishes(self):
        p = params_for(4, 0.0)
        for stats in (qw.Statistics.BOSE, qw.Statistics.DISTINGUISHABLE):
            assert qw.single_avg(p, 3.0, 0.0, stats) == 0.0

    def test_first_moment_matches_trace_oracle(self):
        # resolves the printed-form ambiguity: the exact Heisenberg trace picks
        # the (signed) first-moment variant in both statistics
        p = params_for(3, 1.0, beta_c=0.7 / math.hypot(1.0, 1.0))
        d_oracle = DickeAdiabaticOracle(p).one_time(3.0, 0.0, p.beta_c)
        got = qw.single_avg(p, 3.0, 0.0, qw.Statistics.BOSE)
        assert abs(got - d_oracle) < 1e-12
        # the literal printed variant, the second moment, does not match
        printed = 2 * float(p.cos_theta(3.0)) * qw.moment_f(3, p.beta_c * float(p.energy(0.0)))
        assert abs(printed - d_oracle) > 1e-3

        p4 = params_for(4, 0.9)
        p_oracle = ProductAdiabaticOracle(p4).one_time(3.0, 0.0, p4.beta_c)
        got4 = qw.single_avg(p4, 3.0, 0.0, qw.Statistics.DISTINGUISHABLE)
        assert abs(got4 - p_oracle) < 1e-12

    def test_dist_magnitude_is_printed_form(self):
        # |<V>| = N cos(theta) tanh(beta E); the signed value is negative
        p = params_for(1, 0.9)
        x = p.beta_c * float(p.energy(0.0))
        got = qw.single_avg(p, 2.0, 0.0, qw.Statistics.DISTINGUISHABLE)
        assert abs(abs(got) - math.cos(float(p.theta(2.0))) * math.tanh(x)) < 1e-13
        assert got <= 0

    def test_variants_agree_at_n1_magnitude(self):
        p = params_for(1, 0.9)
        a = single_avg(p, 2.0, 0.0, qw.Statistics.BOSE)
        b = single_avg(p, 2.0, 0.0, qw.Statistics.DISTINGUISHABLE)
        assert abs(a - b) < 1e-14

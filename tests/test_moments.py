import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qstatwork as qw
from qstatwork.analytics import _weights
from qstatwork.errors import DomainError

from oracles import direct_moment_f, direct_moment_h, literal_f_mp, literal_h_mp

X_GRID = (1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 50.0)


class TestMomentF:
    def test_n1_quarter_everywhere(self):
        for x in X_GRID:
            assert abs(qw.moment_f(1, x) - 0.25) < 1e-14

    def test_large_x_limit(self):
        assert abs(qw.moment_f(6, 60.0) - 9.0) < 1e-12

    def test_x_zero_uniform(self):
        for N in (1, 2, 7):
            assert qw.moment_f(N, 0.0) == pytest.approx(N * (N + 2) / 12, abs=1e-14)

    def test_against_direct_sum(self):
        assert abs(qw.moment_f(5, 0.3) - direct_moment_f(5, 0.3)) < 1e-12

    @pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 13, 21, 34, 47, 60])
    def test_direct_sum_grid(self, N):
        for x in X_GRID:
            assert abs(qw.moment_f(N, x) - direct_moment_f(N, x)) < 1e-12

    def test_matches_printed_sinh_form(self):
        # the stable implementation is an identity transform of the literal form
        for (N, x) in ((3, 0.7), (8, 1.3), (20, 0.05), (60, 2.0), (12, 0.01)):
            assert qw.moment_f(N, x) == pytest.approx(literal_f_mp(N, x), abs=1e-13, rel=1e-13)

    def test_small_xn_band_against_literal_form(self):
        # N >= 8, (N+1) x <= 8: f - h^2 is a small difference of terms
        # amplified by (N+1)^2, so c and g must hold a few ulp here.  At
        # N = 99, f ~ 1882 and one ulp is 2.3e-13, so the bound is relative.
        worst = 0.0
        for N in range(8, 100):
            x = np.linspace(0.0, 8.0, 61)[1:] / (N + 1)
            ref = np.array([literal_f_mp(N, xi, dps=60) for xi in x])
            worst = max(worst, float(np.max(np.abs(qw.moment_f(N, x) - ref) / ref)))
        assert worst < 2e-15

    def test_stable_at_large_xn(self):
        # x N = 1000: the printed sinh ratio overflows, the closed form must not
        val = qw.moment_f(500, 2.0)
        assert np.isfinite(val)
        assert abs(val - direct_moment_f(500, 2.0)) < 1e-9 * val

    def test_domain(self):
        with pytest.raises(DomainError):
            qw.moment_f(3, -0.1)
        with pytest.raises(ValueError):
            qw.moment_f(0, 1.0)

    def test_vectorized(self):
        x = np.array(X_GRID)
        np.testing.assert_allclose(
            qw.moment_f(4, x), [qw.moment_f(4, xi) for xi in x], atol=1e-14
        )

    @given(N=st.integers(1, 60), x=st.floats(1e-4, 50.0))
    @settings(max_examples=150, deadline=None)
    def test_oracle_property(self, N, x):
        assert abs(qw.moment_f(N, x) - direct_moment_f(N, x)) < 1e-12


class TestMomentH:
    def test_n1_tanh(self):
        for x in X_GRID:
            assert abs(qw.moment_h(1, x) + np.tanh(x) / 2) < 1e-14

    def test_x_zero(self):
        for N in (1, 4, 9):
            assert qw.moment_h(N, 0.0) == 0.0

    def test_against_direct_sum(self):
        assert abs(qw.moment_h(4, 1.2) - direct_moment_h(4, 1.2)) < 1e-12

    @pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 13, 21, 34, 47, 60])
    def test_direct_sum_grid(self, N):
        for x in X_GRID:
            assert abs(qw.moment_h(N, x) - direct_moment_h(N, x)) < 1e-12

    def test_matches_printed_sinh_form(self):
        for (N, x) in ((3, 0.7), (8, 1.3), (20, 0.05), (60, 2.0)):
            assert qw.moment_h(N, x) == pytest.approx(literal_h_mp(N, x), abs=1e-13, rel=1e-12)

    def test_raw_sign_is_negative(self):
        # h is stored as the raw thermal <m>, nonpositive for x >= 0
        for N in (1, 5, 20):
            for x in (0.1, 1.0, 10.0):
                h = qw.moment_h(N, x)
                assert -N / 2 <= h <= 0

    @given(N=st.integers(1, 60), x=st.floats(1e-4, 50.0))
    @settings(max_examples=150, deadline=None)
    def test_oracle_property(self, N, x):
        assert abs(qw.moment_h(N, x) - direct_moment_h(N, x)) < 1e-12


@pytest.mark.parametrize("N", [1, 2, 5, 40, 60])
def test_moments_do_not_depend_on_the_shape_of_x(N):
    # the series straddles a = 2 and the sinh branch covers the rest
    x = np.geomspace(1e-3, 50.0, 97)
    flat = (qw.moment_f(N, x), qw.moment_h(N, x))
    for shaped in (x[:, None], x[None, :]):
        for ref, got in zip(flat, (qw.moment_f(N, shaped), qw.moment_h(N, shaped))):
            assert np.array_equal(got.ravel(), ref)
    assert [qw.moment_f(N, xi) for xi in x] == flat[0].tolist()
    assert [qw.moment_h(N, xi) for xi in x] == flat[1].tolist()


class TestMomentSet:
    def test_f_pm_composition(self):
        # the Bose ladder weights are j(j+1) - F_sigma with F_sigma = f + sigma h
        f, h = qw.moment_f(6, 0.8), qw.moment_h(6, 0.8)
        _, _, L_plus, L_minus = _weights(6, 0.8, qw.Statistics.BOSE)
        assert L_plus == 12.0 - (f + h)
        assert L_minus == 12.0 - (f - h)

    def test_bounds(self):
        for N in (1, 3, 10, 40):
            for x in X_GRID:
                f, h = qw.moment_f(N, x), qw.moment_h(N, x)
                assert 0.25 - 1e-12 <= f <= N * N / 4 + 1e-12
                assert -N / 2 - 1e-12 <= h <= 1e-15

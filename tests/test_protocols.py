import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad

import qstatwork as qw
from qstatwork.errors import DegenerateHamiltonianError, DomainError, InvalidVariantError
from qstatwork.protocols import _trapezoid

from oracles import phase_quad


def fig2_params(N=2, delta=0.0):
    e0 = math.hypot(1.0, delta)
    eh = math.hypot(2.0, delta)
    return qw.EngineParams(N=N, Omega0=1.0, Delta=delta, v=0.1, T=20.0,
                           beta_c=2.0 / e0, beta_h=0.25 / eh)


class TestOmegaOfT:
    def test_initial_value(self):
        # v = 0.1 Omega(0)^2, T = 20/Omega(0) in the dimensionless units
        p = fig2_params()
        assert p.omega(0.0) == 1.0

    def test_continuity_at_half(self):
        p = fig2_params()
        left = p.omega(10.0 - 1e-9)
        right = p.omega(10.0 + 1e-9)
        assert abs(left - right) < 1e-6
        assert abs(p.omega(10.0) - 2.0) < 1e-12

    def test_cycle_closure(self):
        p = fig2_params()
        assert abs(p.omega(20.0) - 1.0) < 1e-12

    def test_domain_error(self):
        with pytest.raises(DomainError):
            fig2_params().omega(21.0)

    def test_exactly_linear_within_stroke(self):
        p = fig2_params()
        t = np.linspace(0.5, 9.5, 101)
        om = p.omega(t)
        second = np.diff(om, 2)
        assert np.max(np.abs(second)) < 1e-13

    def test_decreasing_direction(self):
        # a negative rate runs Omega down in stroke 1 and back up in stroke 2
        p = qw.EngineParams(N=1, Omega0=3.0, Delta=0.0, v=-0.1, T=20.0,
                            beta_c=1.0, beta_h=0.1)
        assert abs(p.omega(10.0) - 2.0) < 1e-12
        assert abs(p.omega(20.0) - 3.0) < 1e-12

    def test_gap_closing_rejected(self):
        with pytest.raises(DegenerateHamiltonianError):
            qw.EngineParams(N=1, Omega0=0.5, Delta=0.0, v=-0.1, T=20.0,
                            beta_c=1.0, beta_h=0.1)

    def test_negative_omega_rejected_by_its_rule(self):
        # |Omega| > 0 throughout, but the Delta = 0 closed forms take Omega >= 0
        with pytest.raises(DegenerateHamiltonianError, match="Omega >= 0 over the cycle"):
            qw.EngineParams(N=1, Omega0=-3.0, Delta=0.0, v=0.1, T=20.0,
                            beta_c=1.0, beta_h=0.1)

    def test_bath_ordering_enforced(self):
        with pytest.raises(ValueError, match="beta_c > beta_h"):
            qw.EngineParams(N=1, Omega0=1.0, Delta=0.0, v=0.1, T=20.0,
                            beta_c=0.1, beta_h=1.0)

    def test_n_must_be_whole(self):
        # a fractional N used to pass here and fail deep in the propagation
        with pytest.raises(ValueError, match="positive integer"):
            fig2_params(N=2.5)
        n = fig2_params(N=3.0).N
        assert n == 3 and type(n) is int

    @pytest.mark.parametrize("field", ["Omega0", "Delta", "v", "T"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_drive_must_be_finite(self, field, value):
        # a NaN passed every range check here and failed deep in the
        # propagation; an infinite sweep left no finite step
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            dataclasses.replace(fig2_params(), **{field: value})

    @pytest.mark.parametrize("changes", [
        dict(N=4, Omega0=1e308, v=0.0), dict(N=1, Omega0=1.5e308, Delta=1.5e308, v=0.0),
        dict(Omega0=1.0, v=1e308)], ids=["N-E0", "E0", "E-half"])
    def test_energy_scale_must_be_finite(self, changes):
        # finite fields whose N max(E_0, E_T/2) overflows left the step rule
        # a zero cap and failed with ZeroDivisionError in the propagation
        with pytest.raises(ValueError, match="energy scale"):
            dataclasses.replace(fig2_params(), **changes)

    def test_each_stroke_start_has_its_own_bath(self):
        # start_values pairs t0 = 0 with beta_c and T/2 with beta_h; the one
        # positive period whose half rounds to 0 left one record, at beta_h
        p = fig2_params()
        assert [(t0, s.beta) for t0, s in p.start_values.items()] == [
            (0.0, p.beta_c), (p.T / 2, p.beta_h)]
        for T in (0.0, -1.0, 5e-324):
            with pytest.raises(ValueError, match="cycle period T must be positive"):
                dataclasses.replace(p, T=T)

    def test_energy_scale_taken_once_per_object(self):
        # the validation takes it, and the step rule reads the same value;
        # a replaced drive takes its own
        p = fig2_params()
        scale = p.N * max(float(p.energy(0.0)), float(p.energy(p.T / 2)))
        assert vars(p)["energy_scale"] == scale and p.energy_scale is p.energy_scale
        q = dataclasses.replace(p, N=2 * p.N)
        assert q.energy_scale == 2 * p.energy_scale


class TestPhaseIntegral:
    # a Delta = 0 sweep at v < 0 runs Omega down in stroke 1: the
    # closed form takes |Omega| = Omega, which the validation guarantees
    @pytest.mark.parametrize("delta, changes", [
        pytest.param(0.0, {}, id="0.0"), pytest.param(0.5, {}, id="0.5"),
        pytest.param(2.0, {}, id="2.0"),
        pytest.param(0.0, {"Omega0": 3.0, "v": -0.1}, id="0.0-decreasing"),
        pytest.param(0.5, {"v": 0.0}, id="0.5-constant")])
    def test_matches_quadrature(self, delta, changes):
        p = dataclasses.replace(fig2_params(delta=delta), **changes)
        for t0, t in ((0.0, 3.7), (0.0, 10.0), (10.0, 16.2)):
            closed = qw.phase_integral(p, t, t0)
            ref = phase_quad(p, t, t0)
            assert abs(closed - ref) < 1e-8 * max(1, abs(ref))

    def test_stroke_domain(self):
        with pytest.raises(DomainError):
            qw.phase_integral(fig2_params(), 12.0, 0.0)


class TestCouplingSchedules:
    def test_plateau_midpoint_value(self):
        # both tanh terms saturated mid-plateau: g_C = 2g/(delta_t T)
        T = 20.0
        s = qw.SmoothPlateau(g=0.5, delta_t=0.9, alpha=2142.0 / T, T=T)
        got = qw.g_of_t(s, T / 4)
        assert abs(got - 2 * 0.5 / (0.9 * T)) < 1e-6 * abs(got)

    def test_plateau_endpoints_off(self):
        T = 20.0
        s = qw.SmoothPlateau(g=0.5, delta_t=0.9, alpha=2142.0 / T, T=T)
        scale = 0.5 / (0.9 * T)
        assert abs(qw.g_of_t(s, 0.0)) < 1e-6 * scale
        assert abs(qw.g_of_t(s, T)) < 1e-6 * scale

    def test_plateau_delta_to_one_limit(self):
        # delta_t -> 1 and fast switching approximate twin g/T... plateaus of
        # height 2g/(delta_t T); the area per stroke stays g
        T = 20.0
        s = qw.SmoothPlateau(g=0.2, delta_t=0.99, alpha=4000.0 / T, T=T)
        tt = np.linspace(0.0, T / 2, 4001)
        trap = getattr(np, "trapezoid", None) or np.trapz
        area = trap([qw.g_of_t(s, float(t)) for t in tt], tt)
        assert abs(area - 0.2) < 1e-3 * 0.2

    def test_total_area_two_plateaus(self):
        T = 20.0
        for (g, dt_, a) in ((0.01, 0.9, 2142.0), (0.5, 0.9, 2142.0), (0.5, 0.98, 2000.0)):
            s = qw.SmoothPlateau(g=g, delta_t=dt_, alpha=a / T, T=T)
            val, _ = quad(lambda t: qw.g_of_t(s, t), 0.0, T, limit=400,
                          points=list(s.switch_times()))
            assert abs(val - 2 * g) < 1e-3 * 2 * g

    def test_endpoint_invariant_violation(self):
        with pytest.raises(ValueError, match="switch off"):
            qw.SmoothPlateau(g=0.5, delta_t=0.9, alpha=5.0 / 20.0, T=20.0)

    @given(g=st.floats(-2.0, 2.0), delta_t=st.floats(0.01, 0.99),
           alpha_T=st.floats(1.0, 4.0).map(lambda e: 10 ** e),
           T=st.floats(-1.0, 2.0).map(lambda e: 10 ** e))
    @example(g=0.01, delta_t=0.9, alpha_T=2142.0, T=20.0)
    @example(g=0.5, delta_t=0.9, alpha_T=2142.0, T=20.0)
    @example(g=0.5, delta_t=0.98, alpha_T=2000.0, T=20.0)
    # a subnormal plateau: g_C(T/2) rounds one subnormal above the endpoints
    @example(g=2.2250738585e-313, delta_t=0.5, alpha_T=10 ** 1.875, T=1.0)
    @settings(max_examples=300, deadline=None)
    def test_endpoints_bound_the_midcycle_tail(self, g, delta_t, alpha_T, T):
        # every accepted plateau: each tanh pair of g_C(T/2) is one of g_C(0)
        # or g_C(T), with the same sign, so the endpoint check also bounds
        # the tail at the reset.
        # _value's last operation, the product of g / (delta_t T) and the
        # tanh sum, rounds each of the three values by half a subnormal
        # where it is subnormal (the sum of the two endpoints is exact):
        # 1.5 subnormals, rounded up to 2
        try:
            s = qw.SmoothPlateau(g=g, delta_t=delta_t, alpha=alpha_T / T, T=T)
        except ValueError:
            assume(False)
        ends = abs(qw.g_of_t(s, 0.0)) + abs(qw.g_of_t(s, T))
        scale = abs(g) / (delta_t * T)
        tiny = np.finfo(float).smallest_subnormal
        assert abs(qw.g_of_t(s, T / 2)) <= ends + 32 * np.finfo(float).eps * scale + 2 * tiny
        assert ends <= 2e-6 * scale

    def test_impulse_has_no_pointwise_value(self):
        s = qw.Impulse(g=0.01, t1=3.5, T=20.0)
        with pytest.raises(InvalidVariantError):
            qw.g_of_t(s, 3.5)

    def test_impulse_validation(self):
        with pytest.raises(ValueError):
            qw.Impulse(g=0.01, t1=10.0, T=20.0)
        with pytest.raises(ValueError):
            qw.Impulse(g=0.01, t1=25.0, T=20.0)

    def test_sampled_interpolation_and_area(self):
        tt = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        vv = np.array([0.0, 1.0, 0.5, 1.0, 0.0])
        s = qw.Sampled(times=tt, values=vv)
        assert qw.g_of_t(s, 0.5) == pytest.approx(0.5)
        assert qw.g_of_t(s, 2.5) == pytest.approx(0.75)
        # the area by which criterion 5 normalises its random sampled schedules
        assert _trapezoid(s.values, s.times) == pytest.approx(2.5)


class TestHarmonicSystem:
    def test_two_level_truncation(self):
        sys2 = qw.harmonic_system(1.0, 2)
        np.testing.assert_allclose(sys2.V_S, [[0, 1], [1, 0]], atol=1e-15)

    def test_ladder_recursion(self):
        sys_ = qw.harmonic_system(0.7, 9)
        for i in range(1, 9):
            assert sys_.V_S[i, i - 1] == pytest.approx(math.sqrt(i))
        np.testing.assert_allclose(sys_.energies, 0.7 * np.arange(9), atol=1e-15)

    def test_interaction_picture_matrix_element(self):
        # <i| e^{iHt} V e^{-iHt} |0> = e^{i omega t} delta_{i,1}
        omega, t = 0.35, 2.2
        sys_ = qw.harmonic_system(omega, 6)
        phases = np.exp(1j * sys_.energies * t)
        v_int = np.diag(phases) @ sys_.V_S @ np.diag(phases.conj())
        col = v_int[:, 0]
        assert abs(col[1] - np.exp(1j * omega * t)) < 1e-12
        assert np.max(np.abs(np.delete(col, 1))) < 1e-12

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            qw.harmonic_system(1.0, 1)

    def test_generic_system_validation(self):
        with pytest.raises(ValueError, match="ground-state"):
            qw.ExternalSystem(energies=np.array([0.5, 1.0]), V_S=np.eye(2))
        v = np.array([[0, 1j], [1j, 0]])
        with pytest.raises(ValueError, match="Hermitian"):
            qw.ExternalSystem(energies=np.array([0.0, 1.0]), V_S=v)

    def test_generic_system_holds_its_coupling_array(self):
        system = qw.ExternalSystem(energies=[0.0, 1.0], V_S=[[0, 1], [1, 0]])
        assert system.V_S.dtype == complex
        with pytest.raises(ValueError, match="square"):
            qw.ExternalSystem(energies=[0.0, 1.0], V_S=np.zeros((2, 3)))
        with pytest.raises(ValueError, match="dimension"):
            qw.ExternalSystem(energies=[0.0, 1.0, 2.0], V_S=np.eye(2))

    def test_derived_constants_are_read_only(self):
        # the eigensystem of V_S and the largest gap are taken once per
        # object from arrays no caller can write
        system = qw.harmonic_system(0.3, 5)
        assert system.eigensystem is system.eigensystem
        s, P_s = system.eigensystem
        np.testing.assert_allclose((P_s * s) @ P_s.conj().T, system.V_S, atol=1e-14)
        for x in (system.energies, system.V_S, s, P_s):
            assert not x.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 1
        assert system.max_gap == float(np.diff(system.energies).max())
        assert qw.ExternalSystem(energies=[0.0], V_S=[[1.0]]).max_gap == 0.0

    def test_callers_arrays_stay_theirs(self):
        # float64 energies and a complex128 V_S are copied, not frozen or
        # aliased: a later write by the caller changes neither the system
        # nor its cached eigensystem
        energies = np.array([0.0, 1.0, 2.5])
        vs = np.array([[0, 1, 0], [1, 0, 2], [0, 2, 0]], dtype=complex)
        system = qw.ExternalSystem(energies=energies, V_S=vs)
        s = system.eigensystem[0].copy()
        for given, held in ((energies, system.energies), (vs, system.V_S)):
            assert given.flags.writeable and not np.shares_memory(given, held)
        energies[1], vs[0, 1] = 7.0, 9.0
        assert system.energies[1] == 1.0 and system.V_S[0, 1] == 1.0
        np.testing.assert_array_equal(system.eigensystem[0], s)

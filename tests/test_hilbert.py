import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import qstatwork as qw
from qstatwork.errors import (
    DegenerateHamiltonianError,
    InvalidSpaceError,
    ResourceLimitError,
)
from qstatwork.hilbert import _fix_column_signs, hermitian_expm, spin_y

from oracles import direct_moment_h


def _params(N=2, Omega0=1.0, Delta=0.0, v=0.1, T=20.0, beta_c=2.0, beta_h=0.125):
    return qw.EngineParams(N=N, Omega0=Omega0, Delta=Delta, v=v, T=T,
                           beta_c=beta_c, beta_h=beta_h)


class TestCollectiveSpinOps:
    def test_n1_is_half_pauli(self):
        sx, sz = qw.collective_spin_ops(1)
        np.testing.assert_allclose(sx.matrix, [[0, 0.5], [0.5, 0]], atol=1e-15)
        np.testing.assert_allclose(sz.matrix, np.diag([-0.5, 0.5]), atol=1e-15)

    def test_n2_ladder(self):
        sx, sz = qw.collective_spin_ops(2)
        np.testing.assert_allclose(np.diag(sz.matrix), [-1, 0, 1], atol=1e-15)
        offdiag = np.diag(sx.matrix, 1)
        np.testing.assert_allclose(offdiag, [1 / np.sqrt(2)] * 2, atol=1e-15)

    @pytest.mark.parametrize("N", list(range(1, 31)))
    def test_su2_closure(self, N):
        sx, sz = qw.collective_spin_ops(N)
        sy = spin_y(N)
        comm = sz.matrix @ sx.matrix - sx.matrix @ sz.matrix
        assert np.max(np.abs(comm - 1j * sy)) < 1e-12

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            qw.collective_spin_ops(0)


class TestProductSpinOps:
    def test_n1_matches_collective(self):
        vx, hz = qw.product_spin_ops(1)
        sx, sz = qw.collective_spin_ops(1)
        np.testing.assert_allclose(vx.matrix, sx.matrix, atol=1e-15)
        np.testing.assert_allclose(hz.matrix, sz.matrix, atol=1e-15)

    def test_n2_spectrum(self):
        vx, _ = qw.product_spin_ops(2)
        assert abs(np.trace(vx.matrix)) < 1e-14
        evals = np.sort(np.linalg.eigvalsh(vx.matrix))
        np.testing.assert_allclose(evals, [-1, 0, 0, 1], atol=1e-14)

    def test_n3_hz_spectrum(self):
        _, hz = qw.product_spin_ops(3)
        evals = np.sort(np.linalg.eigvalsh(hz.matrix))
        np.testing.assert_allclose(
            evals, [-1.5, -0.5, -0.5, -0.5, 0.5, 0.5, 0.5, 1.5], atol=1e-14
        )

    def test_cap(self):
        with pytest.raises(ResourceLimitError, match="12"):
            qw.product_spin_ops(13)


class TestEngineHamiltonian:
    def test_delta0_two_level(self):
        p = _params(N=1, Omega0=1.0)
        H = qw.engine_hamiltonian(p, 0.0, qw.DickeSector(1))
        np.testing.assert_allclose(np.diag(H.matrix).real, [-1, 1], atol=1e-15)

    def test_pure_sx_gap(self):
        p = _params(N=2, Omega0=0.0, Delta=1.0)
        H = qw.engine_hamiltonian(p, 0.0, qw.DickeSector(2))
        evals = np.sort(np.linalg.eigvalsh(H.matrix))
        np.testing.assert_allclose(evals, [-2, 0, 2], atol=1e-14)

    def test_spectrum_against_eigensolver(self):
        p = _params(N=4, Omega0=0.7, Delta=0.3, v=0.0)
        H = qw.engine_hamiltonian(p, 0.0, qw.DickeSector(4))
        E = math.sqrt(0.58)
        expected = 2 * E * (np.arange(5) - 2)
        np.testing.assert_allclose(np.linalg.eigvalsh(H.matrix), expected, atol=1e-12)

    def test_product_spectrum_degenerate(self):
        p = _params(N=3, Omega0=0.8, Delta=0.4)
        H = qw.engine_hamiltonian(p, 0.0, qw.FullProduct(3))
        E = math.hypot(0.8, 0.4)
        evals = np.sort(np.linalg.eigvalsh(H.matrix))
        expected = np.sort([2 * E * (s1 + s2 + s3) / 2
                            for s1 in (-1, 1) for s2 in (-1, 1) for s3 in (-1, 1)])
        np.testing.assert_allclose(evals, expected, atol=1e-12)

    def test_rejects_system_space(self):
        with pytest.raises(InvalidSpaceError):
            qw.engine_hamiltonian(_params(), 0.0, qw.HOTruncated(5))


class TestThermalState:
    def test_infinite_temperature(self):
        H = qw.engine_hamiltonian(_params(N=3), 0.0, qw.DickeSector(3))
        rho = qw.thermal_state(H, 0.0)
        np.testing.assert_allclose(rho.rho, np.eye(4) / 4, atol=1e-14)

    def test_zero_temperature_projector(self):
        H = qw.DenseOperator(qw.HOTruncated(2), np.diag([-1.0, 1.0]))
        rho = qw.thermal_state(H, math.inf)
        np.testing.assert_allclose(rho.rho, np.diag([1.0, 0.0]), atol=1e-15)

    def test_first_moment_matches_closed_form(self):
        # <Sz> of the N=3 Dicke Gibbs state against the h-moment at x = beta E
        p = _params(N=3, Omega0=1.0, Delta=0.0)
        H = qw.engine_hamiltonian(p, 0.0, qw.DickeSector(3))
        rho = qw.thermal_state(H, 0.5)
        _, sz = qw.collective_spin_ops(3)
        got = float(np.trace(rho.rho @ sz.matrix).real)
        assert abs(got - qw.moment_h(3, 0.5)) < 1e-12
        assert abs(got - direct_moment_h(3, 0.5)) < 1e-12

    def test_requires_hermitian(self):
        H = qw.DenseOperator(qw.HOTruncated(2), np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(ValueError, match="Hermitian"):
            qw.thermal_state(H, 1.0)

    @given(beta=st.floats(min_value=0.0, max_value=1e3), seed=st.integers(0, 2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_state_invariants_property(self, beta, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        H = qw.DenseOperator(qw.HOTruncated(5), (a + a.conj().T) / 2)
        rho = qw.thermal_state(H, beta)  # QuantumState validates on build
        assert abs(np.trace(rho.rho) - 1) < 1e-10


class TestInstantaneousEigenbasis:
    def test_delta0_branch(self):
        p = _params(N=2, Omega0=1.0, Delta=0.0)
        theta, E, basis = qw.instantaneous_eigenbasis(p, 0.0, 2)
        assert abs(theta + math.pi / 2) < 1e-15
        assert abs(E - 1.0) < 1e-15
        np.testing.assert_allclose(basis.matrix, np.eye(3), atol=1e-12)

    def test_pure_sx(self):
        p = _params(N=2, Omega0=0.0, Delta=1.0)
        theta, E, basis = qw.instantaneous_eigenbasis(p, 0.0, 2)
        assert abs(theta) < 1e-15 and abs(E - 1.0) < 1e-15
        sx, _ = qw.collective_spin_ops(2)
        m = np.arange(3) - 1
        resid = sx.matrix @ basis.matrix - basis.matrix @ np.diag(m)
        assert np.max(np.abs(resid)) < 1e-12

    def test_eigenvector_residual(self):
        p = _params(N=3, Omega0=1.0, Delta=1.0, v=0.0)
        theta, E, basis = qw.instantaneous_eigenbasis(p, 0.0, 3)
        assert abs(theta + math.pi / 4) < 1e-12
        assert abs(E - math.sqrt(2)) < 1e-14
        H = qw.engine_hamiltonian(p, 0.0, qw.DickeSector(3))
        m = np.arange(4) - 1.5
        resid = H.matrix @ basis.matrix - basis.matrix @ np.diag(2 * E * m)
        assert np.max(np.abs(resid)) < 1e-12

    def test_leading_entries_positive(self):
        p = _params(N=4, Omega0=0.3, Delta=0.9)
        _, _, basis = qw.instantaneous_eigenbasis(p, 3.0, 4)
        for col in basis.matrix.T:
            lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert lead.real > 0 and abs(lead.imag) < 1e-12

    def test_degenerate_error(self):
        p = _params(N=1, Omega0=0.0, Delta=0.5)
        p = qw.EngineParams(N=1, Omega0=0.0, Delta=0.0, v=0.1, T=20.0,
                            beta_c=2.0, beta_h=0.125)
        with pytest.raises(DegenerateHamiltonianError):
            qw.instantaneous_eigenbasis(p, 0.0, 1)


def _random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


class TestHermitianExpm:
    """exp(-i t H) from eigh against scipy.linalg.expm (Pade, scaling and
    squaring), which shares no code with it."""

    @staticmethod
    def assert_matches_expm(H, t):
        err = np.max(np.abs(hermitian_expm(H, t) - scipy.linalg.expm(-1j * t * H)))
        assert err <= 1e-13, err

    @pytest.mark.parametrize("dim", [1, 2, 5, 16, 40])
    def test_random_hermitian(self, dim):
        rng = np.random.default_rng(dim)
        for t in (1e-3, 0.3, 1.0):
            self.assert_matches_expm(_random_hermitian(rng, dim), t)

    def test_degenerate_spectrum(self):
        # eigenvalues -1 (x3), 0.5 (x2), 2 in a random unitary frame
        rng = np.random.default_rng(7)
        Q, _ = np.linalg.qr(_random_hermitian(rng, 6))
        H = (Q * [-1.0, -1.0, -1.0, 0.5, 0.5, 2.0]) @ Q.conj().T
        H = (H + H.conj().T) / 2
        for t in (0.1, 1.0, 2.5):
            self.assert_matches_expm(H, t)

    @pytest.mark.parametrize("N", range(1, 9))
    def test_instantaneous_eigenbasis(self, N):
        for omega0, delta, t in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.3, 0.9, 3.0),
                                 (1.0, 1.4, 7.0), (2.0, 0.5, 12.0)):
            p = _params(N=N, Omega0=omega0, Delta=delta)
            theta, _, basis = qw.instantaneous_eigenbasis(p, t, N)
            ref = scipy.linalg.expm(-1j * (theta + math.pi / 2) * spin_y(N))
            assert not ref.imag.any()
            ref = _fix_column_signs(ref.real)
            assert np.max(np.abs(basis.matrix - ref)) <= 1e-13


class TestSpaces:
    def test_dims(self):
        assert qw.DickeSector(5).dim == 6
        assert qw.FullProduct(5).dim == 32
        assert qw.Composite(qw.DickeSector(3), qw.HOTruncated(7)).dim == 28

    def test_state_validation(self):
        bad = np.diag([0.6, 0.6]).astype(complex)
        with pytest.raises(ValueError, match="trace"):
            qw.QuantumState(qw.HOTruncated(2), bad)
        neg = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(ValueError, match="negative"):
            qw.QuantumState(qw.HOTruncated(2), neg)

    def test_product_thermal_vs_dicke_averages_differ(self):
        # single-operator averages follow their own closed forms, not each other
        p = _params(N=3, Omega0=1.0, Delta=0.8, beta_c=0.7)
        x = 0.7 * float(p.energy(0.0))
        Hd = qw.engine_hamiltonian(p, 0.0, qw.DickeSector(3))
        Hp = qw.engine_hamiltonian(p, 0.0, qw.FullProduct(3))
        rho_d = qw.thermal_state(Hd, 0.7)
        rho_p = qw.thermal_state(Hp, 0.7)
        sx_d, _ = qw.collective_spin_ops(3)
        vx_p, _ = qw.product_spin_ops(3)
        cos_th = math.cos(float(p.theta(0.0)))
        avg_d = float(np.trace(rho_d.rho @ (2 * sx_d.matrix)).real)
        avg_p = float(np.trace(rho_p.rho @ (2 * vx_p.matrix)).real)
        assert abs(avg_d - 2 * cos_th * qw.moment_h(3, x)) < 1e-12
        assert abs(avg_p - 2 * 3 * cos_th * qw.moment_h(1, x)) < 1e-12
        assert abs(avg_d - avg_p) > 1e-3

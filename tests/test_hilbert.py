"""The dense engine matrices of the test oracles (spin operators,
Hamiltonians, Gibbs states), and the spin matrices and eigenbasis
rotations the package builds its blocks from."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import qstatwork as qw
import qstatwork.dynamics as dyn
from qstatwork.dynamics import _spin_xyz

from oracles import (
    DickeSector,
    FullProduct,
    direct_moment_h,
    engine_hamiltonian,
    gibbs,
    spin_ops,
)


def _params(N=2, Omega0=1.0, Delta=0.0, v=0.1, T=20.0, beta_c=2.0, beta_h=0.125):
    return qw.EngineParams(N=N, Omega0=Omega0, Delta=Delta, v=v, T=T,
                           beta_c=beta_c, beta_h=beta_h)


def eigenbasis(p, t, N):
    """The package's instantaneous eigenbasis of H_E(t) on spin N/2: the
    lift of the y-rotation by theta_t + pi/2, which tilts its Gibbs blocks."""
    return dyn._spin_sector(N, 1.0).lift(*dyn._su2_y(float(p.theta(t)) + math.pi / 2))


class TestCollectiveSpinOps:
    def test_n1_is_half_pauli(self):
        sx, _, sz = spin_ops(DickeSector(1))
        np.testing.assert_allclose(sx, [[0, 0.5], [0.5, 0]], atol=1e-15)
        np.testing.assert_allclose(sz, np.diag([-0.5, 0.5]), atol=1e-15)

    def test_n2_ladder(self):
        sx, _, sz = spin_ops(DickeSector(2))
        np.testing.assert_allclose(np.diag(sz), [-1, 0, 1], atol=1e-15)
        offdiag = np.diag(sx, 1)
        np.testing.assert_allclose(offdiag, [1 / np.sqrt(2)] * 2, atol=1e-15)

    @pytest.mark.parametrize("N", list(range(1, 31)))
    def test_su2_closure(self, N):
        sx, sy, sz = spin_ops(DickeSector(N))
        comm = sz @ sx - sx @ sz
        assert np.max(np.abs(comm - 1j * sy)) < 1e-12
        # the package's spin blocks are built from the same matrices
        for ours, theirs in zip(_spin_xyz(N), (sx, sy, np.diag(sz))):
            assert np.max(np.abs(ours - theirs)) <= 1e-15

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            spin_ops(DickeSector(0))


class TestProductSpinOps:
    def test_n1_matches_collective(self):
        for full, dicke in zip(spin_ops(FullProduct(1)), spin_ops(DickeSector(1))):
            np.testing.assert_allclose(full, dicke, atol=1e-15)

    def test_n2_spectrum(self):
        vx = spin_ops(FullProduct(2))[0]
        assert abs(np.trace(vx)) < 1e-14
        evals = np.sort(np.linalg.eigvalsh(vx))
        np.testing.assert_allclose(evals, [-1, 0, 0, 1], atol=1e-14)

    def test_n3_hz_spectrum(self):
        hz = spin_ops(FullProduct(3))[2]
        evals = np.sort(np.linalg.eigvalsh(hz))
        np.testing.assert_allclose(
            evals, [-1.5, -0.5, -0.5, -0.5, 0.5, 0.5, 0.5, 1.5], atol=1e-14
        )


class TestEngineHamiltonian:
    def test_delta0_two_level(self):
        p = _params(N=1, Omega0=1.0)
        H = engine_hamiltonian(p, 0.0, DickeSector(1))
        np.testing.assert_allclose(np.diag(H).real, [-1, 1], atol=1e-15)

    def test_pure_sx_gap(self):
        p = _params(N=2, Omega0=0.0, Delta=1.0)
        H = engine_hamiltonian(p, 0.0, DickeSector(2))
        evals = np.sort(np.linalg.eigvalsh(H))
        np.testing.assert_allclose(evals, [-2, 0, 2], atol=1e-14)

    def test_spectrum_against_eigensolver(self):
        p = _params(N=4, Omega0=0.7, Delta=0.3, v=0.0)
        H = engine_hamiltonian(p, 0.0, DickeSector(4))
        E = math.sqrt(0.58)
        expected = 2 * E * (np.arange(5) - 2)
        np.testing.assert_allclose(np.linalg.eigvalsh(H), expected, atol=1e-12)

    def test_product_spectrum_degenerate(self):
        p = _params(N=3, Omega0=0.8, Delta=0.4)
        H = engine_hamiltonian(p, 0.0, FullProduct(3))
        E = math.hypot(0.8, 0.4)
        evals = np.sort(np.linalg.eigvalsh(H))
        expected = np.sort([2 * E * (s1 + s2 + s3) / 2
                            for s1 in (-1, 1) for s2 in (-1, 1) for s3 in (-1, 1)])
        np.testing.assert_allclose(evals, expected, atol=1e-12)

    def test_rejects_system_space(self):
        with pytest.raises(ValueError):
            engine_hamiltonian(_params(), 0.0, qw.harmonic_system(1.0, 5))


class TestThermalState:
    def test_infinite_temperature(self):
        H = engine_hamiltonian(_params(N=3), 0.0, DickeSector(3))
        np.testing.assert_allclose(gibbs(H, 0.0), np.eye(4) / 4, atol=1e-14)

    def test_zero_temperature_projector(self):
        # the package's Gibbs blocks at beta = inf: the projector onto the
        # ground state m = -N/2 of H_E, which only the top spin block holds
        p = _params(N=3, Omega0=1.0, Delta=0.4, beta_c=math.inf)
        _, P = np.linalg.eigh(engine_hamiltonian(p, 0.0, DickeSector(3)))
        ground = np.outer(P[:, 0], P[:, 0].conj())
        (bose,) = dyn._sector_thermal(dyn._build_sectors(p, qw.Statistics.BOSE), p, 0.0)
        top, low = dyn._sector_thermal(dyn._build_sectors(p, qw.Statistics.DISTINGUISHABLE),
                                       p, 0.0)
        for R, lam in (bose, top):
            assert np.max(np.abs((R * lam) @ R.conj().T - ground)) < 1e-15
        assert not low[1].any()

    def test_first_moment_matches_closed_form(self):
        # <Sz> of the N=3 Dicke Gibbs state against the h-moment at x = beta E
        p = _params(N=3, Omega0=1.0, Delta=0.0)
        rho = gibbs(engine_hamiltonian(p, 0.0, DickeSector(3)), 0.5)
        sz = spin_ops(DickeSector(3))[2]
        got = float(np.trace(rho @ sz).real)
        assert abs(got - qw.moment_h(3, 0.5)) < 1e-12
        assert abs(got - direct_moment_h(3, 0.5)) < 1e-12

    def test_requires_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            gibbs(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)

    @given(beta=st.floats(min_value=0.0, max_value=1e3), seed=st.integers(0, 2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_state_invariants_property(self, beta, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        rho = gibbs((a + a.conj().T) / 2, beta)
        assert abs(np.trace(rho) - 1) < 1e-10
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
        assert np.linalg.eigvalsh(rho).min() > -1e-9


class TestInstantaneousEigenbasis:
    def test_delta0_branch(self):
        p = _params(N=2, Omega0=1.0, Delta=0.0)
        assert abs(float(p.theta(0.0)) + math.pi / 2) < 1e-15
        assert abs(float(p.energy(0.0)) - 1.0) < 1e-15
        np.testing.assert_allclose(eigenbasis(p, 0.0, 2), np.eye(3), atol=1e-12)

    def test_pure_sx(self):
        p = _params(N=2, Omega0=0.0, Delta=1.0)
        assert abs(float(p.theta(0.0))) < 1e-15 and abs(float(p.energy(0.0)) - 1.0) < 1e-15
        basis = eigenbasis(p, 0.0, 2)
        sx = spin_ops(DickeSector(2))[0]
        m = np.arange(3) - 1
        resid = sx @ basis - basis @ np.diag(m)
        assert np.max(np.abs(resid)) < 1e-12

    def test_eigenvector_residual(self):
        p = _params(N=3, Omega0=1.0, Delta=1.0, v=0.0)
        E = float(p.energy(0.0))
        assert abs(float(p.theta(0.0)) + math.pi / 4) < 1e-12
        assert abs(E - math.sqrt(2)) < 1e-14
        basis = eigenbasis(p, 0.0, 3)
        H = engine_hamiltonian(p, 0.0, DickeSector(3))
        m = np.arange(4) - 1.5
        resid = H @ basis - basis @ np.diag(2 * E * m)
        assert np.max(np.abs(resid)) < 1e-12


def _random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


class TestHermitianExpm:
    """The exponentials the package takes from eigendecompositions, the
    kicked system state of exp(-i t A (x) B) from those of A and B and the
    y-rotations of its spin blocks from that of S_y, against
    scipy.linalg.expm (Pade, scaling and squaring), which shares no code
    with them."""

    @staticmethod
    def assert_kick_matches_expm(As, B, t):
        # random engine states rho_E = V diag(lam) V^dag of the blocks As,
        # one sum of weights over all, with the system in |0>, kicked at
        # once: the closed-form reduced system state against the sum of the
        # partial traces of the densely kicked composites
        dB = len(B)
        s, P_s = np.linalg.eigh(B)
        rng = np.random.default_rng(sum(map(len, As)))
        P_s = P_s * np.exp(2j * np.pi * rng.uniform(size=dB))     # any eigenvector phases
        rs, Us, lams, ref = [], [], [], 0
        for A in As:
            dA = len(A)
            r, P_r = np.linalg.eigh(A)
            V, _ = np.linalg.qr(rng.normal(size=(dA, dA, 2)) @ [1, 1j])
            lam = rng.uniform(size=dA) / len(As)
            rs.append(r)
            Us.append(P_r.conj().T @ V)
            lams.append(np.abs(Us[-1]) ** 2 @ lam)
            start = np.kron((V * lam) @ V.conj().T, np.diag(np.eye(dB)[0]))
            K = scipy.linalg.expm(-1j * t * np.kron(A, B))
            ref = ref + np.einsum("aiaj->ij", (K @ start @ K.conj().T).reshape(dA, dB, dA, dB))
        phi, drifts = dyn._kicked_vectors(rs, Us, s, P_s, t)
        got = dyn._reduced_system(phi, np.concatenate(lams))
        err = np.max(np.abs(got - ref))
        assert err <= 1e-12, err
        assert len(drifts) == len(As) and max(drifts) <= 1e-12, drifts

    def test_kick_drift_reads_both_halves(self):
        # each block's isometry drift max |U^dag diag(|phi_r|^2) U - I| sees
        # its own engine half (U) and the shared system half (P_s) off the
        # unitaries, with two blocks kicked at once
        rng = np.random.default_rng(3)
        rs, Us = [], []
        for d in (4, 3):
            r, P_r = np.linalg.eigh(_random_hermitian(rng, d))
            rs.append(r)
            Us.append(P_r.conj().T @ np.linalg.qr(_random_hermitian(rng, d))[0])
        s, P_s = np.linalg.eigh(qw.harmonic_system(1.0, 5).V_S)
        for scale_u, scale_s, drift in ((1, 1, (0.0, 0.0)), (1 + 1e-8, 1, (2e-8, 0.0)),
                                        (1, 1 + 1e-8, (4e-8, 4e-8))):
            got = dyn._kicked_vectors(rs, [scale_u * Us[0], Us[1]], s, scale_s * P_s, 0.3)[1]
            assert all(abs(x - d) <= 1e-14 + 1e-3 * d for x, d in zip(got, drift)), \
                (scale_u, scale_s, got)

    @pytest.mark.parametrize("dim", [1, 2, 5, 16, 40])
    def test_random_hermitian(self, dim):
        rng = np.random.default_rng(dim)
        B = qw.harmonic_system(1.0, 3).V_S
        for t in (1e-3, 0.3, 1.0):
            self.assert_kick_matches_expm([_random_hermitian(rng, dim),
                                           _random_hermitian(rng, 3)], B, t)

    def test_degenerate_spectrum(self):
        # eigenvalues -1 (x3), 0.5 (x2), 2 in a random unitary frame, for
        # each factor of the kick in turn
        rng = np.random.default_rng(7)
        Q, _ = np.linalg.qr(_random_hermitian(rng, 6))
        H = (Q * [-1.0, -1.0, -1.0, 0.5, 0.5, 2.0]) @ Q.conj().T
        H = (H + H.conj().T) / 2
        B = 2 * spin_ops(DickeSector(2))[0]
        for t in (0.1, 1.0, 2.5):
            self.assert_kick_matches_expm([H, B], B, t)
            self.assert_kick_matches_expm([B, H], H, t)

    @pytest.mark.parametrize("N", range(1, 9))
    def test_instantaneous_eigenbasis(self, N):
        sy = spin_ops(DickeSector(N))[1]
        for omega0, delta, t in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.3, 0.9, 3.0),
                                 (1.0, 1.4, 7.0), (2.0, 0.5, 12.0)):
            p = _params(N=N, Omega0=omega0, Delta=delta)
            ref = scipy.linalg.expm(-1j * (float(p.theta(t)) + math.pi / 2) * sy)
            assert np.max(np.abs(eigenbasis(p, t, N) - ref)) <= 1e-13


class TestSpaces:
    def test_dims(self):
        assert DickeSector(5).dim == 6
        assert FullProduct(5).dim == 32
        assert spin_ops(FullProduct(5))[0].shape == (32, 32)

    def test_product_thermal_vs_dicke_averages_differ(self):
        # single-operator averages follow their own closed forms, not each other
        p = _params(N=3, Omega0=1.0, Delta=0.8, beta_c=0.7)
        x = 0.7 * float(p.energy(0.0))
        rho_d = gibbs(engine_hamiltonian(p, 0.0, DickeSector(3)), 0.7)
        rho_p = gibbs(engine_hamiltonian(p, 0.0, FullProduct(3)), 0.7)
        sx_d = spin_ops(DickeSector(3))[0]
        vx_p = spin_ops(FullProduct(3))[0]
        cos_th = math.cos(float(p.theta(0.0)))
        avg_d = float(np.trace(rho_d @ (2 * sx_d)).real)
        avg_p = float(np.trace(rho_p @ (2 * vx_p)).real)
        assert abs(avg_d - 2 * cos_th * qw.moment_h(3, x)) < 1e-12
        assert abs(avg_p - 2 * 3 * cos_th * qw.moment_h(1, x)) < 1e-12
        assert abs(avg_d - avg_p) > 1e-3

"""Independent reference computations shared by the test modules.

The closed-form oracles are built from first principles: direct Boltzmann
sums, literal printed closed forms at high precision, and matrix products
with the adiabatic propagator.  The direct moment sums are imported from
the package's verify battery, which shares no code with
`analytics.moment_f`/`moment_h`.

`dense_cycle` takes the whole Otto cycle as dense density matrices on the
genuine composite, with scipy's `expm` for every propagator, so it shares
neither the package's exponentials nor its factored states, spin sectors,
SU(2) lifts, Gibbs tilt or stroke-2 truncation.  It does share public
primitives, each pinned by tests of its own:
- the `hilbert` builders `collective_spin_ops`, `product_spin_ops` and
  `engine_hamiltonian`, whose spin matrices the package's sectors are also
  built from (test_hilbert: TestCollectiveSpinOps, TestProductSpinOps,
  TestEngineHamiltonian);
- `thermal_state` (test_hilbert: TestThermalState);
- `apply_impulse`, whose kick is the one the cycle's impulse path applies
  (test_dynamics: TestApplyImpulse, against a second-order closed form and
  by composition);
- `thermal_reset` (test_dynamics: TestThermalReset);
- the coupling schedule `g_of_t` (test_protocols: TestCouplingSchedules).
"""

import functools
import math

import mpmath
import numpy as np
from scipy.linalg import expm
from scipy.integrate import quad

from qstatwork import (
    Composite,
    DickeSector,
    HOTruncated,
    Impulse,
    QuantumState,
    apply_impulse,
    collective_spin_ops,
    engine_hamiltonian,
    g_of_t,
    product_spin_ops,
    thermal_reset,
    thermal_state,
)
from qstatwork.sweeps import _direct_moment

# Absolute rounding floor of a full-cycle work from the split-midpoint
# stepper at dt from the cap down to cap/8. At Delta = 0 the step is exact
# for the work, so what is left is rounding: for N = 2, a g = 0.01 plateau
# and an oscillator of dimension 8, successive dt-halvings from the cap to
# cap/8 move the work by 7e-17, 3.8e-16 and 2.3e-14, with no trend. A
# convergence check must measure errors far above this.
WORK_ROUNDING_FLOOR = 2e-14


direct_moment_f = functools.partial(_direct_moment, power=2)
direct_moment_h = functools.partial(_direct_moment, power=1)


def literal_f_mp(N, x, dps=50):
    """Literal printed sinh-ratio closed form for f at high precision."""
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        num = (
            N ** 2 * mpmath.sinh((N + 3) * xm)
            + (N + 2) ** 2 * mpmath.sinh((N - 1) * xm)
            - 2 * (N ** 2 + 2 * N - 2) * mpmath.sinh((N + 1) * xm)
        )
        den = 16 * mpmath.sinh((N + 1) * xm) * mpmath.sinh(xm) ** 2
        return float(num / den)


def literal_h_mp(N, x, dps=50):
    """Literal printed sinh-ratio closed form for h at high precision."""
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        num = (N + 2) * mpmath.sinh(N * xm) - N * mpmath.sinh((N + 2) * xm)
        den = mpmath.sinh(xm) * mpmath.sinh((N + 1) * xm)
        return float(num / den / 4)


def direct_active_distribution(N, level_count, beta_omega):
    """P(k active) by a plain Boltzmann sum over every occupation vector
    (n_0, ..., n_{L-1}), n_l in {0, 1, 2}, sum n_l = N, with no pruning.

    A vector with k singly occupied levels has trap energy
    omega sum_l n_l (l + 1/2) and Fock degeneracy 2^k.
    """
    P = np.zeros(N + 1)

    def walk(level, remaining, energy, active):
        if remaining == 0:
            P[active] += 2.0 ** active * math.exp(-beta_omega * energy)
            return
        if level == level_count:
            return
        for n in range(min(2, remaining) + 1):
            walk(level + 1, remaining - n, energy + n * (level + 0.5), active + (n == 1))

    walk(0, N, 0.0, 0)
    return P / P.sum()


def spin_ops(N):
    j = N / 2
    m = np.arange(N + 1) - j
    sp = np.zeros((N + 1, N + 1), dtype=complex)
    for k in range(N):
        sp[k + 1, k] = np.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    sx = (sp + sp.conj().T) / 2
    sy = (sp - sp.conj().T) / 2j
    sz = np.diag(m).astype(complex)
    return sx, sy, sz, m


def phase_quad(params, t, t0):
    """Adiabatic phase by quadrature (independent of the closed form)."""
    val, _ = quad(lambda s: 2 * float(params.energy(s)), t0, t, limit=400)
    return val


class DickeAdiabaticOracle:
    """Exact matrix computation of the adiabatic-picture correlators in
    the (N+1)-dimensional symmetric sector."""

    def __init__(self, params, column_phases=None):
        self.params = params
        self.N = params.N
        self.sx, self.sy, self.sz, self.m = spin_ops(self.N)
        self.column_phases = column_phases

    def basis(self, t):
        chi = float(self.params.theta(t)) + np.pi / 2
        B = expm(-1j * chi * self.sy)
        if self.column_phases is not None:
            B = B @ np.diag(self.column_phases)
        return B

    def propagator(self, t, t0):
        ph = phase_quad(self.params, t, t0)
        return self.basis(t) @ np.diag(np.exp(-1j * self.m * ph)) @ self.basis(t0).conj().T

    def thermal(self, t0, beta):
        H = 2 * float(self.params.omega(t0)) * self.sz + 2 * self.params.Delta * self.sx
        ev, P = np.linalg.eigh(H)
        w = np.exp(-beta * (ev - ev.min()))
        rho = (P * (w / w.sum())) @ P.conj().T
        return rho

    def v_interaction(self, t, t0):
        U = self.propagator(t, t0)
        return U.conj().T @ (2 * self.sx) @ U

    def correlator(self, t, t_prime, t0, beta):
        rho = self.thermal(t0, beta)
        return complex(np.trace(rho @ self.v_interaction(t_prime, t0) @ self.v_interaction(t, t0)))

    def one_time(self, t, t0, beta):
        rho = self.thermal(t0, beta)
        return float(np.trace(rho @ self.v_interaction(t, t0)).real)


class ProductAdiabaticOracle:
    """Exact matrix computation on the genuine 2^N product space with a
    per-atom adiabatic propagator."""

    def __init__(self, params):
        self.params = params
        self.N = params.N
        self.sx1, self.sy1, self.sz1, self.m1 = spin_ops(1)
        eye = np.eye(2, dtype=complex)
        dim = 2 ** self.N
        self.v = np.zeros((dim, dim), dtype=complex)
        for i in range(self.N):
            ops = [eye] * self.N
            ops[i] = 2 * self.sx1
            self.v += functools.reduce(np.kron, ops)

    def _basis1(self, t):
        chi = float(self.params.theta(t)) + np.pi / 2
        return expm(-1j * chi * self.sy1)

    def _u1(self, t, t0):
        ph = phase_quad(self.params, t, t0)
        return (
            self._basis1(t)
            @ np.diag(np.exp(-1j * self.m1 * ph))
            @ self._basis1(t0).conj().T
        )

    def thermal(self, t0, beta):
        h1 = float(self.params.omega(t0)) * 2 * self.sz1 + 2 * self.params.Delta * self.sx1
        ev, P = np.linalg.eigh(h1)
        w = np.exp(-beta * (ev - ev.min()))
        g1 = (P * (w / w.sum())) @ P.conj().T
        return functools.reduce(np.kron, [g1] * self.N)

    def v_interaction(self, t, t0):
        u1 = self._u1(t, t0)
        U = functools.reduce(np.kron, [u1] * self.N)
        return U.conj().T @ self.v @ U

    def correlator(self, t, t_prime, t0, beta):
        rho = self.thermal(t0, beta)
        return complex(np.trace(rho @ self.v_interaction(t_prime, t0) @ self.v_interaction(t, t0)))

    def one_time(self, t, t0, beta):
        rho = self.thermal(t0, beta)
        return float(np.trace(rho @ self.v_interaction(t, t0)).real)


def beta_at(params, t0):
    return params.beta_c if t0 == 0.0 else params.beta_h


# ---------------------------------------------------------------------------
# the single-atom engine propagator, [[a, -b*], [b, a*]] in the ascending-m
# basis, for H = Omega(t) sigma_z + Delta sigma_x in the first stroke,
# where Omega(t) = Omega0 + v t
# ---------------------------------------------------------------------------

def midpoint_su2_product_mp(params, t_a, t_b, n, dps=40):
    """(a, b) of the ordered product of the n midpoint steps
    exp(-i dt (Omega(t_k) sigma_z + Delta sigma_x)) from t_a to t_b,
    each step and product taken at dps digits."""
    with mpmath.workdps(dps):
        v, delta = mpmath.mpf(params.v), mpmath.mpf(params.Delta)
        dt = (mpmath.mpf(t_b) - t_a) / n
        a, b = mpmath.mpc(1), mpmath.mpc(0)
        for k in range(n):
            omega = params.Omega0 + v * (t_a + (k + mpmath.mpf(1) / 2) * dt)
            E = mpmath.sqrt(omega ** 2 + delta ** 2)
            s = mpmath.sin(E * dt) / E
            sa, sb = mpmath.cos(E * dt) + 1j * omega * s, -1j * delta * s
            a, b = sa * a - mpmath.conj(sb) * b, sb * a + mpmath.conj(sa) * b
        return complex(a), complex(b)


def su2_chain_per_level_pad(a, b):
    """(a, b) of the ordered product u_n ... u_1 along the last axis by
    pairwise reduction, padding each odd level with one identity step at
    its end: the same pairing tree as a single pad to a power of two."""
    while a.shape[-1] > 1:
        if a.shape[-1] % 2:
            pad = [(0, 0)] * (a.ndim - 1) + [(0, 1)]
            a, b = np.pad(a, pad, constant_values=1), np.pad(b, pad)
        a1, b1, a0, b0 = a[..., 1::2], b[..., 1::2], a[..., ::2], b[..., ::2]
        a, b = a1 * a0 - b1.conj() * b0, b1 * a0 + a1.conj() * b0
    return a[..., 0], b[..., 0]


def landau_zener_propagator(params, t_a, t_b, dps=30):
    """(a, b) of the exact propagator from t_a to t_b of the linear sweep,
    from parabolic-cylinder functions (Vitanov & Garraway, PRA 53, 4288
    (1996)).  With tau = t + Omega0/v, so that Omega = v tau, the m = -1/2
    amplitude c solves c'' + (Delta^2 + v^2 tau^2 - i v) c = 0, whose
    solutions are D_nu(+-k tau) with k^2 = 2 i v and
    nu = -1 - i Delta^2/(2 v); the m = +1/2 amplitude is
    (i c' + v tau c) / Delta, and D_nu'(z) = z D_nu(z)/2 - D_(nu+1)(z)."""
    with mpmath.workdps(dps):
        v, delta = mpmath.mpf(params.v), mpmath.mpf(params.Delta)
        k = mpmath.sqrt(2 * v) * mpmath.expjpi(mpmath.mpf(1) / 4)
        nu = -1 - 1j * delta ** 2 / (2 * v)

        def fundamental(t):
            tau = mpmath.mpf(t) + params.Omega0 / v
            cols = []
            for sign in (1, -1):
                z = sign * k * tau
                c = mpmath.pcfd(nu, z)
                dc = sign * k * (z * c / 2 - mpmath.pcfd(nu + 1, z))
                cols.append([c, (1j * dc + v * tau * c) / delta])
            return mpmath.matrix(cols).T

        U = fundamental(t_b) * mpmath.inverse(fundamental(t_a))
        return complex(U[0, 0]), complex(U[1, 0])


# ---------------------------------------------------------------------------
# the whole Otto cycle as dense density matrices on the genuine composite,
# DickeSector(N) or FullProduct(N) (x) HOTruncated
# ---------------------------------------------------------------------------

def _composite_terms(system, kind):
    """V_R = 2 Sx on the engine space kind, I (x) H_S and V_R (x) V_S."""
    spin_ops_of = collective_spin_ops if isinstance(kind, DickeSector) else product_spin_ops
    v_r = 2 * spin_ops_of(kind.N)[0].matrix
    h_s = np.kron(np.eye(kind.dim), np.diag(system.energies))
    return v_r, h_s, np.kron(v_r, system.matrix)


def _free_step(params, system, kind, h_s, t_mid, tau):
    """exp(-i tau A) with A = H_E(t_mid) (x) I + I (x) H_S."""
    h_e = engine_hamiltonian(params, t_mid, kind).matrix
    return expm(-1j * tau * (np.kron(h_e, np.eye(system.dim)) + h_s))


def dense_strang_steps(rho, params, schedule, system, kind, t_start, dt, n):
    """rho after n Strang steps exp(-iA dt/2) exp(-iB dt) exp(-iA dt/2)
    from t_start, with A = H_E(t_mid) (x) I + I (x) H_S and
    B = g(t_mid) V_R (x) V_S at each step's midpoint t_mid."""
    _, h_s, v = _composite_terms(system, kind)
    for k in range(n):
        t_mid = t_start + k * dt + dt / 2
        half = _free_step(params, system, kind, h_s, t_mid, dt / 2)
        U = half @ expm(-1j * dt * float(g_of_t(schedule, t_mid)) * v) @ half
        rho = U @ rho @ U.conj().T
    return rho


def dense_cycle(params, schedule, system, kind, diagnostics):
    """Populations of Tr_E rho(T) after the whole cycle on kind (x) the
    system, from Gibbs(beta_c, H_E(0)) (x) |0><0|, with thermal_reset to
    Gibbs(beta_h, H_E(T/2)) at T/2, at the step counts that run_cycle's
    diagnostics report.

    A smooth schedule takes dense_strang_steps at the run's dt and
    n_steps_per_half in each stroke.  A kick at t1 follows the run's
    n_engine_steps midpoint steps exp(-iA dt), at the run's dt, from the
    start of the kick's stroke; at Delta = 0 there are none, as the Gibbs
    state commutes with every H_E(t) and the system's ground state with
    H_S.  The free evolution after the kick moves no population of
    Tr_E rho, so it is not taken.
    """
    dE, dS = kind.dim, system.dim
    space = Composite(kind, HOTruncated(dS))
    half = params.T / 2
    ground = np.zeros((dS, dS))
    ground[0, 0] = 1.0
    rho = np.kron(thermal_state(engine_hamiltonian(params, 0.0, kind), params.beta_c).rho, ground)

    def reset(rho):
        h_e = engine_hamiltonian(params, half, kind)
        return thermal_reset(QuantumState(space, rho), h_e, params.beta_h).rho

    if isinstance(schedule, Impulse):
        t0 = 0.0 if schedule.t1 < half else half
        if t0:
            rho = reset(rho)
        v_r, h_s, _ = _composite_terms(system, kind)
        dt = diagnostics["dt"]
        for k in range(diagnostics["n_engine_steps"]):
            U = _free_step(params, system, kind, h_s, t0 + k * dt + dt / 2, dt)
            rho = U @ rho @ U.conj().T
        rho = apply_impulse(QuantumState(space, rho), schedule.g, v_r, system.matrix).rho
        if not t0:
            rho = reset(rho)
    else:
        dt, n = diagnostics["dt"], diagnostics["n_steps_per_half"]
        rho = dense_strang_steps(rho, params, schedule, system, kind, 0.0, dt, n)
        rho = dense_strang_steps(reset(rho), params, schedule, system, kind, half, dt, n)
    return np.diagonal(rho.reshape(dE, dS, dE, dS).trace(axis1=0, axis2=2)).real

"""Independent reference computations shared by the test modules.

The closed-form oracles are built from first principles: direct Boltzmann
sums, literal printed closed forms at high precision, and matrix products
with the adiabatic propagator.  The direct moment sums are imported from
the package's verify battery, which shares no code with
`analytics.moment_f`/`moment_h`.

The dense layer builds its own engine spaces (`DickeSector`,
`FullProduct`), spin operators, Hamiltonians, Gibbs states, kick and
thermal reset, and `dense_cycle` takes the whole Otto cycle as dense
density matrices on the genuine composite, with scipy's `expm` for every
propagator.  It shares no propagation, state or operator code with the
package: from qstatwork it takes only model inputs, the schedule type
`Impulse` and the coupling values `g_of_t` (test_protocols:
TestCouplingSchedules), besides `sweeps._direct_moment`.  test_hygiene
holds it to that; test_hilbert pins its operators and states.
"""

import functools
import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.linalg import expm
from scipy.integrate import quad

from qstatwork import Impulse, g_of_t
from qstatwork.sweeps import _direct_moment

# Conservative absolute floor for the rounding of a full-cycle work from
# the split-midpoint stepper at dt from the cap down to cap/8; a
# convergence check must measure errors far above it. The step is second
# order at Delta = 0 as well, but a weak coupling hides that under this
# floor: for N = 2, a g = 0.01 plateau and an oscillator of dimension 8
# (work 3.5e-8, error at the cap 2e-9 of it), successive dt-halvings from
# the cap to cap/8 move the work by 5.6e-17, 1.5e-17 and 4.4e-18. On the
# Fig.-3 plateau (g = 0.5, dimension 16) the error at the cap is a clean
# order-2 3.4e-6 of the work, |w1 - w4| = 4.4e-10.
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


# ---------------------------------------------------------------------------
# engine spaces and their operators and states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DickeSector:
    """Symmetric subspace of N two-level atoms, dimension N + 1."""

    N: int

    @property
    def dim(self):
        return self.N + 1


@dataclass(frozen=True)
class FullProduct:
    """Tensor product of N two-level atoms, dimension 2^N."""

    N: int

    @property
    def dim(self):
        return 2 ** self.N


@functools.cache
def spin_ops(kind):
    """(Sx, Sy, Sz) on the engine space kind: the spin-N/2 matrices in the
    ascending-m basis on DickeSector(N), the sums over the N atoms of the
    one-atom matrices on FullProduct(N).  Built once per kind, as
    read-only arrays: the dense cycle takes them at every step."""
    if not isinstance(kind, (DickeSector, FullProduct)) or kind.N < 1:
        raise ValueError(f"spin_ops needs a DickeSector or FullProduct of N >= 1, got {kind!r}")
    if isinstance(kind, FullProduct):
        eye, N = np.eye(2), kind.N
        ops = tuple(sum(functools.reduce(np.kron, [s if k == i else eye for k in range(N)])
                        for i in range(N))
                    for s in spin_ops(DickeSector(1)))
    else:
        j = kind.N / 2
        m = np.arange(kind.N + 1) - j
        sp = np.diag(np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1)), -1).astype(complex)
        ops = (sp + sp.conj().T) / 2, (sp - sp.conj().T) / 2j, np.diag(m).astype(complex)
    for op in ops:
        op.flags.writeable = False
    return ops


def engine_hamiltonian(params, t, kind):
    """H_E(t) = 2 Omega(t) Sz + 2 Delta Sx on the engine space kind."""
    sx, _, sz = spin_ops(kind)
    return 2 * float(params.omega(t)) * sz + 2 * params.Delta * sx


def gibbs(H, beta):
    """exp(-beta H) / Z of a Hermitian H, from its eigendecomposition."""
    if np.max(np.abs(H - H.conj().T)) > 1e-12:
        raise ValueError("gibbs needs a Hermitian H")
    ev, P = np.linalg.eigh(H)
    w = np.exp(-beta * (ev - ev[0]))
    return (P * (w / w.sum())) @ P.conj().T


def reduced_system(rho, dE):
    """Tr_E of a matrix on engine (dim dE) (x) system."""
    dS = rho.shape[0] // dE
    return rho.reshape(dE, dS, dE, dS).trace(axis1=0, axis2=2)


def reduced_engine(rho, dE):
    """Tr_S of a matrix on engine (dim dE) (x) system."""
    dS = rho.shape[0] // dE
    return rho.reshape(dE, dS, dE, dS).trace(axis1=1, axis2=3)


def kick(rho, g, v_r, v_s):
    """U rho U^dag with U = exp(-i g V_R (x) V_S), the delta-pulse coupling
    integrated."""
    U = expm(-1j * g * np.kron(v_r, v_s))
    return U @ rho @ U.conj().T


def reset(rho, h_e, beta):
    """The isochore rho -> Gibbs(beta, H_E) (x) Tr_E rho."""
    return np.kron(gibbs(h_e, beta), reduced_system(rho, len(h_e)))


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
        self.sx, self.sy, self.sz = spin_ops(DickeSector(self.N))
        self.m = np.diag(self.sz).real
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
        return gibbs(engine_hamiltonian(self.params, t0, DickeSector(self.N)), beta)

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
        _, self.sy1, sz1 = spin_ops(DickeSector(1))
        self.m1 = np.diag(sz1).real
        self.v = 2 * spin_ops(FullProduct(self.N))[0]

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
        return gibbs(engine_hamiltonian(self.params, t0, FullProduct(self.N)), beta)

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
# DickeSector(N) or FullProduct(N) (x) the system
# ---------------------------------------------------------------------------

def _free_step(params, system, kind, t_mid, tau):
    """exp(-i tau A) with A = H_E(t_mid) (x) I + I (x) H_S."""
    h_e = engine_hamiltonian(params, t_mid, kind)
    return expm(-1j * tau * (np.kron(h_e, np.eye(system.dim))
                             + np.kron(np.eye(kind.dim), np.diag(system.energies))))


def dense_strang_steps(rho, params, schedule, system, kind, t_start, dt, n):
    """rho after n Strang steps exp(-iA dt/2) exp(-iB dt) exp(-iA dt/2)
    from t_start, with A = H_E(t_mid) (x) I + I (x) H_S and
    B = g(t_mid) V_R (x) V_S at each step's midpoint t_mid."""
    v = np.kron(2 * spin_ops(kind)[0], system.V_S)
    for k in range(n):
        t_mid = t_start + k * dt + dt / 2
        half = _free_step(params, system, kind, t_mid, dt / 2)
        U = half @ expm(-1j * dt * float(g_of_t(schedule, t_mid)) * v) @ half
        rho = U @ rho @ U.conj().T
    return rho


def dense_cycle(params, schedule, system, kind, diagnostics):
    """Tr_E rho(T), the system's state after the whole cycle on kind (x)
    the system, from Gibbs(beta_c, H_E(0)) (x) |0><0|, with the reset to
    Gibbs(beta_h, H_E(T/2)) at T/2, at the step counts that run_cycle's
    diagnostics report.

    A smooth schedule takes dense_strang_steps at the run's dt and
    n_steps_per_half in each stroke.  A kick at t1 follows the product of
    the run's n_engine_steps midpoint steps exp(-i H_E dt), at the run's
    dt, from the start of the kick's stroke; at Delta = 0 there are none,
    as the Gibbs state commutes with every H_E(t).  These steps act on
    the engine alone: until the kick the system sits in |0><0|, which
    H_S, its ground energy zero, leaves alone.  The product is taken
    first and applied to the state once, which rounds about ten times
    less than stepping the state (N = 6: 2e-14 against 2e-13 relative
    work).  The free evolution after the kick moves no population of
    Tr_E rho, so it is not taken: of a kick's state only the diagonal is
    the run's.
    """
    half = params.T / 2
    ground = np.zeros((system.dim, system.dim))
    ground[0, 0] = 1.0
    rho_e = gibbs(engine_hamiltonian(params, 0.0, kind), params.beta_c)
    h_hot = engine_hamiltonian(params, half, kind)
    if isinstance(schedule, Impulse):
        t0 = 0.0 if schedule.t1 < half else half
        if t0:
            rho_e = gibbs(h_hot, params.beta_h)
        dt, U = diagnostics["dt"], np.eye(kind.dim)
        for k in range(diagnostics["n_engine_steps"]):
            U = expm(-1j * dt * engine_hamiltonian(params, t0 + k * dt + dt / 2, kind)) @ U
        rho = kick(np.kron(U @ rho_e @ U.conj().T, ground), schedule.g, 2 * spin_ops(kind)[0],
                   system.V_S)
    else:
        dt, n = diagnostics["dt"], diagnostics["n_steps_per_half"]
        rho = dense_strang_steps(np.kron(rho_e, ground), params, schedule, system, kind,
                                 0.0, dt, n)
        rho = dense_strang_steps(reset(rho, h_hot, params.beta_h), params, schedule, system,
                                 kind, half, dt, n)
    return reduced_system(rho, kind.dim)

"""Exact numerical propagation of the engine-system composite through the
Otto cycle, with impulse kicks, thermalization resets, and the two-point
energy measurement of the external system.

Distinguishable ensembles are propagated through the exact total-spin
block decomposition: the product Hamiltonian, coupling and thermal
states are all functions of total-spin operators, so the 2^N dynamics
splits into independent spin-j sectors with known multiplicities.  Every
block is built once, from the spin-j matrices of `_spin_xyz` (hbar = 1,
ascending magnetic quantum number m = -j .. j), and its Gibbs states are
kept factored as R diag(lam) R^dag.  The tests check whole cycles against
a dense 2^N reference.

An impulse kick is diagonal in the eigenbasis |r> of V_R, so no state is
propagated through it: a run's reduced system state after the kick is
the mixture of the kicked system vectors phi_r of all its blocks, taken
at once (_kicked_vectors) from the eigensystem an ExternalSystem keeps.

Smooth couplings are Strang-split.  On a composite above CHAIN_DIM each
step is two matrix products, the second with the coupling phase folded
in, run in place on the stroke's factor and one buffer of its shape.  On
a smaller one a step costs more in call overhead than in arithmetic, so
the steps between two samples are multiplied into one propagator by
pairwise products and applied to the factor as one GEMM.  The spin-0
blocks of even N carry neither H_E nor the coupling, so they are not
stepped but evolve under H_S in closed form.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .analytics import METHOD_NUMERICAL, WorkRecord
from .errors import ConfigError, PropagationError
from .protocols import (
    CouplingSchedule,
    EngineParams,
    ExternalSystem,
    Impulse,
    Statistics,
    check_schedule_cycle,
    g_of_t,
    phase_integral,
)

SAMPLE_EVERY = 50             # steps between state-health samples
GRID_CHUNK = 250              # steps per precomputed block of the stroke grid,
                              # a whole number of sample blocks
# Largest composite dim dE dS whose steps are multiplied into one
# propagator per sample block rather than stepped.  Cycle time of the
# block path against the two-call stepped one (medians of 3-5 interleaved
# pairs of Bose plateau cycles, T = 2.5 and 20, Delta = 0.5, dE = 2-6, one
# BLAS thread, 2-core Xeon): 0.58-0.64 at D = 8, 0.53-0.70 at D = 12,
# 0.70-0.97 at D = 16, 0.79-1.02 at D = 18, 1.00-1.38 at D = 24 and
# 1.6-2.1 at D = 32.
CHAIN_DIM = 20
DROP_TOL = 1e-16              # sigma_S eigenvalues dropped from a stroke's factor
LEAKAGE_TOL = 1e-6
UNITARITY_TOL = 1e-10
STATE_EIGMIN_TOL = -1e-9      # smallest eigenvalue a final sigma_S may have


@dataclass(frozen=True)
class PropagatorConfig:
    """Propagation controls.

    dt = None derives the step from the accuracy rule
    dt <= min(0.01 / E_max, 0.01 / omega_eff) with E_max = N max_t E_t;
    an explicit dt above that cap is rejected.  Each split step is unitary
    at any dt: the cap bounds the splitting error.  collect_trace records
    the trace, top-two-level population and system energy at every sample.
    """

    dt: float = None
    collect_trace: bool = False

    def __post_init__(self):
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ConfigError("dt must be a positive finite number")


@dataclass
class CycleResult:
    """Work record, the final system state sigma_S as an array (Hermitian,
    unit trace, no eigenvalue below STATE_EIGMIN_TOL) and health indicators."""

    work: WorkRecord
    final_state: np.ndarray
    per_stroke_energies: list
    diagnostics: dict

    def to_dict(self) -> dict:
        return {
            "work": self.work.to_dict(),
            "per_stroke_energies": self.per_stroke_energies,
            "diagnostics": self.diagnostics,
        }


# ---------------------------------------------------------------------------
# sectors: one collective-spin block
# ---------------------------------------------------------------------------

class _Sector:
    """One irreducible engine block: spin operators, rotation eigensystem,
    the coupling operator V_R = 2 Sx and the residual of its eigenbases,
    all read-only, for the block is built once per spin."""

    def __init__(self, sx, sy, sz_diag, mult, key):
        self.key = key              # equal keys: the same block in two runs
        self.sz_diag = np.asarray(sz_diag, dtype=float)
        self.mult = float(mult)
        self.dim = sx.shape[0]
        self.sy_vals, self.sy_vecs = np.linalg.eigh(sy)
        self.v_r = 2 * sx
        self.vr_vals, self.vr_vecs = np.linalg.eigh(self.v_r)
        self.unitarity_residual = _isometry_drift(self.sy_vecs, self.vr_vecs)
        # V_R = 0 forces S_y = S_z = 0 by the su(2) relations: only the
        # spin-0 block is free, and H_E vanishes on it
        self.free = not self.v_r.any()
        for x in (self.sz_diag, self.sy_vals, self.sy_vecs, self.v_r, self.vr_vals, self.vr_vecs):
            x.flags.writeable = False

    def lift(self, a, b) -> np.ndarray:
        """Image on this block of the SU(2) matrices [[a, -b*], [b, a*]]
        (ascending m), stacked over the shape of a and b.  With the Euler
        angles beta = 2 atan2(|b|, |a|), alpha + gamma = 2 arg a and
        alpha - gamma = -2 arg(-b) it is
        exp(-i alpha Sz) Q exp(-i beta mu) Q^dag exp(-i gamma Sz), where
        Q diag(mu) Q^dag is the eigensystem of Sy; at b = 0 it is the
        diagonal exp(-2i arg(a) Sz)."""
        s, d = np.angle(a), np.angle(-b)
        if not np.any(b):
            return np.exp(-2j * np.multiply.outer(s, self.sz_diag))[..., None] * np.eye(self.dim)
        beta = 2 * np.arctan2(np.abs(b), np.abs(a))
        Q = self.sy_vecs
        phases = np.exp(-1j * np.multiply.outer(beta, self.sy_vals))[..., None, :]
        # Q diag(phase) Q^dag over the whole stack as one GEMM
        mid = (Q * phases).reshape(-1, self.dim) @ Q.conj().T
        mid = mid.reshape(phases.shape[:-2] + Q.shape)
        left = np.exp(-1j * np.multiply.outer(s - d, self.sz_diag))
        right = np.exp(-1j * np.multiply.outer(s + d, self.sz_diag))
        return left[..., :, None] * mid * right[..., None, :]


@lru_cache(maxsize=None)
def _spin_xyz(N: int):
    """Spin-N/2 matrices Sx and Sy, and the diagonal m of Sz, in the
    ascending-m basis, from which every spin block of the engines is built."""
    j = N / 2
    m = np.arange(N + 1) - j
    sp = np.zeros((N + 1, N + 1), dtype=complex)
    for k in range(N):
        sp[k + 1, k] = math.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    sx = (sp + sp.conj().T) / 2
    sy = (sp - sp.conj().T) / 2j
    return sx, sy, m


@lru_cache(maxsize=None)
def _spin_sector(n_eff: int, mult: float) -> _Sector:
    sx, sy, m = _spin_xyz(n_eff)
    return _Sector(sx, sy, m, mult, ("spin", n_eff))


def _block_multiplicity(N: int, k: int) -> int:
    # multiplicity of total spin j = N/2 - k in (1/2)^(x N)
    return math.comb(N, k) - (math.comb(N, k - 1) if k else 0)


def _build_sectors(params: EngineParams, statistics: Statistics, config=None):
    """The spin blocks of a run: spin N/2 for Bose engines, every spin
    j = N/2 - k with its multiplicity for distinguishable ones.  No setting
    of config changes them; the benchmark's tracer passes one."""
    N = params.N
    if statistics is Statistics.BOSE:
        return [_spin_sector(N, 1.0)]
    return [_spin_sector(N - 2 * k, _block_multiplicity(N, k)) for k in range(N // 2 + 1)]


def _sector_thermal(sectors, params: EngineParams, t0: float, beta: float, tilts=None):
    """Per-sector Gibbs blocks R diag(lam) R^dag with a common normalisation,
    kept factored as (R, lam): R, by block key in `tilts` (which runs of one t0
    may share), lifts the y-rotation onto the eigenbasis of H_E(t0), I at Delta = 0."""
    start = params.start_values[t0]
    E0 = start.energy
    e_min = min(2 * E0 * s.sz_diag.min() for s in sectors)
    shifted = [2 * E0 * s.sz_diag - e_min for s in sectors]
    if math.isinf(beta):
        weights = [(x <= 1e-10 * max(1.0, abs(e_min))).astype(float) for x in shifted]
    else:
        weights = [np.exp(-beta * x) for x in shifted]
    Z = sum(s.mult * w.sum() for s, w in zip(sectors, weights))
    a, b = _su2_y(start.theta + math.pi / 2)
    tilts = {} if tilts is None else tilts
    for s in sectors:
        if s.key not in tilts:
            tilts[s.key] = s.lift(a, b) if params.Delta else np.eye(s.dim)
    return [(tilts[s.key], w / Z) for s, w in zip(sectors, weights)]


# ---------------------------------------------------------------------------
# factored states: rho = Psi diag(w) Psi^dag, Psi stored as (dE, r, dS) so
# that engine and system rotations are one GEMM each
# ---------------------------------------------------------------------------

def _system_factor(sigma_s):
    """Eigenvalues of sigma_S above DROP_TOL, their eigenvectors, and the
    trace-norm weight of the eigenvalues dropped."""
    mu, W = np.linalg.eigh(sigma_s)
    keep = mu > DROP_TOL
    return mu[keep], W[:, keep], float(np.abs(mu[~keep]).sum())


def _product_factor(R, W):
    """Factor Psi, with orthonormal columns, of R diag(lam) R^dag (x)
    W diag(mu) W^dag; its weights are lam (x) mu, raveled."""
    return np.einsum("ia,sb->iabs", R, W).reshape(R.shape[0], -1, W.shape[0])


def _same_factor(a, b) -> bool:
    """Whether two runs' sigma_S factors (mu, W) are equal, so that a block
    held by both has one factor Psi for the two."""
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def _shared_blocks(runs, factors, params, t0, beta):
    """The distinct spin blocks of the runs (one list of sectors per run),
    each with one factor for every run that holds it: (sector, Psi,
    members), one member (run, multiplicity, weights, their sum, columns
    of Psi) per holder.  The Gibbs blocks of one spin differ between runs only in Z, so
    runs with equal sigma_S factors (mu, W) share the block's columns, with
    weights from their own Gibbs block; runs whose factors differ stack
    their columns in Psi."""
    held, tilts = {}, {}
    for i, sectors in enumerate(runs):
        for sector, gibbs in zip(sectors, _sector_thermal(sectors, params, t0, beta, tilts)):
            held.setdefault(sector.key, (sector, []))[1].append((i, sector.mult, gibbs))
    for sector, holders in held.values():
        cols, ys, members = {}, [], []
        for i, mult, (R, lam) in holders:
            owner = next((j for j in cols if _same_factor(factors[j], factors[i])), i)
            if owner not in cols:
                start = sum(x.shape[1] for x in ys)
                ys.append(_product_factor(R, factors[owner][1]))
                cols[owner] = slice(start, start + ys[-1].shape[1])
            w = np.multiply.outer(lam, factors[owner][0]).ravel()
            members.append((i, mult, w, float(w.sum()), cols[owner]))
        yield sector, ys[0] if len(ys) == 1 else np.concatenate(ys, axis=1), members


def _aligned(shape):
    """An uninitialised complex array on a 64-byte boundary (malloc gives 16; GEMMs vary)."""
    raw = np.empty(math.prod(shape) + 3, complex)
    return raw[-raw.ctypes.data % 64 // 16:][:math.prod(shape)].reshape(shape)


def _rotate(y, A, B, buf, out):
    """(A (x) B) Psi: A on the engine axis, B on the system axis, through
    buf into out (both of Psi's shape; out may be y)."""
    np.matmul(A, y.reshape(len(A), -1), out=buf.reshape(len(A), -1))
    np.matmul(buf.reshape(-1, len(B)), B.T, out=out.reshape(-1, len(B)))


def _reduced_system(y, w):
    """Tr_E[Psi diag(w) Psi^dag], stacked over the leading axes of y."""
    flat = (*y.shape[:-3], -1, y.shape[-1])
    yw = np.conjugate(y)            # conj(Tr_E) from one temporary, not two
    yw *= w[:, None]
    return (np.swapaxes(yw.reshape(flat), -1, -2) @ y.reshape(flat)).conj()


def _isometry_drift(*Us) -> float:
    """max |U^dag U - I| over the matrices Us, each one matrix or a stack of
    them on leading axes: zero for unitaries and for factors (as
    (dE dS) x r matrices) with orthonormal columns."""
    return max(float(np.max(np.abs(U.conj().swapaxes(-1, -2) @ U - np.eye(U.shape[-1]))))
               for U in Us)


def _kicked_vectors(rs, Us, s, P_s, g):
    """exp(-i g V_R (x) V_S) on rho_E (x) |0><0|, with V_R = P_r diag(r) P_r^dag,
    V_S = P_s diag(s) P_s^dag, rho_E = V diag(lam) V^dag and U = P_r^dag V,
    leaves the system in sum_r p_r phi_r phi_r^dag, with p = |U|^2 lam and
    phi_r = P_s exp(-i g r s) P_s^dag |0>.  Returns the phi_r of all blocks
    (r, U) of rs and Us, stacked in that order as a (1, sum dim V_R, dim V_S)
    factor, and each block's isometry drift max |U^dag diag(|phi_r|^2) U - I|."""
    phi = (np.exp(-1j * g * np.multiply.outer(np.concatenate(rs), s)) * P_s[0].conj()) @ P_s.T
    norms = np.sqrt(np.einsum("rs,rs->r", phi, phi.conj()).real)
    parts = np.split(norms, np.cumsum([len(r) for r in rs])[:-1])
    return phi[None], [_isometry_drift(x[:, None] * U) for x, U in zip(parts, Us)]


def _engine_steps(sector, params, t_mid, tau):
    """exp(-i H_E(t) tau) at each time t of the array t_mid, stacked."""
    if params.Delta == 0.0:
        d = np.exp(-2j * tau * np.multiply.outer(params.omega(t_mid), sector.sz_diag))
        return d[:, :, None] * np.eye(sector.dim)
    return sector.lift(*_su2_steps(params, t_mid, tau))


def _fused_engine_steps(sector, params, t_mid, tau):
    """P_r^dag e_{j+1} e_j P_r for each pair of consecutive times t_mid[j],
    t_mid[j+1], with e_j = exp(-i H_E(t_mid[j]) tau) and P_r the
    eigenvectors of V_R: the two engine half steps between two phase
    products, built by GEMMs rather than stacked small products."""
    P, dE = sector.vr_vecs, sector.dim
    if params.Delta == 0.0:
        d = np.exp(-2j * tau * np.multiply.outer(params.omega(t_mid), sector.sz_diag))
        # P^dag diag(p) P is the phase row p times the rows conj(P[a]) P[a]
        outer = (P.conj()[:, :, None] * P[:, None, :]).reshape(dE, -1)
        return ((d[1:] * d[:-1]) @ outer).reshape(-1, dE, dE)
    a, b = _su2_steps(params, t_mid, tau)
    e = sector.lift(*_su2_mul(a[1:], b[1:], a[:-1], b[:-1]))
    e = (e.reshape(-1, dE) @ P).reshape(e.shape)
    return np.tensordot(P.conj().T, e, (1, 1)).transpose(1, 0, 2)


def _chain_product(T, scratch):
    """Ordered products T[:, m-1] ... T[:, 0] of the stacks T, shaped
    (blocks, m, D, D) and C-contiguous, by pairwise reduction along axis 1
    (depth log2 m).  The levels are written alternately into scratch (room
    for blocks * m // 2 matrices) and over T itself, so a level allocates
    nothing; an odd member waits in a carry that later members join from
    the left.  Returns a new (blocks, D, D) array."""
    nb, D = T.shape[0], T.shape[-1]
    bufs = (scratch, T.reshape(-1, D, D))
    carry = None
    while T.shape[1] > 1:
        if T.shape[1] % 2:
            carry = T[:, -1].copy() if carry is None else carry @ T[:, -1]
        h = T.shape[1] // 2
        out = bufs[0][:nb * h].reshape(nb, h, D, D)
        T = np.matmul(T[:, 1:2 * h:2], T[:, :2 * h:2], out=out)
        bufs = bufs[::-1]
    return T[:, 0].copy() if carry is None else carry @ T[:, 0]


def _midpoints(t_start, dt, k0, k1):
    return t_start + np.arange(k0, k1) * dt + dt / 2


def _sample_steps(k0, k1, n):
    """The steps of [k0, k1) after which a stroke of n steps is sampled:
    every SAMPLE_EVERY-th and the last."""
    k = np.arange(k0, k1)
    return k[((k + 1) % SAMPLE_EVERY == 0) | (k == n - 1)].tolist()


def _free_evolve(y, eps, t):
    """exp(-i H_S t) Psi, H_S = diag(eps) on the system axis, stacked over t."""
    return y * np.exp(-1j * np.multiply.outer(t, eps))[:, None, None]


def _split_evolve(sector, system, params, schedule, dt, y, t_start, n, sample):
    """Strang splitting exp(-iA dt/2) exp(-iB dt) exp(-iA dt/2) with
    A = H_E(t_mid) (x) I + I (x) H_S and B = g(t_mid) V_R (x) V_S, for n
    steps from t_start; sample(ks, X) per chunk with the stack X (reused)
    of the factors after its steps ks, every SAMPLE_EVERY-th and the last.
    Returns the final factor; the caller's factor y is left unchanged.

    Between steps the factor is held in the eigenbasis P_r (x) P_s of
    V_R (x) V_S, where exp(-iB dt) is a phase u_k and the half steps of
    two adjacent steps fuse into one engine rotation E_k and one system
    rotation S.  The grid and the E_k are built one chunk of GRID_CHUNK
    steps at a time, the u_k once per distinct g in it (g is constant on a
    plateau and zero on its tails).  Each step is unitary to rounding; the
    scheme is second order in dt.

    A composite of dim D = dE dS above CHAIN_DIM is stepped in place on
    the factor and one buffer: after u_0 a step k is E_{k-1} on the engine
    axis, then S^T diag(u_k[a]) on the system axis, batched over the
    engine levels a (E and S commute) and rebuilt only where g changes.  A
    smaller composite is overhead-bound when stepped, so its steps are
    multiplied instead: the step operators
    T_k = diag(u_k) (E_{k-1} (x) S), with T_0 = diag(u_0), are built as
    D x D matrices, each block of steps between two samples is reduced to
    one propagator by pairwise products (_chain_product), and the factor,
    held as a D x r matrix, takes one GEMM per block.

    A free sector (V_R = 0, the spin-0 block) exchanges nothing with the
    system and only H_S acts on it, so it is not stepped: its factor at
    step k is y exp(-i eps (k + 1) dt) on the system axis, taken at the
    same steps in one pass.
    """
    vs_vals, P_s = system.eigensystem
    eps = system.energies
    if sector.free:
        ks = _sample_steps(0, n, n)
        x = _free_evolve(y, eps, np.add(ks, 1) * dt)
        sample(ks, x)
        return x[-1]
    P_r, dE, dS = sector.vr_vecs, sector.dim, system.dim
    D = dE * dS
    in_blocks = D <= CHAIN_DIM
    rs = np.multiply.outer(sector.vr_vals, vs_vals)
    s_half = np.exp(-1j * eps * dt / 2)
    s_in = P_s.conj().T * s_half            # P_s^dag exp(-i H_S dt/2)
    s_out = s_half[:, None] * P_s           # exp(-i H_S dt/2) P_s
    s_step = s_in @ s_out
    # the factor, its buffer, and the stack of a chunk's samples
    y0, y, buf = y, _aligned(y.shape), _aligned(y.shape)
    stack = _aligned((GRID_CHUNK // SAMPLE_EVERY, *y.shape))
    e_in = P_r.conj().T @ _engine_steps(sector, params, _midpoints(t_start, dt, 0, 1), dt / 2)[0]
    _rotate(y0, e_in, s_in, buf, y)
    if in_blocks:
        z = y.transpose(0, 2, 1).reshape(D, -1)     # (engine, system) x rank
        T = np.empty((GRID_CHUNK, D, D), complex)   # T[k - k0] holds T_k
        T[0] = np.eye(D)                            # at step 0, which no step precedes
        scratch = np.empty((GRID_CHUNK // 2, D, D), complex)
    else:
        folded = _aligned((dE, dS, dS))
        y_e, buf_e = y.reshape(dE, -1), buf.reshape(dE, -1)
    for k0 in range(0, n, GRID_CHUNK):
        k1 = min(k0 + GRID_CHUNK, n)
        lo = max(k0 - 1, 0)
        t_mid = _midpoints(t_start, dt, lo, k1)
        e_step = _fused_engine_steps(sector, params, t_mid, dt / 2)     # E_lo .. E_{k1-2}
        ks = _sample_steps(k0, k1, n)
        e_out = _engine_steps(sector, params, t_mid[np.subtract(ks, lo)], dt / 2) @ P_r
        g, inv = np.unique(g_of_t(schedule, t_mid[k0 - lo:]), return_inverse=True)
        u = np.exp(-1j * dt * np.multiply.outer(g, rs))[:, :, None]    # (distinct g, dE, 1, dS)
        if in_blocks:
            # chunks start on a sample boundary, so the chunk is whole blocks
            # but for the stroke's last, which identities pad
            steps, nb = k1 - k0, -(-(k1 - k0) // SAMPLE_EVERY)
            np.multiply(e_step[:, :, None, :, None], s_step[:, None, :],
                        out=T[steps - len(e_step):steps].reshape(-1, dE, dS, dE, dS))
            T[:steps] *= u[inv].reshape(steps, D, 1)
            T[steps:nb * SAMPLE_EVERY] = np.eye(D)
            blocks = T[:nb * SAMPLE_EVERY].reshape(nb, SAMPLE_EVERY, D, D)
            for j, prop in enumerate(_chain_product(blocks, scratch)):
                z = prop @ z
                _rotate(z.reshape(dE, dS, -1).transpose(0, 2, 1), e_out[j], s_out, buf, stack[j])
        else:
            inv = inv.tolist()
            if k0 == 0:
                np.multiply(y, u[inv[0]], out=y)        # u_0, which no rotation precedes
            first, last = max(k0, 1), None
            for j, k_sample in enumerate(ks):
                for k in range(first, k_sample + 1):
                    if inv[k - k0] != last:
                        last = inv[k - k0]
                        np.multiply(s_step.T, u[last], out=folded)  # S^T diag(u_k[a])
                    np.matmul(e_step[k - 1 - lo], y_e, out=buf_e)
                    np.matmul(buf, folded, out=y)
                _rotate(y, e_out[j], s_out, buf, stack[j])
                first = k_sample + 1
        sample(ks, stack[:len(ks)])
    return stack[len(ks) - 1]


# ---------------------------------------------------------------------------
# step-size rule and diagnostics
# ---------------------------------------------------------------------------

def _step_count(duration: float, cap: float) -> int:
    """The fewest steps of at most cap that span duration (at least one)."""
    n = duration / cap
    if not math.isfinite(n):
        raise ConfigError(f"a span of {duration} in steps of at most {cap:.3e} takes "
                          "more steps than a float can count")
    return max(1, int(math.ceil(n)))


def default_dt_cap(params: EngineParams, system: ExternalSystem) -> float:
    """min(0.01 / E_max, 0.01 / omega_eff), the accuracy cap of PropagatorConfig."""
    cap = 0.01 / params.energy_scale
    return min(cap, 0.01 / system.max_gap) if system.max_gap > 0 else cap


def _resolve_dt(params, system, config, duration):
    cap = default_dt_cap(params, system)
    if config.dt is not None:
        if config.dt > cap * (1 + 1e-9):
            raise ConfigError(
                f"dt={config.dt} exceeds the accuracy cap {cap:.3e} "
                "(min(0.01/E_max, 0.01/omega))"
            )
        cap = config.dt
    n = _step_count(duration, cap)
    return duration / n, n


@dataclass
class _Diag:
    trace_drift: float = field(init=False, default=0.0)
    herm_drift: float = field(init=False, default=0.0)
    isometry_drift: float = field(init=False, default=0.0)
    unitarity_residual: float = field(init=False, default=0.0)
    leakage: float = field(init=False, default=0.0)
    dropped_weight: float = field(init=False, default=0.0)
    extra: dict = field(default_factory=dict)

    def merge_states(self, X, w, tr0, isometry):
        """Fold in a stack X of sampled factors, whose columns are off the
        isometry by at most `isometry`; returns their reduced system states."""
        red = _reduced_system(X, w)
        trace = np.trace(red, axis1=1, axis2=2).real
        self.trace_drift = max(self.trace_drift, float(np.max(np.abs(trace - tr0))))
        herm = np.abs(red - red.conj().swapaxes(1, 2))
        self.herm_drift = max(self.herm_drift, float(np.max(herm)))
        self.isometry_drift = max(self.isometry_drift, isometry)
        return red

    def as_dict(self, extra=None):
        health = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "extra"}
        return {**health, **self.extra, **(extra or {})}


def _merged(diags, X, members):
    """(run, multiplicity, trace, reduced system states) for each member
    (run, multiplicity, weights, trace, columns) of the stack X of sampled
    factors, folded into the run's diagnostics.  Runs that share columns
    share their isometry drift, taken once."""
    drift = {}
    for i, mult, w, tr0, cols in members:
        x = X[:, :, cols]
        if cols.start not in drift:
            # each sample's factor Psi as a (dE dS) x r matrix
            drift[cols.start] = _isometry_drift(
                np.swapaxes(x, 2, 3).reshape(len(x), -1, x.shape[2]))
        yield i, mult, tr0, diags[i].merge_states(x, w, tr0, drift[cols.start])


def _reduced_leakage(sigma_s: np.ndarray) -> float:
    pops = np.real(np.diagonal(sigma_s, axis1=-2, axis2=-1))
    return float(pops[..., -2:].sum(-1).max()) if pops.shape[-1] >= 2 else 0.0


# ---------------------------------------------------------------------------
# engine-only propagators (impulse path, adiabaticity witness).  H_E =
# 2 Omega Sz + 2 Delta Sx is linear in su(2): each engine propagator is the
# lift of a 2x2 matrix [[a, -b*], [b, a*]] (ascending m), kept as (a, b)
# ---------------------------------------------------------------------------

def _su2_steps(params, t_mid, dt):
    """(a, b) of the steps exp(-i dt (Omega(t) sigma_z + Delta sigma_x)) at
    the times t_mid (Delta > 0)."""
    omega = params.omega(t_mid)
    E = np.hypot(omega, params.Delta)
    s = np.sin(E * dt) / E
    return np.cos(E * dt) + 1j * omega * s, -1j * params.Delta * s


def _su2_y(chi):
    """(a, b) of the y-rotation exp(-i chi sigma_y / 2)."""
    return np.cos(chi / 2), -np.sin(chi / 2)


def _su2_mul(a1, b1, a0, b0):
    """(a, b) of the product u1 u0."""
    return a1 * a0 - b1.conj() * b0, b1 * a0 + a1.conj() * b0


def _padded(x, size, fill):
    """x padded along its last axis to `size` with the constant `fill`."""
    out = np.full((*x.shape[:-1], size), fill, x.dtype)
    out[..., :x.shape[-1]] = x
    return out


def _su2_chain(a, b):
    """Ordered product u_n ... u_1 of the steps (a, b) along their last
    axis, by pairwise reduction (depth log2 n).  The steps are padded once
    with identities to the next power of two; a product with an exact
    identity is exact."""
    size = 1 << (a.shape[-1] - 1).bit_length()
    a, b = _padded(a, size, 1), _padded(b, size, 0)
    while a.shape[-1] > 1:
        a, b = _su2_mul(a[..., 1::2], b[..., 1::2], a[..., ::2], b[..., ::2])
    return a[..., 0], b[..., 0]


def _engine_chain(params, t0, t, dt_cap):
    """(a, b, n): the engine's SU(2) propagator from the stroke start t0 to
    t, as the ordered product of n midpoint steps, or, for Delta = 0, as
    the closed-form phase (n = 0)."""
    if params.Delta == 0.0:
        return np.exp(0.5j * phase_integral(params, t, t0)), 0j, 0
    n = _step_count(t - t0, dt_cap)
    dt = (t - t0) / n
    return (*_su2_chain(*_su2_steps(params, _midpoints(t0, dt, 0, n), dt)), n)


def adiabaticity_witness(params: EngineParams) -> float:
    """Max over stroke times and levels of 1 - |<m,theta_t|psi_m(t)>|^2
    for the bare engine (g = 0), starting each stroke in its
    instantaneous eigenbasis.  Small values certify the adiabatic layer.

    The state u_t is sampled after the steps k = 0, every, 2 every, ...
    and the last (every = n // 64), from the products of the blocks
    between samples.  The overlaps are the diagonal of the lift of
    w_t = r_t^dag u_t r_0, r_t the y-rotation by theta_t + pi/2 that
    carries the Sz basis onto the eigenbasis.
    """
    if params.Delta == 0.0:
        return 0.0
    sector = _spin_sector(params.N, 1.0)
    cap = 0.01 / params.energy_scale
    worst = 0.0
    for t0, t_end in ((0.0, params.T / 2), (params.T / 2, params.T)):
        n = _step_count(t_end - t0, cap)
        dt = (t_end - t0) / n
        every = max(1, n // 64)
        a, b = _su2_steps(params, _midpoints(t0, dt, 0, n), dt)
        m = -(-(n - 1) // every)        # blocks after step 0, the last padded with identities
        u = [(a[0], b[0])]
        for block in zip(*_su2_chain(_padded(a[1:], m * every, 1).reshape(m, every),
                                     _padded(b[1:], m * every, 0).reshape(m, every))):
            u.append(_su2_mul(*block, *u[-1]))
        k = np.minimum(np.arange(m + 1) * every, n - 1)
        t = np.minimum(t0 + (k + 1) * dt, t_end)
        ra, rb = _su2_y(params.theta(t) + math.pi / 2)
        r0 = _su2_y(params.start_values[t0].theta + math.pi / 2)
        w = _su2_mul(ra, -rb, *_su2_mul(*np.array(u).T, *r0))    # (ra, -rb) is r_t^dag
        overlaps = np.abs(np.diagonal(sector.lift(*w), axis1=-2, axis2=-1)) ** 2
        worst = max(worst, float(np.max(1 - overlaps)))
    return worst


# ---------------------------------------------------------------------------
# the cycle
# ---------------------------------------------------------------------------

def run_cycle(
    params: EngineParams,
    schedule: CouplingSchedule,
    system: ExternalSystem,
    statistics: Statistics,
    config: PropagatorConfig = None,
) -> CycleResult:
    """Propagate the full Otto cycle of engines of the given statistics
    and measure the system energy.

    (i) engines thermal at beta_c, system in its ground state;
    (ii) stroke 1 under H_E(t) + g_C(t) V_R (x) V_S + H_S;
    (iii) replacement-map thermalization at T/2; (iv) stroke 2;
    (v) p_i from the diagonal of the reduced system state at T.
    Impulse schedules take the engine's free evolution and the kick in
    closed form per spin block; smooth schedules are stepped.
    """
    return run_cycles(params, schedule, system, (statistics,), config)[0]


def run_cycles(
    params: EngineParams,
    schedule: CouplingSchedule,
    system: ExternalSystem,
    statistics: tuple = (Statistics.BOSE, Statistics.DISTINGUISHABLE),
    config: PropagatorConfig = None,
) -> list:
    """run_cycle for each of `statistics`, one CycleResult each, with
    every distinct spin block propagated once per stroke.

    A block held by several runs (the top spin j = N/2 of Bose and
    distinguishable engines) evolves under one Hamiltonian with one dt, so
    its factor is built once: runs whose sigma_S are equal share its
    columns (every run in stroke 1, where sigma_S is the ground state, and
    Bose and distinguishable throughout at N = 1), and runs whose sigma_S
    differ stack theirs.  The health diagnostics of each run are taken on
    its own columns.
    """
    stats = [Statistics(s) for s in statistics]
    config = config or PropagatorConfig()
    check_schedule_cycle(params, schedule)
    runs = [_build_sectors(params, s) for s in stats]
    run = _run_impulse if isinstance(schedule, Impulse) else _run_smooth
    outs = run(params, schedule, system, runs, config)
    return [_cycle_result(system, s, sectors, *out) for s, sectors, out in zip(stats, runs, outs)]


def _cycle_result(system, stats, sectors, sigma_s, diag, energies) -> CycleResult:
    pops = np.real(np.diag(sigma_s))
    diag.leakage = max(diag.leakage, _reduced_leakage(sigma_s))
    if diag.unitarity_residual > UNITARITY_TOL:
        raise PropagationError(
            f"unitarity drift {diag.unitarity_residual:.3e} exceeds tol "
            f"{UNITARITY_TOL:.1e}; diagnostics: {diag.as_dict()}"
        )
    if diag.leakage > LEAKAGE_TOL:
        raise PropagationError(
            f"truncation leakage {diag.leakage:.3e} > {LEAKAGE_TOL:.1e}; "
            f"enlarge the system dim above {system.dim}"
        )
    p = {i: max(0.0, min(1.0, float(pops[i]))) for i in range(1, system.dim)}
    record = WorkRecord(statistics=stats, method=METHOD_NUMERICAL, p_excite=p,
                        energies=tuple(system.energies))
    sigma_s = (sigma_s + sigma_s.conj().T) / 2
    sigma_s /= np.trace(sigma_s).real
    eigmin = float(np.linalg.eigvalsh(sigma_s)[0])
    if eigmin < STATE_EIGMIN_TOL:
        raise PropagationError(f"final system state has negative eigenvalue {eigmin:.3e}")
    return CycleResult(
        work=record,
        final_state=sigma_s,
        per_stroke_energies=energies,
        diagnostics=diag.as_dict({
            "system_dim": system.dim,
            "sectors": [[s.dim, int(s.mult)] for s in sectors],
        }),
    )


def _system_energy(sigma_s, system) -> float:
    return float(np.real(np.diag(sigma_s)) @ system.energies)


def _run_impulse(params, schedule, system, runs, config):
    """(sigma_S, diagnostics, energies) per run: the engine chain up to the
    kick is taken once, each distinct block's U = P_r^dag L R once, and their
    kicked system vectors in one stacked evaluation (_kicked_vectors)."""
    t1 = schedule.t1
    half = params.T / 2
    in_first = t1 < half
    t0, beta = (0.0, params.beta_c) if in_first else (half, params.beta_h)
    a, b, n = _engine_chain(params, t0, t1, _resolve_dt(params, system, config, half)[0])
    tilts = {}
    gibbs = [_sector_thermal(sectors, params, t0, beta, tilts) for sectors in runs]
    distinct = {s.key: (s, R) for sectors, blocks in zip(runs, gibbs)
                for s, (R, _) in zip(sectors, blocks)}
    kicked = {k: (s.vr_vals, s.vr_vecs.conj().T @ s.lift(a, b) @ R)
              for k, (s, R) in distinct.items()}
    phi, drifts = _kicked_vectors(*zip(*kicked.values()), *system.eigensystem, schedule.g)
    drift, out = dict(zip(kicked, drifts)), []
    for sectors, blocks in zip(runs, gibbs):
        diag = _Diag(extra={"dt": (t1 - t0) / n if n else None, "n_engine_steps": n})
        held = {s.key: s.mult * (np.abs(kicked[s.key][1]) ** 2 @ lam)
                for s, (_, lam) in zip(sectors, blocks)}
        w = np.concatenate([held.get(k, np.zeros(len(r))) for k, (r, _) in kicked.items()])
        # the Gibbs blocks of a run share one normalisation: unit trace
        sigma_s = diag.merge_states(phi[None], w, 1.0, max(drift[s.key] for s in sectors))[0]
        diag.unitarity_residual = max(s.unitarity_residual for s in sectors)
        # free evolution after the kick (and the reset, if the kick came
        # first) leaves the measured diagonal of sigma_S unchanged.
        e_final = _system_energy(sigma_s, system)
        energies = [{"t": 0.0, "system_energy": 0.0},
                    {"t": half, "system_energy": e_final if in_first else 0.0},
                    {"t": params.T, "system_energy": e_final}]
        out.append((sigma_s, diag, energies))
    return out


def _run_smooth(params, schedule, system, runs, config):
    """(sigma_S, diagnostics, energies) per run.  Each stroke propagates,
    per distinct block (_shared_blocks), the factor of rho_E (x) sigma_S
    (rank dE per distinct sigma_S in stroke 1, where sigma_S is the ground
    state)."""
    half = params.T / 2
    dS = system.dim
    dt, n_steps = _resolve_dt(params, system, config, half)
    sigma_s = np.zeros((dS, dS), dtype=complex)
    sigma_s[0, 0] = 1.0
    sigmas = [sigma_s] * len(runs)
    diags = [_Diag() for _ in runs]
    energies = [[{"t": 0.0, "system_energy": 0.0}] for _ in runs]
    eps = system.energies
    vs_residual = _isometry_drift(system.eigensystem[1])
    trace_rows = [{} for _ in runs]
    ranks = [[] for _ in runs]
    walls = []
    for t_start, beta in ((0.0, params.beta_c), (half, params.beta_h)):
        wall = time.perf_counter()
        # one factor per distinct sigma_S: stroke 1 has one ground state for all runs
        made = {id(s): _system_factor(s) for s in {id(s): s for s in sigmas}.values()}
        factors = []
        for i, sigma_s in enumerate(sigmas):
            mu, W, dropped = made[id(sigma_s)]
            diags[i].dropped_weight += dropped
            factors.append((mu, W))
            ranks[i].append([])
        sigmas = [np.zeros((dS, dS), dtype=complex) for _ in runs]
        for sector, y, members in _shared_blocks(runs, factors, params, t_start, beta):

            def sample(ks, X, members=members):
                for i, mult, tr0, red in _merged(diags, X, members):
                    diags[i].leakage = max(diags[i].leakage,
                                           _reduced_leakage(red) / max(tr0, 1e-300))
                    if config.collect_trace:
                        pops = np.real(np.diagonal(red, axis1=1, axis2=2))
                        rows = mult * np.stack([pops.sum(1), pops[:, -2:].sum(1), pops @ eps], 1)
                        for k, row in zip(ks, rows):
                            t = round(t_start + (k + 1) * dt, 12)
                            trace_rows[i][t] = trace_rows[i].get(t, 0) + row

            y = _split_evolve(sector, system, params, schedule, dt, y, t_start, n_steps, sample)
            residual = max(vs_residual, sector.unitarity_residual)
            for i, mult, w, _, cols in members:
                diags[i].unitarity_residual = max(diags[i].unitarity_residual, residual)
                ranks[i][-1].append(w.size)
                sigmas[i] += mult * _reduced_system(y[:, cols], w)
        for i, sigma_s in enumerate(sigmas):
            diags[i].trace_drift = max(diags[i].trace_drift,
                                       abs(float(np.trace(sigma_s).real) - 1.0))
            sigmas[i] = (sigma_s + sigma_s.conj().T) / 2
            energies[i].append({"t": t_start + half,
                                "system_energy": _system_energy(sigmas[i], system)})
        walls.append(time.perf_counter() - wall)
    out = []
    for sectors, sigma_s, diag, rank, rows, energy in zip(runs, sigmas, diags, ranks,
                                                           trace_rows, energies):
        # a run's step counts are those of its own blocks, shared or not
        stepped = [s for s in sectors if not s.free]
        diag.extra = {"dt": dt, "n_steps_per_half": n_steps,
                      "split_steps": 2 * n_steps * len(stepped),
                      "block_steps": 2 * n_steps * sum(s.dim * dS <= CHAIN_DIM for s in stepped),
                      "stroke_wall_s": list(walls), "factor_rank": rank}
        if config.collect_trace:
            diag.extra["trace"] = [(t, *map(float, row)) for t, row in sorted(rows.items())]
        out.append((sigma_s, diag, energy))
    return out

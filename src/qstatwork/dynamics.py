"""Exact numerical propagation of the engine-system composite through the
Otto cycle, with impulse kicks, thermalization resets, and the two-point
energy measurement of the external system.

Distinguishable ensembles are propagated either on the genuine 2^N
product space or, by default, through the exact total-spin block
decomposition: the product Hamiltonian, coupling and thermal states are
all functions of total-spin operators, so the 2^N dynamics splits into
independent spin-j sectors with known multiplicities.  Block and full
propagation agree to rounding and the tests pin that equivalence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .analytics import METHOD_NUMERICAL, WorkRecord
from .errors import (
    ConfigError,
    InvalidSpaceError,
    PropagationError,
    ResourceLimitError,
)
from .hilbert import (
    Composite,
    DenseOperator,
    HOTruncated,
    QuantumState,
    _product_sum,
    _spin_xyz,
    thermal_state,
    trace_out_engine,
)
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

STEPPERS = ("split-midpoint", "expm-midpoint")
PRODUCT_MODES = ("blocked", "full")
DENSE_STEP_CAP = 700          # composite dim cap for the dense stepper
FULL_PRODUCT_CAP = 8          # largest N propagated on the genuine 2^N space
SAMPLE_EVERY = 50             # steps between state-health samples
LEAKAGE_TOL = 1e-6
UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class PropagatorConfig:
    """Propagation controls.

    dt = None derives the step from the rule
    dt <= min(0.01 / E_max, 0.01 / omega_eff) with E_max = N max_t E_t;
    an explicit dt above that cap is rejected.  product_mode selects, for
    distinguishable runs, the exact spin-block decomposition ("blocked")
    or the genuine 2^N space ("full", capped at N <= FULL_PRODUCT_CAP).
    """

    stepper: str = "split-midpoint"
    dt: float = None
    product_mode: str = "blocked"
    collect_trace: bool = False

    def __post_init__(self):
        if self.stepper not in STEPPERS:
            raise ConfigError(f"unknown stepper {self.stepper!r}; choose from {STEPPERS}")
        if self.product_mode not in PRODUCT_MODES:
            raise ConfigError(
                f"unknown product_mode {self.product_mode!r}; choose from {PRODUCT_MODES}"
            )
        if self.dt is not None and self.dt <= 0:
            raise ConfigError("dt must be positive")


@dataclass
class CycleResult:
    """Work record plus the final state and numerical health indicators."""

    work: WorkRecord
    final_state: QuantumState
    per_stroke_energies: list
    diagnostics: dict

    def to_dict(self, include_state: bool = False) -> dict:
        out = {
            "work": self.work.to_dict(),
            "per_stroke_energies": self.per_stroke_energies,
            "diagnostics": self.diagnostics,
        }
        if include_state:
            rho = self.final_state.rho
            out["final_state"] = {
                "space_dim": self.final_state.dim,
                "re": rho.real.tolist(),
                "im": rho.imag.tolist(),
            }
        return out


# ---------------------------------------------------------------------------
# sectors: one collective-spin block (or the genuine product space)
# ---------------------------------------------------------------------------

class _Sector:
    """One irreducible engine block: spin operators, rotation eigensystem,
    and the coupling operator V_R = 2 Sx."""

    def __init__(self, sx, sy, sz_diag, mult):
        self.sx = sx
        self.sz_diag = np.asarray(sz_diag, dtype=float)
        self.mult = float(mult)
        self.dim = sx.shape[0]
        mu, Q = np.linalg.eigh(sy)
        self.sy_vals = mu
        self.sy_vecs = Q
        self.v_r = 2 * sx.copy()
        r, P = np.linalg.eigh(self.v_r)
        self.vr_vals = r
        self.vr_vecs = P

    def tilted(self, chi: float, d: np.ndarray) -> np.ndarray:
        """(R d) R^dag with R = exp(-i chi Sy): the operator diagonal in the
        Sz basis with entries d, carried onto the basis tilted by chi."""
        Q = self.sy_vecs
        R = (Q * np.exp(-1j * chi * self.sy_vals)) @ Q.conj().T
        return (R * d) @ R.conj().T

    def engine_energies(self, E: float) -> np.ndarray:
        return 2 * E * self.sz_diag

    def unitarity_residual(self) -> float:
        r = 0.0
        for U in (self.sy_vecs, self.vr_vecs):
            r = max(r, float(np.max(np.abs(U.conj().T @ U - np.eye(self.dim)))))
        return r


def _spin_sector(n_eff: int, mult: float) -> _Sector:
    sx, sy, sz, m = _spin_xyz(n_eff)
    return _Sector(sx, sy, np.real(np.diag(sz)), mult)


def _full_sector(N: int) -> _Sector:
    sz = _product_sum(N, 2)
    return _Sector(_product_sum(N, 0), _product_sum(N, 1), np.real(np.diag(sz)), 1.0)


def _block_multiplicity(N: int, k: int) -> int:
    # multiplicity of total spin j = N/2 - k in (1/2)^(x N)
    out = math.comb(N, k)
    if k >= 1:
        out -= math.comb(N, k - 1)
    return out


def _build_sectors(params: EngineParams, statistics: Statistics, config: PropagatorConfig):
    N = params.N
    if statistics is Statistics.BOSE:
        return [_spin_sector(N, 1.0)]
    if config.product_mode == "full":
        if N > FULL_PRODUCT_CAP:
            raise ResourceLimitError(
                f"full product space for N={N} exceeds the cap "
                f"N <= {FULL_PRODUCT_CAP}"
            )
        return [_full_sector(N)]
    sectors = []
    for k in range(N // 2 + 1):
        n_eff = N - 2 * k
        sectors.append(_spin_sector(n_eff, _block_multiplicity(N, k)))
    return sectors


def _sector_thermal(sectors, params: EngineParams, t0: float, beta: float):
    """Per-sector thermal blocks with a common normalisation."""
    E0 = float(params.energy(t0))
    e_min = min(2 * E0 * s.sz_diag.min() for s in sectors)
    scale = max(1.0, abs(e_min))
    weights = []
    Z = 0.0
    for s in sectors:
        shifted = s.engine_energies(E0) - e_min
        if math.isinf(beta):
            w = (shifted <= 1e-10 * scale).astype(float)
        else:
            w = np.exp(-beta * shifted)
        weights.append(w)
        Z += s.mult * w.sum()
    chi = float(params.theta(t0)) + math.pi / 2
    blocks = []
    for s, w in zip(sectors, weights):
        if params.Delta == 0.0:
            rho = np.diag(w / Z).astype(complex)
        else:
            rho = s.tilted(chi, w / Z)
        blocks.append(rho)
    return blocks


# ---------------------------------------------------------------------------
# kron-structured primitives
# ---------------------------------------------------------------------------

def _apply_engine(rho, U, dE, dS):
    """(U (x) I) rho (U (x) I)^dag."""
    D = dE * dS
    X = (U @ rho.reshape(dE, dS * D)).reshape(D, D)
    Y = (U @ X.conj().T.reshape(dE, dS * D)).reshape(D, D)
    return Y.conj().T


def _apply_system(rho, U, dE, dS):
    """(I (x) U) rho (I (x) U)^dag."""
    D = dE * dS
    X = np.matmul(U[None, :, :], rho.reshape(dE, dS, D)).reshape(D, D)
    Y = np.matmul(U[None, :, :], X.conj().T.reshape(dE, dS, D)).reshape(D, D)
    return Y.conj().T


def _phase_sandwich(rho, u):
    """diag(u) rho diag(u)^dag for a phase vector u."""
    return (u[:, None] * rho) * u.conj()[None, :]


def _coupling_sandwich(rho, P_r, P_s, u, dE, dS):
    """exp(-i phi V_R (x) V_S) rho exp(+i phi V_R (x) V_S) from the
    eigenvectors P_r of V_R and P_s of V_S and the phase vector
    u = exp(-i phi r (x) s) over the eigenvalue pairs, raveled."""
    rho = _apply_engine(rho, P_r.conj().T, dE, dS)
    rho = _apply_system(rho, P_s.conj().T, dE, dS)
    rho = _phase_sandwich(rho, u)
    rho = _apply_system(rho, P_s, dE, dS)
    return _apply_engine(rho, P_r, dE, dS)


class _SplitStepper:
    """Strang splitting exp(-iA dt/2) exp(-iB dt) exp(-iA dt/2) with
    A = H_E(t_mid) (x) I + I (x) H_S and B = g(t_mid) V_R (x) V_S.

    Every factor is assembled from exact eigensystems, so each step is
    unitary to rounding; the scheme is second order in dt.
    """

    def __init__(self, sector: _Sector, system: ExternalSystem, params, schedule, dt):
        self.sector = sector
        self.params = params
        self.schedule = schedule
        self.dt = dt
        self.dE = sector.dim
        self.dS = system.dim
        self.eps = np.asarray(system.energies, dtype=float)
        self.u_sys_half = np.exp(-1j * self.eps * dt / 2)
        vs_vals, vs_vecs = np.linalg.eigh(system.matrix)
        self.vs_vals = vs_vals
        self.vs_vecs = vs_vecs
        self.rs_flat = np.multiply.outer(sector.vr_vals, vs_vals).ravel()
        self.delta = params.Delta

    def unitarity_residual(self) -> float:
        Q = self.vs_vecs
        r = float(np.max(np.abs(Q.conj().T @ Q - np.eye(self.dS))))
        return max(r, self.sector.unitarity_residual())

    def _engine_half(self, t_mid: float):
        if self.delta == 0.0:
            om = float(self.params.omega(t_mid))
            return np.exp(-1j * om * self.dt * self.sector.sz_diag), None
        E = float(self.params.energy(t_mid))
        chi = float(self.params.theta(t_mid)) + math.pi / 2
        return None, self.sector.tilted(chi, np.exp(-1j * E * self.dt * self.sector.sz_diag))

    def step(self, rho, t):
        t_mid = t + self.dt / 2
        diag_u, U_E = self._engine_half(t_mid)
        if diag_u is not None:
            u_half = np.multiply.outer(diag_u, self.u_sys_half).ravel()
            rho = _phase_sandwich(rho, u_half)
        else:
            rho = _apply_engine(rho, U_E, self.dE, self.dS)
            rho = _phase_sandwich(
                rho, np.multiply.outer(np.ones(self.dE), self.u_sys_half).ravel()
            )
        g = float(g_of_t(self.schedule, t_mid))
        if g != 0.0:
            rho = _coupling_sandwich(rho, self.sector.vr_vecs, self.vs_vecs,
                                     np.exp(-1j * g * self.dt * self.rs_flat), self.dE, self.dS)
        if diag_u is not None:
            rho = _phase_sandwich(rho, u_half)
        else:
            rho = _apply_engine(rho, U_E, self.dE, self.dS)
            rho = _phase_sandwich(
                rho, np.multiply.outer(np.ones(self.dE), self.u_sys_half).ravel()
            )
        return rho


class _DenseStepper:
    """Reference stepper: exact exponential of the full composite
    Hamiltonian at the step midpoint."""

    def __init__(self, sector, system, params, schedule, dt):
        self.sector = sector
        self.params = params
        self.schedule = schedule
        self.dt = dt
        self.dE, self.dS = sector.dim, system.dim
        if self.dE * self.dS > DENSE_STEP_CAP:
            raise ConfigError(
                f"dense stepper on dim {self.dE * self.dS} exceeds the cap "
                f"{DENSE_STEP_CAP}; use split-midpoint"
            )
        self.h_s = np.diag(np.asarray(system.energies, dtype=float)).astype(complex)
        self.v_s = system.matrix
        self.eyeE = np.eye(self.dE, dtype=complex)
        self.eyeS = np.eye(self.dS, dtype=complex)
        self.max_unitarity = 0.0

    def _h_full(self, t):
        p = self.params
        h_e = (
            2 * float(p.omega(t)) * np.diag(self.sector.sz_diag).astype(complex)
            + 2 * p.Delta * self.sector.sx
        )
        g = float(g_of_t(self.schedule, t))
        H = np.kron(h_e, self.eyeS) + np.kron(self.eyeE, self.h_s)
        if g != 0.0:
            H = H + g * np.kron(self.sector.v_r, self.v_s)
        return H

    def unitarity_residual(self) -> float:
        return self.max_unitarity

    def step(self, rho, t):
        U = scipy.linalg.expm(-1j * self.dt * self._h_full(t + self.dt / 2))
        res = float(np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))))
        self.max_unitarity = max(self.max_unitarity, res)
        return U @ rho @ U.conj().T


def _make_stepper(config, sector, system, params, schedule, dt):
    if config.stepper == "split-midpoint":
        return _SplitStepper(sector, system, params, schedule, dt)
    return _DenseStepper(sector, system, params, schedule, dt)


# ---------------------------------------------------------------------------
# step-size rule and diagnostics
# ---------------------------------------------------------------------------

def _engine_dt_cap(params: EngineParams) -> float:
    """0.01 / E_max with E_max = N max_t E_t, the engine half of the step rule."""
    e_max = params.N * max(float(params.energy(0.0)), float(params.energy(params.T / 2)))
    return 0.01 / e_max if e_max > 0 else math.inf


def default_dt_cap(params: EngineParams, system: ExternalSystem) -> float:
    gaps = np.diff(np.asarray(system.energies, dtype=float))
    w_eff = float(gaps.max()) if gaps.size else 0.0
    cap = _engine_dt_cap(params)
    if w_eff > 0:
        cap = min(cap, 0.01 / w_eff)
    if not math.isfinite(cap):
        cap = params.T / 100
    return cap


def _resolve_dt(params, system, config, duration):
    cap = default_dt_cap(params, system)
    if config.dt is not None:
        if config.dt > cap * (1 + 1e-9):
            raise ConfigError(
                f"dt={config.dt} exceeds the stability cap {cap:.3e} "
                "(min(0.01/E_max, 0.01/omega))"
            )
        cap = config.dt
    n = max(1, int(math.ceil(duration / cap)))
    return duration / n, n


class _Diag:
    def __init__(self):
        self.trace_drift = 0.0
        self.herm_drift = 0.0
        self.unitarity = 0.0
        self.leakage = 0.0
        self.extra = {}

    def merge_state(self, rho, tr0):
        self.trace_drift = max(self.trace_drift, abs(float(np.trace(rho).real) - tr0))
        self.herm_drift = max(self.herm_drift, float(np.max(np.abs(rho - rho.conj().T))))

    def as_dict(self, extra=None):
        out = {
            "trace_drift": self.trace_drift,
            "herm_drift": self.herm_drift,
            "unitarity_residual": self.unitarity,
            "leakage": self.leakage,
        }
        out.update(self.extra)
        if extra:
            out.update(extra)
        return out


def _reduced_leakage(sigma_s: np.ndarray) -> float:
    pops = np.real(np.diag(sigma_s))
    return float(pops[-2:].sum()) if pops.size >= 2 else 0.0


# ---------------------------------------------------------------------------
# engine-only propagators (impulse path, adiabaticity witness)
# ---------------------------------------------------------------------------

def _engine_propagator(sector, params, t_a, t_b, dt_cap, collect=None):
    """Unitary for the engine block alone from t_a to t_b within a stroke."""
    if t_b <= t_a:
        return np.eye(sector.dim, dtype=complex)
    t0 = params.stroke_start(t_a + 1e-15 * params.T)
    if params.Delta == 0.0:
        ph = phase_integral(params, t_b, t0) - phase_integral(params, t_a, t0)
        return np.diag(np.exp(-1j * ph * sector.sz_diag))
    n = max(1, int(math.ceil((t_b - t_a) / dt_cap)))
    dt = (t_b - t_a) / n
    U = np.eye(sector.dim, dtype=complex)
    for k in range(n):
        t_mid = t_a + (k + 0.5) * dt
        E = float(params.energy(t_mid))
        chi = float(params.theta(t_mid)) + math.pi / 2
        U = sector.tilted(chi, np.exp(-2j * E * dt * sector.sz_diag)) @ U
        if collect is not None and (k % collect[0] == 0 or k == n - 1):
            collect[1].append((t_a + (k + 1) * dt, U.copy()))
    return U


def adiabaticity_witness(params: EngineParams) -> float:
    """Max over stroke times and levels of 1 - |<m,theta_t|psi_m(t)>|^2
    for the bare engine (g = 0), starting each stroke in its
    instantaneous eigenbasis.  Small values certify the adiabatic layer.
    """
    from .hilbert import instantaneous_eigenbasis

    sector = _spin_sector(params.N, 1.0)
    if params.Delta == 0.0:
        return 0.0
    cap = _engine_dt_cap(params)
    worst = 0.0
    for t0, t_end in ((0.0, params.T / 2), (params.T / 2, params.T)):
        snaps = []
        n_est = max(1, int(math.ceil((t_end - t0) / cap)))
        _engine_propagator(
            sector, params, t0, t_end, cap, collect=(max(1, n_est // 64), snaps)
        )
        _, _, B0 = instantaneous_eigenbasis(params, t0, params.N)
        for t, U in snaps:
            _, _, Bt = instantaneous_eigenbasis(params, min(t, t_end), params.N)
            overlaps = np.abs(np.diag(Bt.matrix.conj().T @ U @ B0.matrix)) ** 2
            worst = max(worst, float(np.max(1 - overlaps)))
    return worst


# ---------------------------------------------------------------------------
# public composite-state operations
# ---------------------------------------------------------------------------

def _composite_dims(space) -> tuple[int, int]:
    if not isinstance(space, Composite):
        raise InvalidSpaceError("expected a state on a Composite space")
    return space.engine.dim, space.system.dim


def apply_impulse(state: QuantumState, g: float, V_R, V_S) -> QuantumState:
    """Exact finite kick exp(-i g V_R (x) V_S) on a composite state.

    The delta-pulse coupling integrates to this unitary.
    """
    dE, dS = _composite_dims(state.space)
    vr = V_R.matrix if isinstance(V_R, DenseOperator) else np.asarray(V_R, dtype=complex)
    vs = V_S.matrix if isinstance(V_S, DenseOperator) else np.asarray(V_S, dtype=complex)
    r, P_r = np.linalg.eigh(vr)
    s, P_s = np.linalg.eigh(vs)
    for Q in (P_r, P_s):
        res = float(np.max(np.abs(Q.conj().T @ Q - np.eye(Q.shape[0]))))
        if res > UNITARITY_TOL:
            raise PropagationError(f"kick eigenbasis not unitary: residual {res:.3e}")
    rho = _coupling_sandwich(state.rho, P_r, P_s,
                             np.exp(-1j * g * np.multiply.outer(r, s).ravel()), dE, dS)
    rho = (rho + rho.conj().T) / 2
    return QuantumState(state.space, rho)


def thermal_reset(state: QuantumState, H_E: DenseOperator, beta: float) -> QuantumState:
    """Instantaneous isochore: rho -> Gibbs(beta, H_E) (x) Tr_E[rho].

    The minimal channel that re-thermalizes the engines while keeping
    the system marginal, discarding engine-system correlations; the
    perturbative correlator factorizes across it exactly.
    """
    dE, dS = _composite_dims(state.space)
    if H_E.dim != dE:
        raise InvalidSpaceError("H_E dimension does not match the engine factor")
    sigma_s = trace_out_engine(state.rho, dE, dS)
    gibbs = thermal_state(H_E, beta).rho
    return QuantumState(state.space, np.kron(gibbs, sigma_s))


# ---------------------------------------------------------------------------
# the cycle
# ---------------------------------------------------------------------------

def run_cycle(
    params: EngineParams,
    schedule: CouplingSchedule,
    system: ExternalSystem,
    statistics: Statistics = None,
    config: PropagatorConfig = None,
) -> CycleResult:
    """Propagate the full Otto cycle and measure the system energy.

    (i) engines thermal at beta_c, system in its ground state;
    (ii) stroke 1 under H_E(t) + g_C(t) V_R (x) V_S + H_S;
    (iii) replacement-map thermalization at T/2; (iv) stroke 2;
    (v) p_i from the diagonal of the reduced system state at T.
    Impulse schedules use free factorized propagation plus the exact
    kick; smooth schedules are stepped.
    """
    stats = Statistics(statistics) if statistics is not None else params.statistics
    config = config or PropagatorConfig()
    check_schedule_cycle(params, schedule)
    sectors = _build_sectors(params, stats, config)
    if isinstance(schedule, Impulse):
        sigma_s, diag, energies = _run_impulse(params, schedule, system, sectors, config)
    else:
        sigma_s, diag, energies = _run_smooth(params, schedule, system, sectors, config)

    pops = np.real(np.diag(sigma_s))
    diag.leakage = max(diag.leakage, _reduced_leakage(sigma_s))
    if diag.unitarity > UNITARITY_TOL:
        raise PropagationError(
            f"unitarity drift {diag.unitarity:.3e} exceeds tol "
            f"{UNITARITY_TOL:.1e}; diagnostics: {diag.as_dict()}"
        )
    if diag.leakage > LEAKAGE_TOL:
        raise PropagationError(
            f"truncation leakage {diag.leakage:.3e} > {LEAKAGE_TOL:.1e}; "
            f"enlarge the system dim above {system.dim}"
        )
    p = {i: max(0.0, min(1.0, float(pops[i]))) for i in range(1, system.dim)}
    record = WorkRecord(
        avg_work=float(sum(system.energies[i] * pi for i, pi in p.items())),
        statistics=stats,
        method=METHOD_NUMERICAL,
        p_excite=p,
        energies=tuple(system.energies),
    )
    sigma_s = (sigma_s + sigma_s.conj().T) / 2
    sigma_s /= np.trace(sigma_s).real
    final = QuantumState(HOTruncated(system.dim), sigma_s)
    return CycleResult(
        work=record,
        final_state=final,
        per_stroke_energies=energies,
        diagnostics=diag.as_dict({"system_dim": system.dim}),
    )


def _system_energy(sigma_s, system) -> float:
    return float(np.real(np.diag(sigma_s)) @ np.asarray(system.energies))


def _run_impulse(params, schedule, system, sectors, config):
    diag = _Diag()
    t1 = schedule.t1
    half = params.T / 2
    dS = system.dim
    cap = _resolve_dt(params, system, config, half)[0]
    in_first = t1 < half
    t0, beta = (0.0, params.beta_c) if in_first else (half, params.beta_h)
    blocks = _sector_thermal(sectors, params, t0, beta)
    ground = np.zeros((dS, dS), dtype=complex)
    ground[0, 0] = 1.0
    sigma_s = np.zeros_like(ground)
    s_vals, s_vecs = np.linalg.eigh(system.matrix)
    for sector, rho_e in zip(sectors, blocks):
        diag.unitarity = max(diag.unitarity, sector.unitarity_residual())
        U = _engine_propagator(sector, params, t0, t1, cap)
        rho_e_t1 = U @ rho_e @ U.conj().T
        rho = np.kron(rho_e_t1, ground)
        tr0 = float(np.trace(rho).real)
        u = np.exp(-1j * schedule.g * np.multiply.outer(sector.vr_vals, s_vals).ravel())
        rho = _coupling_sandwich(rho, sector.vr_vecs, s_vecs, u, sector.dim, dS)
        diag.merge_state(rho, tr0)
        sigma_s += sector.mult * trace_out_engine(rho, sector.dim, dS)
    # free evolution after the kick (and the reset, if the kick came first)
    # leaves the measured diagonal of sigma_S unchanged.
    diag.trace_drift = max(diag.trace_drift, abs(float(np.trace(sigma_s).real) - 1.0))
    energies = [
        {"t": 0.0, "system_energy": 0.0},
        {"t": half, "system_energy": _system_energy(sigma_s if in_first else ground, system)},
        {"t": params.T, "system_energy": _system_energy(sigma_s, system)},
    ]
    return sigma_s, diag, energies


def _run_smooth(params, schedule, system, sectors, config):
    diag = _Diag()
    half = params.T / 2
    dS = system.dim
    dt, n_steps = _resolve_dt(params, system, config, half)
    ground = np.zeros((dS, dS), dtype=complex)
    ground[0, 0] = 1.0
    energies = [{"t": 0.0, "system_energy": 0.0}]

    eps = np.asarray(system.energies, dtype=float)
    trace_rows = {}

    def evolve_half(blocks, t_start, sigma_in):
        out_sigma = np.zeros((dS, dS), dtype=complex)
        for sector, rho_e in zip(sectors, blocks):
            stepper = _make_stepper(config, sector, system, params, schedule, dt)
            diag.unitarity = max(diag.unitarity, stepper.unitarity_residual())
            rho = np.kron(rho_e, sigma_in)
            tr0 = float(np.trace(rho).real)
            t = t_start
            for k in range(n_steps):
                rho = stepper.step(rho, t)
                t = t_start + (k + 1) * dt
                if (k + 1) % SAMPLE_EVERY == 0 or k == n_steps - 1:
                    diag.merge_state(rho, tr0)
                    red = trace_out_engine(rho, sector.dim, dS)
                    diag.leakage = max(
                        diag.leakage, _reduced_leakage(red) / max(tr0, 1e-300)
                    )
                    if config.collect_trace:
                        pops = np.real(np.diag(red))
                        row = trace_rows.setdefault(round(t, 12), [0.0, 0.0, 0.0])
                        row[0] += sector.mult * float(pops.sum())
                        row[1] += sector.mult * float(pops[-2:].sum())
                        row[2] += sector.mult * float(pops @ eps)
            diag.unitarity = max(diag.unitarity, stepper.unitarity_residual())
            out_sigma += sector.mult * trace_out_engine(rho, sector.dim, dS)
        return out_sigma

    blocks_c = _sector_thermal(sectors, params, 0.0, params.beta_c)
    sigma_s = evolve_half(blocks_c, 0.0, ground)
    tr = float(np.trace(sigma_s).real)
    diag.trace_drift = max(diag.trace_drift, abs(tr - 1.0))
    sigma_s = (sigma_s + sigma_s.conj().T) / 2
    energies.append({"t": half, "system_energy": _system_energy(sigma_s, system)})

    blocks_h = _sector_thermal(sectors, params, half, params.beta_h)
    sigma_s = evolve_half(blocks_h, half, sigma_s)
    diag.trace_drift = max(diag.trace_drift, abs(float(np.trace(sigma_s).real) - 1.0))
    energies.append({"t": params.T, "system_energy": _system_energy(sigma_s, system)})
    diag.extra = {"dt": dt, "n_steps_per_half": n_steps}
    if config.collect_trace:
        diag.extra["trace"] = [
            (t, row[0], row[1], row[2]) for t, row in sorted(trace_rows.items())
        ]
    return sigma_s, diag, energies

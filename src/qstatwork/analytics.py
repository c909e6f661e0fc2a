"""Closed-form perturbative layer: thermal moments, the thermal weights
of the two-time correlator, coupling amplitudes, excitation
probabilities, and the derived enhancement diagnostics.

Sign conventions.  The moment h(N, x) is stored as the raw thermal
first moment <m> <= 0 for x >= 0 (the printed forms elsewhere quote its
magnitude); F_sigma = <m^2> + sigma <m>.  One-time averages carry the
true thermal sign, <V_R^(I)(t)> = 2 cos(theta_t) <m>; every physical
output (probabilities, work) involves products of two such averages and
is independent of that overall sign choice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _quad
from .errors import (
    DomainError,
    InequalityViolationError,
    InvalidVariantError,
    PerturbativeValidityError,
)
from .protocols import (
    CouplingSchedule,
    EngineParams,
    ExternalSystem,
    Impulse,
    Sampled,
    SmoothPlateau,
    Statistics,
    check_schedule_cycle,
    g_of_t,
    phase_integral,
)

PERTURBATIVE_WARN = 0.1
PERTURBATIVE_FAIL = 0.5
# the violation a moment inequality may show, in units of max(1, N^2/4): the
# moments are of size N^2/4, so their rounding is too
INEQUALITY_TOL = 1e-12
METHOD_IMPULSE = "impulse-closed-form"
METHOD_GENERAL = "general-perturbative"
METHOD_NUMERICAL = "exact-numerical"
METHOD_FERMI_NUMERICAL = "fermi-numerical"


# ---------------------------------------------------------------------------
# thermal moments f = <m^2>, h = <m>
# ---------------------------------------------------------------------------
#
# Both moments derive from the partition sum Z = sinh((N+1)x)/sinh(x) of
# weights exp(-2 x m).  Evaluating the printed sinh ratios directly loses
# up to ~10 digits to cancellation at small x and overflows for
# x (N+1) > ~350, so we use the algebraically identical forms
#
#   h = -[(N+1) c((N+1)x) - c(x)] / 2,          c(a) = coth(a) - 1/a
#   f = [g(x) - (N+1)^2 g((N+1)x)] / 4 + h^2,   g(a) = csch^2(a) - 1/a^2
#
# whose 1/x poles cancel exactly.  f carries the error of g((N+1)x)
# amplified by (N+1)^2, and that of c((N+1)x) amplified by h, so c and g
# must be good to a few ulp wherever (N+1)x is small or moderate.  Taken
# as differences they are not at small a (g loses 25x at a = 0.35), so
# below a = 2 we use the all-positive series
#
#   S(a) = (sinh a - a) / a^3         = sum_k a^2k / (2k+3)!
#   C(a) = (a cosh a - sinh a) / a^3  = sum_k (2k+2) a^2k / (2k+3)!
#
# and sinh(a)/a = 1 + a^2 S:
#
#   c(a) = a C / (1 + a^2 S),    g(a) = -S (2 + a^2 S) / (1 + a^2 S)^2.
#
# From a = 2 on the differences are as accurate as the series, and a
# switch at a = 2 rather than higher measured best: over N = 8..99 with
# (N+1)x <= 8, f stays within 9e-16 relative of the 60-digit literal
# sinh form (1.3e-15 with the switch at a = 8.5).  Above a = 350, csch^2 a
# is replaced by csch^2 350 = 4e-304, which no longer moves g, so that
# sinh cannot overflow.
#
# S and C are summed by Horner's rule in elementwise products and sums,
# which round every element the same way whatever the shape or layout of
# x (a matmul over the term axis, or a power, can take a kernel that
# depends on the shape), so the moments do not depend on how x is shaped.

_SERIES_MAX = 2.0
# 12 terms: at a = 2 the first omitted term of S and of C is < 2e-17 of the
# sum; highest power first, for Horner's rule, S and C in one stacked pass
_SERIES_COEFFS = np.array([
    (1 / math.factorial(2 * k + 3), (2 * k + 2) / math.factorial(2 * k + 3))
    for k in reversed(range(12))
])


def _thermal_moments(N: int, x: np.ndarray):
    """(f, h) on an array of x >= 0; the callers validate N and x."""
    a = np.stack((x, (N + 1) * x))
    b = np.minimum(a, _SERIES_MAX)
    b2 = b * b
    # each step: two ufunc calls on equal shapes, the fastest numpy path
    b2s = np.stack((b2, b2))
    SC = np.zeros_like(b2s)
    for coeffs in np.repeat(_SERIES_COEFFS, b2.size, axis=1).reshape((-1,) + b2s.shape):
        SC *= b2s
        SC += coeffs
    S, C = SC
    q = 1.0 + b2 * S
    big = np.maximum(a, _SERIES_MAX)
    series = a < _SERIES_MAX
    c = np.where(series, b * C / q, 1.0 / np.tanh(big) - 1.0 / big)
    g = np.where(series, -S * (2.0 + b2 * S) / (q * q),
                 1.0 / np.sinh(np.minimum(big, 350.0)) ** 2 - 1.0 / big ** 2)
    h = -((N + 1) * c[1] - c[0]) / 2.0
    f = (g[0] - (N + 1) ** 2 * g[1]) / 4.0 + h * h
    return np.where(x == 0.0, N * (N + 2) / 12.0, f), h


def _moment_args(name: str, N, x):
    if N < 1 or int(N) != N:
        raise ValueError(f"{name} needs a positive integer N, got {N!r}")
    x_arr = np.asarray(x, dtype=float)
    if (x_arr < 0).any():
        raise DomainError(f"{name} requires x >= 0")
    return int(N), x_arr


def moment_f(N: int, x):
    """Second thermal moment <m^2> of the collective inversion.

    x = beta_{t0} E_{t0} >= 0; x = 0 returns the uniform-distribution
    value N(N+2)/12, x -> inf tends to N^2/4.  Stable for x N up to 1e3.
    """
    f, _ = _thermal_moments(*_moment_args("moment_f", N, x))
    return f if f.ndim else float(f)


def moment_h(N: int, x):
    """First thermal moment <m> (raw sign: <= 0 for x >= 0).

    h(1, x) = -tanh(x)/2 and h(N, 0) = 0; the printed closed form is the
    magnitude of this quantity.
    """
    _, h = _thermal_moments(*_moment_args("moment_h", N, x))
    return h if h.ndim else float(h)


def _x_at(params: EngineParams, t0: float) -> float:
    beta = params.beta_c if t0 == 0.0 else params.beta_h
    return beta * params.start_values[t0].energy


_STATISTICS = (Statistics.BOSE, Statistics.DISTINGUISHABLE)


def _weights(N: int, x, statistics: Statistics):
    """Thermal weights (a, D, L_plus, L_minus) of the stroke-start state at
    x = beta E, elementwise over N and x; the only place statistics enter
    the closed forms.  N is an integer or an integer array; with an array
    N, x must already have the shape of N * x.

    a is the one-time average <V_R^(I)>/cos(theta), D the cos^2(theta)
    weight of the second moment and L_sigma the weight of the ladder
    term exp(-i sigma phi).  Bose: a = 2h, D = 4f, L_sigma =
    j(j+1) - (f + sigma h) with j = N/2.  Distinguishable: a = -N tanh x,
    D = N + N(N-1) tanh^2 x, L_sigma = (N/2)(1 + sigma tanh x).  The two
    share no code, so their N = 1 equality compares two computations.
    """
    if Statistics(statistics) is Statistics.BOSE:
        f, h = _thermal_moments(N, np.asarray(x, dtype=float))
        j = N / 2
        return 2 * h, 4 * f, j * (j + 1) - (f + h), j * (j + 1) - (f - h)
    t = np.tanh(x)
    return -N * t, N + N * (N - 1) * t ** 2, (N / 2) * (1 + t), (N / 2) * (1 - t)


# ---------------------------------------------------------------------------
# coupling amplitudes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Amplitudes:
    """Protocol- and engine-state-dependent amplitudes of one coupled level.

    Its level is the caller's dict key or `i` argument.  c_plus/c_minus
    carry the ladder phase exp(+/- i phi(t, t0)); d is the phase-free piece
    proportional to cos(theta_t) and vanishes identically for Delta = 0.
    For `_amplitude_grid` each amplitude is an (engines, levels) array.
    `quadrature` is the work of the one quadrature behind them.
    """

    c_plus: complex
    c_minus: complex
    d: complex
    quadrature: _quad.QuadStats = _quad.QuadStats()


def _schedule_breakpoints(schedule, lo, hi):
    pts = []
    if isinstance(schedule, SmoothPlateau):
        for s in schedule.switch_times():
            for k in (-20.0, -5.0, -1.0, 0.0, 1.0, 5.0, 20.0):
                p = s + k / schedule.alpha
                if lo < p < hi:
                    pts.append(p)
    elif isinstance(schedule, Sampled):
        pts.extend(p for p in schedule.times if lo < p < hi)
    return pts


def _amplitude_grid(engines, schedule: CouplingSchedule, t0: float, eps, v) -> Amplitudes:
    """(engines, levels) amplitudes of levels with energies eps and nonzero
    couplings v = <k|V_S|0>, for engines sharing T, over the stroke from
    t0: one quadrature on panels shared by all, cut for the highest
    frequency eps_max + 2 E_max of any engine.  g(t) v exp(i eps t) is
    evaluated once per node set; each engine's stack of c~+ of every
    level, c~-, then d (none for Delta = 0) is contracted as it is built.
    Each component keeps its own acceptance (absolute tolerance 1e-14 |v|),
    so an engine's values do not depend on which others share its panels.
    """
    eps = np.asarray(eps, dtype=float)[:, None]
    v = np.asarray(v, dtype=complex)[:, None]
    m = eps.shape[0]
    lo, hi = t0, t0 + engines[0].T / 2
    e_max = max(e for p in engines for e in (p.start_values[lo].energy, float(p.energy(hi))))

    def stack(p, base, tt):
        # c~+ and c~- differ only in the sign of the ladder phase, and d
        # carries -cos(theta) in place of sin(theta) and the phase
        common = base * p.sin_theta(tt)
        ladder = np.exp(1j * phase_integral(p, tt, t0))
        out = np.empty((2 if p.Delta == 0.0 else 3, m, tt.size), complex)
        np.multiply(common, ladder, out=out[0])
        np.multiply(common, ladder.conj(), out=out[1])
        if p.Delta != 0.0:
            np.multiply(-base, p.cos_theta(tt), out=out[2])
        return out.reshape(-1, tt.size)

    def integrand(tt, contract):
        # each engine's (K21, G10) pair of every component of its stack
        base = g_of_t(schedule, tt) * v * np.exp(1j * eps * tt)
        out = np.zeros((len(engines), 3 * m, 2), complex)
        for p, row in zip(engines, out):
            est = contract(stack(p, base, tt))
            row[:len(est)] = est
        return out.reshape(-1, 3, m, 2)

    amps, stats = _quad.integrate_oscillatory(
        integrand, lo, hi, breakpoints=_schedule_breakpoints(schedule, lo, hi),
        max_freq=eps.max() + 2 * e_max, abs_tol=1e-14 * np.abs(v[:, 0]))
    return Amplitudes(*np.moveaxis(amps, 1, 0), quadrature=stats)


def _check_smooth(params: EngineParams, schedule: CouplingSchedule):
    if isinstance(schedule, Impulse):
        raise InvalidVariantError("impulse schedules have closed-form work; see impulse_work")
    check_schedule_cycle(params, schedule)


def _levels(params, schedule, system, levels, t0: float) -> list:
    """The amplitudes of coupled levels at t0, from a one-engine grid."""
    grid = _amplitude_grid([params], schedule, t0, system.energies[levels],
                           system.V_S[levels, 0])
    return [Amplitudes(*(complex(a[0, k]) for a in (grid.c_plus, grid.c_minus, grid.d)),
                       quadrature=grid.quadrature) for k in range(len(levels))]


def compute_amplitudes(
    params: EngineParams,
    schedule: CouplingSchedule,
    system: ExternalSystem,
    i: int,
    t0: float,
) -> Amplitudes:
    """Quadrature of the three amplitude integrals over one stroke: the
    one-engine, one-level call of `_amplitude_grid`.

    The adiabatic phase for linear sweeps is evaluated in closed form
    (asinh antiderivative); oscillation-aware panels keep the integrand
    resolved, and they are halved until the K21 and G10 estimates agree
    to `_quad.REL_TOL`.
    """
    _check_smooth(params, schedule)
    if not (1 <= i < system.dim):
        raise DomainError(f"level index i must be in [1, {system.dim - 1}], got {i}")
    if t0 not in (0.0, params.T / 2):
        raise DomainError(f"t0 must be 0 or T/2, got {t0}")
    if system.V_S[i, 0] == 0:
        return Amplitudes(c_plus=0j, c_minus=0j, d=0j)
    return _levels(params, schedule, system, [i], t0)[0]


# ---------------------------------------------------------------------------
# excitation probabilities and work records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkRecord:
    """Excitation probabilities and run metadata.

    p_excite maps excited-level index to probability, each in [0, 1];
    `avg_work` is derived from them.
    """

    statistics: Statistics
    method: str
    p_excite: dict
    energies: tuple
    enhancement_ratio: float = None
    flags: tuple = ()

    def __post_init__(self):
        for i, p in self.p_excite.items():
            if not -1e-12 <= p <= 1 + 1e-12:
                raise ValueError(f"probability p_{i} = {p} outside [0, 1]")

    @functools.cached_property
    def avg_work(self) -> float:
        """<w> = sum_i eps_i p_i over the stored energies."""
        return float(sum(self.energies[i] * p for i, p in self.p_excite.items()))

    def to_dict(self) -> dict:
        return {
            "avg_work": self.avg_work,
            "statistics": Statistics(self.statistics).value,
            "method": self.method,
            "p_excite": {str(k): v for k, v in self.p_excite.items()},
            "energies": list(self.energies),
            "enhancement_ratio": self.enhancement_ratio,
            "flags": list(self.flags),
        }


def _perturbative_record(p: dict, statistics: Statistics, method: str, system) -> WorkRecord:
    """The record of leading-order probabilities p: refused unless their total is
    below PERTURBATIVE_FAIL (so an inf or NaN total is), flagged from PERTURBATIVE_WARN on."""
    total = sum(p.values())
    if not total < PERTURBATIVE_FAIL:
        raise PerturbativeValidityError(
            f"total excitation {total:.3f} >= {PERTURBATIVE_FAIL}; the leading-order "
            "expansion is invalid here"
        )
    return WorkRecord(statistics=Statistics(statistics), method=method, p_excite=p,
                      energies=tuple(system.energies),
                      flags=("perturbative-validity",) if total >= PERTURBATIVE_WARN else ())


def impulse_second_moment(params: EngineParams, t1: float, statistics: Statistics) -> float:
    """<[V_R^(I)(t1)]^2> against the thermal state of the stroke holding t1:
    (L_plus + L_minus) sin^2(theta) + D cos^2(theta)."""
    x = _x_at(params, params.stroke_start(t1))
    _, D, L_plus, L_minus = _weights(params.N, x, statistics)
    sin2 = float(params.sin_theta(t1)) ** 2
    cos2 = float(params.cos_theta(t1)) ** 2
    return float((L_plus + L_minus) * sin2 + D * cos2)


def impulse_work(
    params: EngineParams,
    schedule: Impulse,
    system: ExternalSystem,
    statistics: Statistics,
) -> WorkRecord:
    """Average work for a delta-kick coupling at t1.

    <w_N> = g^2 <[V_R^(I)(t1)]^2> sum_{i != 0} eps_i |<i|V_S|0>|^2; for a
    harmonic system this reduces to omega g^2 times the second moment.
    """
    if not isinstance(schedule, Impulse):
        raise InvalidVariantError("impulse_work needs an Impulse schedule")
    check_schedule_cycle(params, schedule)
    kick = schedule.g * schedule.g * impulse_second_moment(params, schedule.t1, statistics)
    v0 = np.abs(system.V_S[:, 0]) ** 2
    p = {i: kick * float(v0[i]) for i in range(1, system.dim) if v0[i] > 0}
    return _perturbative_record(p, statistics, METHOD_IMPULSE, system)


def _probability(amps: tuple, w0: list, wh: list):
    """Excitation probability from the amplitudes at t0 = 0, T/2 and the
    weights (a, D, L_plus, L_minus) of `_weights` at (x_c, x_h):
    sum |d|^2 D + |c~+|^2 L_plus + |c~-|^2 L_minus + 2 Re[d(0) d*(T/2)] a_c a_h.
    A float, or an array over stacked amplitudes and weights broadcast
    together."""
    p = 0.0
    for amp, (_, D, L_plus, L_minus) in zip(amps, (w0, wh)):
        # products, not powers: a Python float's power raises on overflow
        p += abs(amp.d) * abs(amp.d) * D
        p += abs(amp.c_plus) * abs(amp.c_plus) * L_plus
        p += abs(amp.c_minus) * abs(amp.c_minus) * L_minus
    a0, ah = amps
    p = p + 2 * (a0.d * ah.d.conjugate()).real * w0[0] * wh[0]
    return p if np.ndim(p) else float(p)


def _stroke_weights(params: EngineParams, statistics: Statistics) -> list:
    """`_weights` at the two stroke starts, as the (w0, wh) of `_probability`."""
    x = np.array([_x_at(params, 0.0), _x_at(params, params.T / 2)])
    return np.array(_weights(params.N, x, statistics)).T.tolist()


def level_amplitudes(
    params: EngineParams,
    schedule: CouplingSchedule,
    system: ExternalSystem,
) -> dict:
    """Amplitudes (at t0 = 0, at t0 = T/2) of every level i the system
    couples to its ground state.

    All levels are integrated in one `_amplitude_grid` call per stroke
    start.  They depend on neither N, the statistics nor the bath
    temperatures, so one set serves every work record of the same drive,
    schedule and system (see `general_work`).
    """
    _check_smooth(params, schedule)
    levels = np.flatnonzero(system.V_S[1:, 0]) + 1
    if not levels.size:
        return {}
    return dict(zip(levels.tolist(), zip(*(_levels(params, schedule, system, levels, t0)
                                          for t0 in (0.0, params.T / 2)))))


def general_work(
    params: EngineParams,
    schedule: CouplingSchedule,
    system: ExternalSystem,
    statistics: Statistics,
    amplitudes: dict = None,
) -> WorkRecord:
    """The perturbative WorkRecord of every level a smooth coupling excites.

    Its leading-order p_i is assembled from |d|^2, |c~^pm|^2 and the cross
    term 2 Re[d(0) d*(T/2)] a_c a_h, weighted by the thermal weights at the
    two stroke starts; it reduces exactly to the Delta = 0 forms when
    cos(theta) vanishes.  `amplitudes` is the `level_amplitudes` of the
    same drive, schedule and system, computed here when not given.
    """
    if amplitudes is None:
        amplitudes = level_amplitudes(params, schedule, system)
    weights = _stroke_weights(params, statistics)
    p = {i: _probability(amps, *weights) for i, amps in amplitudes.items()}
    return _perturbative_record(p, statistics, METHOD_GENERAL, system)


def enhancement(
    params: EngineParams,
    schedule: CouplingSchedule,
    system: ExternalSystem,
    amplitudes: dict = None,
) -> tuple[float, WorkRecord, WorkRecord]:
    """Ratio E = <w>^indist / <w>^dist plus the two closed-form records.

    For a smooth schedule both records share one set of amplitudes:
    `amplitudes` (the `level_amplitudes` of the same drive, schedule and
    system) when given, else computed here once.
    """
    if isinstance(schedule, Impulse):
        rec_b, rec_d = (impulse_work(params, schedule, system, s)
                        for s in _STATISTICS)
    else:
        if amplitudes is None:
            amplitudes = level_amplitudes(params, schedule, system)
        rec_b, rec_d = (general_work(params, schedule, system, s, amplitudes)
                        for s in _STATISTICS)
    ratio = rec_b.avg_work / rec_d.avg_work
    return ratio, rec_b, rec_d


# ---------------------------------------------------------------------------
# enhancement-region map
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RegionMap:
    """Binary enhancement map over (N, Delta/Omega0, omega T), with the
    worst work of the two quadratures (one per stroke start) behind it."""

    N_values: tuple
    delta_over_omega0: np.ndarray
    omega_T: np.ndarray
    enhanced: np.ndarray      # bool, shape (nN, n_delta, n_omega)
    work_indist: np.ndarray
    work_dist: np.ndarray
    quadrature: _quad.QuadStats = _quad.QuadStats()

    def rows(self):
        for a, N in enumerate(self.N_values):
            for b, d in enumerate(self.delta_over_omega0):
                for c, wt in enumerate(self.omega_T):
                    yield d, wt, N, bool(self.enhanced[a, b, c])


def enhancement_region(
    base: EngineParams,
    delta_over_omega0,
    omega_T,
    N_values,
    g: float = 0.01,
    delta_t: float = 0.9,
    alpha_over_T: float = 2142.0,
    beta_c_E0: float = 2.0,
    beta_h_EH: float = 0.25,
) -> RegionMap:
    """Map the region where indistinguishable engines win (ties count as
    enhancement, consistent with exact equality at N = 1).

    Each cell couples the engines to an oscillator of frequency
    omega = omega T / T through its level 1 (<1|V_S|0> = 1); an omega T
    that is not positive and finite raises ValueError.  The amplitudes
    depend only on the (Delta, omega) cell and the thermal weights only
    on (Delta, N).  The amplitudes of every Delta row and omega come from
    one `_amplitude_grid` per stroke start, on panels shared by all rows
    and cut for the widest row's E_max; each row's stack is contracted as
    it is built.  The weights and probabilities of each (N, statistics)
    are then evaluated once over the whole Delta x omega T grid.
    `quadrature` is the worst work of the two quadratures.
    """
    deltas = np.asarray(delta_over_omega0, dtype=float)
    omts = np.asarray(omega_T, dtype=float)
    N_values = tuple(int(n) for n in N_values)
    if min(N_values, default=1) < 1:
        raise ValueError(f"N values must be positive integers, got {N_values}")
    if not np.all((omts > 0) & (omts < math.inf)):
        raise ValueError("omega T must be positive and finite at every grid point")
    w_ind, w_dist = np.zeros((2, len(N_values), deltas.size, omts.size))
    half = base.T / 2
    omegas = omts / base.T
    schedule = SmoothPlateau(g=g, delta_t=delta_t, alpha=alpha_over_T / base.T, T=base.T)
    engines = [EngineParams(N=1, Omega0=base.Omega0, Delta=delta, v=base.v, T=base.T,
                            beta_c=beta_c_E0 / math.hypot(base.Omega0, delta),
                            beta_h=beta_h_EH / math.hypot(base.omega_half, delta))
               for delta in (deltas * base.Omega0).tolist()]
    # an empty grid leaves no amplitudes to compute
    amps = [_amplitude_grid(engines, schedule, t0, omegas, np.ones(omts.size))
            for t0 in (0.0, half)] if engines and omts.size else []
    if amps:
        # x = beta E at t0 = 0, T/2 does not depend on N or omega: an
        # (n_delta, 1) column per stroke start that broadcasts over omega
        x = np.array([[[_x_at(p, t0)] for p in engines] for t0 in (0.0, half)])
        for a, N in enumerate(N_values):
            for out, s in zip((w_ind, w_dist), _STATISTICS):
                out[a] = omegas * _probability(amps, *np.swapaxes(_weights(N, x, s), 0, 1))
    scale = np.maximum(np.abs(w_ind), np.abs(w_dist))
    enhanced = w_ind - w_dist >= -1e-12 * scale
    return RegionMap(
        N_values=N_values,
        delta_over_omega0=deltas,
        omega_T=omts,
        enhanced=enhanced,
        work_indist=w_ind,
        work_dist=w_dist,
        quadrature=_quad.worst(amp.quadrature for amp in amps),
    )


# ---------------------------------------------------------------------------
# Delta = 0 second moment and inequality battery
# ---------------------------------------------------------------------------

def delta0_second_moment(N: int, x) -> float:
    """Exact Delta = 0 second moment L_plus + L_minus = N(N+2)/2 - 2 f(N, x)
    of Bose engines."""
    _, _, L_plus, L_minus = _weights(*_moment_args("delta0_second_moment", N, x), Statistics.BOSE)
    m = L_plus + L_minus
    return m if m.ndim else float(m)


@dataclass(frozen=True, eq=False)
class InequalityReport:
    """Worst-case margins of the four moment inequalities over a grid."""

    N_max: int
    x_grid: np.ndarray
    margins: dict          # name -> (worst margin, witness)
    n1_equality_defect: float


def _margins(N, bose: tuple, dist: tuple, a_y, a_dy) -> dict:
    """The four margins from the Bose and distinguishable weights at x and
    the one-time averages a(y), a_d(y) of the cross term."""
    a, D, L_plus, L_minus = bose
    a_d, D_d, L_plus_d, L_minus_d = dist
    return {
        "f_upper_bound": (N * N - D) / 4,
        "f_lower_vs_dist": D - D_d,
        "ladder_vs_dist": np.stack((L_plus - L_plus_d, L_minus - L_minus_d)),
        "cross_term": a * a_y - a_d * a_dy,
    }


def inequality_margins(N, x, y) -> dict:
    """Margins of the four moment inequalities at N: each Bose weight of
    `_weights` minus its distinguishable counterpart, and (N^2 - D)/4 =
    N^2/4 - f for the upper bound.  All are >= 0 and vanish at N = 1.
    N (a positive integer or an integer array), x and y broadcast
    together; only the cross term a(x) a(y) reads y, so a column x and a
    row y give it on the grid x by y.  The ladder margin stacks
    sigma = +1, -1 on a new leading axis."""
    bose, dist = (_weights(N, x, s) for s in _STATISTICS)
    a_y, a_dy = (_weights(N, y, s)[0] for s in _STATISTICS)
    return _margins(N, bose, dist, a_y, a_dy)


def verify_inequalities(N_max: int, x_grid) -> InequalityReport:
    """Check the moment bounds underpinning every enhancement statement.

    For all N <= N_max, x (and pairs x, y) in the grid:
      f <= N^2/4;  4f >= N + N(N-1) tanh^2 x;
      N/2(N/2+1) - F_sigma >= (N/2)(1 + sigma tanh x);
      4 h(x) h(y) >= N^2 tanh(x) tanh(y).
    Any violation beyond INEQUALITY_TOL max(1, N^2/4) raises with the (N, x)
    witness.  The weights of every N come from one `_weights` call per
    statistics over an (N_max, n_x, 1) grid; the margins, the cross term
    on the x by x grid among them, are then formed from each N's slice,
    in order of N.
    """
    if N_max < 2:
        raise ValueError("N_max must be >= 2")
    x = np.asarray(x_grid, dtype=float)
    if np.any(x <= 0):
        raise DomainError("inequality grid must have x > 0")
    Ns = np.arange(1, N_max + 1)[:, None, None]
    bose, dist = (np.array(_weights(Ns, np.broadcast_to(x[:, None], (N_max, x.size, 1)), s))
                  for s in _STATISTICS)
    worst = {}
    n1_defect = 0.0
    for N in range(1, N_max + 1):
        scale = max(1.0, N * N / 4.0)
        b, d = bose[:, N - 1], dist[:, N - 1]
        margins = _margins(N, b, d, b[0].T, d[0].T)
        for name, vals in margins.items():
            k = int(np.argmin(vals))
            m = float(vals.flat[k])
            if name == "cross_term":
                wit = (N, float(x[k // x.size]), float(x[k % x.size]))
            else:
                wit = (N, float(x[k % x.size]))
            if m < -INEQUALITY_TOL * scale:
                raise InequalityViolationError(
                    f"{name} violated by {m:.3e} at witness {wit}", witness=wit
                )
            if name not in worst or m < worst[name][0]:
                worst[name] = (m, wit)
        if N == 1:
            n1_defect = max(float(np.max(np.abs(v))) for v in margins.values())
    return InequalityReport(
        N_max=N_max, x_grid=x, margins=worst, n1_equality_defect=n1_defect
    )

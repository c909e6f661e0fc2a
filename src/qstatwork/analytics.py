"""Closed-form perturbative layer: thermal moments, correlators,
coupling amplitudes, excitation probabilities, and the derived
enhancement diagnostics.

Sign conventions.  The moment h(N, x) is stored as the raw thermal
first moment <m> <= 0 for x >= 0 (the printed forms elsewhere quote its
magnitude); F_sigma = <m^2> + sigma <m>.  One-time averages carry the
true thermal sign, <V_R^(I)(t)> = 2 cos(theta_t) <m>; every physical
output (probabilities, work) involves products of two such averages and
is independent of that overall sign choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import mpmath
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
    harmonic_system,
    phase_integral,
)

PERTURBATIVE_WARN = 0.1
PERTURBATIVE_FAIL = 0.5
METHOD_IMPULSE = "impulse-closed-form"
METHOD_GENERAL = "general-perturbative"
METHOD_NUMERICAL = "exact-numerical"
METHOD_FERMI = "fermi-closed-form"
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
# whose 1/x poles cancel exactly.  c and g get Taylor branches at small
# argument.  A residual amplification ~(N+1)^2 survives in f for large N
# at small (N+1)x; that band falls back to high-precision evaluation of
# the literal sinh form.

_C_COEFFS = (
    1.0 / 3.0,
    -1.0 / 45.0,
    2.0 / 945.0,
    -1.0 / 4725.0,
    2.0 / 93555.0,
    -1382.0 / 638512875.0,
    4.0 / 18243225.0,
)

_G_COEFFS = (
    -1.0 / 3.0,
    1.0 / 15.0,
    -2.0 / 189.0,
    1.0 / 675.0,
    -2.0 / 10395.0,
    15202.0 / 638512875.0,
    -52.0 / 18243225.0,
    3.332185e-07,
)

_SERIES_CUT = 0.35


def _coth_minus_inv(a: np.ndarray) -> np.ndarray:
    """c(a) = coth(a) - 1/a, stable down to a = 0."""
    a = np.asarray(a, dtype=float)
    out = np.empty_like(a)
    small = a < _SERIES_CUT
    s2 = a[small] ** 2
    # Horner over the odd series c = a (c0 + a^2 (c1 + ...))
    acc = np.zeros_like(s2)
    for coef in reversed(_C_COEFFS):
        acc = coef + s2 * acc
    out[small] = a[small] * acc
    big = ~small
    out[big] = 1.0 / np.tanh(a[big]) - 1.0 / a[big]
    return out


def _csch2_minus_inv2(a: np.ndarray) -> np.ndarray:
    """g(a) = csch^2(a) - 1/a^2, stable down to a = 0 and overflow-free."""
    a = np.asarray(a, dtype=float)
    out = np.empty_like(a)
    small = a < _SERIES_CUT
    s2 = a[small] ** 2
    acc = np.zeros_like(s2)
    for coef in reversed(_G_COEFFS):
        acc = coef + s2 * acc
    out[small] = acc
    mid = (~small) & (a < 350.0)
    out[mid] = 1.0 / np.sinh(a[mid]) ** 2 - 1.0 / a[mid] ** 2
    large = a >= 350.0
    out[large] = -1.0 / a[large] ** 2
    return out


def _moment_f_mp(N: int, x: float) -> float:
    """Literal sinh closed form at high precision (narrow fallback band)."""
    with mpmath.workdps(50):
        xm = mpmath.mpf(x)
        num = (
            N ** 2 * mpmath.sinh((N + 3) * xm)
            + (N + 2) ** 2 * mpmath.sinh((N - 1) * xm)
            - 2 * (N ** 2 + 2 * N - 2) * mpmath.sinh((N + 1) * xm)
        )
        den = 16 * mpmath.sinh((N + 1) * xm) * mpmath.sinh(xm) ** 2
        return float(num / den)


def moment_f(N: int, x):
    """Second thermal moment <m^2> of the collective inversion.

    x = beta_{t0} E_{t0} >= 0; x = 0 returns the uniform-distribution
    value N(N+2)/12, x -> inf tends to N^2/4.  Stable for x N up to 1e3.
    """
    if N < 1 or int(N) != N:
        raise ValueError(f"moment_f needs a positive integer N, got {N!r}")
    N = int(N)
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise DomainError("moment_f requires x >= 0")
    h = _moment_h_arr(N, x_arr)
    gx = _csch2_minus_inv2(x_arr)
    gNx = _csch2_minus_inv2((N + 1) * x_arr)
    out = (gx - (N + 1) ** 2 * gNx) / 4.0 + h * h
    out = np.where(x_arr == 0.0, N * (N + 2) / 12.0, out)
    # cancellation-amplified band: recompute pointwise at high precision
    band = (x_arr > 0) & ((N + 1) * x_arr <= 8.0) & (N >= 8)
    if np.any(band):
        flat = out.reshape(-1)
        for idx in np.flatnonzero(band.reshape(-1)):
            flat[idx] = _moment_f_mp(N, float(x_arr.reshape(-1)[idx]))
        out = flat.reshape(out.shape)
    return out if out.ndim else float(out)


def _moment_h_arr(N: int, x_arr: np.ndarray) -> np.ndarray:
    cx = _coth_minus_inv(x_arr)
    cNx = _coth_minus_inv((N + 1) * x_arr)
    return -((N + 1) * cNx - cx) / 2.0


def moment_h(N: int, x):
    """First thermal moment <m> (raw sign: <= 0 for x >= 0).

    h(1, x) = -tanh(x)/2 and h(N, 0) = 0; the printed closed form is the
    magnitude of this quantity.
    """
    if N < 1 or int(N) != N:
        raise ValueError(f"moment_h needs a positive integer N, got {N!r}")
    N = int(N)
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise DomainError("moment_h requires x >= 0")
    out = _moment_h_arr(N, x_arr)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class MomentSet:
    """f = <m^2>, h = <m> and the ladder combinations F_pm = f +/- h."""

    N: int
    x: float
    f: float
    h: float
    F_plus: float
    F_minus: float


def moments(N: int, x: float) -> MomentSet:
    f = moment_f(N, x)
    h = moment_h(N, x)
    return MomentSet(N=N, x=float(x), f=f, h=h, F_plus=f + h, F_minus=f - h)


def _x_at(params: EngineParams, t0: float) -> float:
    beta = params.beta_c if t0 == 0.0 else params.beta_h
    return beta * float(params.energy(t0))


def ladder_weight_indist(N: int, x: float, sigma: int) -> float:
    """Bracket N/2(N/2+1) - F_sigma multiplying |c~^sigma|^2 terms."""
    j = N / 2
    return j * (j + 1) - (moment_f(N, x) + sigma * moment_h(N, x))


def ladder_weight_dist(N: int, x: float, sigma: int) -> float:
    """Distinguishable bracket (N/2)(1 + sigma tanh x)."""
    return (N / 2) * (1 + sigma * math.tanh(x))


# ---------------------------------------------------------------------------
# adiabatic two-time correlators and one-time averages
# ---------------------------------------------------------------------------

class CorrelatorValue(NamedTuple):
    value: complex
    factorized: bool


def _check_same_stroke(params, t, t_prime, t0):
    half = params.T / 2
    s1, s2 = params.stroke_start(t), params.stroke_start(t_prime)
    if s1 != s2:
        return None
    if t0 is not None and t0 != s1:
        raise DomainError(f"t0={t0} does not match the stroke of t, t' (start {s1})")
    return s1


def correlator_indist(params: EngineParams, t: float, t_prime: float, t0: float = None) -> CorrelatorValue:
    """<V_R^(I)(t') V_R^(I)(t)> for N indistinguishable engines.

    Within one stroke this is the collective-spin autocorrelator built
    from f, F_pm and the adiabatic phase; across the thermalization at
    T/2 it factorizes into one-time averages (flag set).
    """
    start = _check_same_stroke(params, t, t_prime, t0)
    if start is None:
        a = single_avg(params, t_prime, params.stroke_start(t_prime), Statistics.BOSE)
        b = single_avg(params, t, params.stroke_start(t), Statistics.BOSE)
        return CorrelatorValue(complex(a * b), True)
    N = params.N
    x = _x_at(params, start)
    f = moment_f(N, x)
    h = moment_h(N, x)
    j = N / 2
    cos_t, cos_p = params.cos_theta(t), params.cos_theta(t_prime)
    sin_t, sin_p = params.sin_theta(t), params.sin_theta(t_prime)
    ph = phase_integral(params, t_prime, start) - phase_integral(params, t, start)
    val = 4 * cos_t * cos_p * f + 0j
    for sigma in (+1, -1):
        F = f + sigma * h
        val += sin_t * sin_p * np.exp(-1j * sigma * ph) * (j * (j + 1) - F)
    return CorrelatorValue(complex(val), False)


def correlator_dist(params: EngineParams, t: float, t_prime: float, t0: float = None) -> CorrelatorValue:
    """<V_R^(I)(t') V_R^(I)(t)> for N distinguishable engines."""
    start = _check_same_stroke(params, t, t_prime, t0)
    if start is None:
        a = single_avg(params, t_prime, params.stroke_start(t_prime), Statistics.DISTINGUISHABLE)
        b = single_avg(params, t, params.stroke_start(t), Statistics.DISTINGUISHABLE)
        return CorrelatorValue(complex(a * b), True)
    N = params.N
    x = _x_at(params, start)
    cos_t, cos_p = params.cos_theta(t), params.cos_theta(t_prime)
    sin_t, sin_p = params.sin_theta(t), params.sin_theta(t_prime)
    ph = phase_integral(params, t_prime, start) - phase_integral(params, t, start)
    tanh_x = math.tanh(x)
    val = cos_t * cos_p * (N + N * (N - 1) * tanh_x ** 2) + 0j
    for sigma in (+1, -1):
        val += (N / 2) * sin_t * sin_p / math.cosh(x) * np.exp(sigma * (1j * ph - x))
    return CorrelatorValue(complex(val), False)


def single_avg(params: EngineParams, t: float, t0: float, statistics: Statistics) -> float:
    """One-time average <V_R^(I)(t)> against the stroke-start thermal state.

    Returns the true signed thermal value 2 cos(theta_t) <m> (N <m_1>
    per atom in the distinguishable case); its magnitude is what the
    factorized forms quote.  See single_avg_as_printed for the literal
    second-moment variant.
    """
    x = _x_at(params, t0)
    cos_t = float(params.cos_theta(t))
    if Statistics(statistics) is Statistics.BOSE:
        return 2 * cos_t * moment_h(params.N, x)
    return 2 * params.N * cos_t * moment_h(1, x)


def single_avg_as_printed(params: EngineParams, t: float, t0: float, statistics: Statistics) -> float:
    """Literal printed variant (second moment / positive magnitude)."""
    x = _x_at(params, t0)
    cos_t = float(params.cos_theta(t))
    if Statistics(statistics) is Statistics.BOSE:
        return 2 * cos_t * moment_f(params.N, x)
    return params.N * cos_t * math.tanh(x)


# The first-moment variant is the one consistent with the exact
# Heisenberg-picture trace and with the factorized cross term; tests pin
# this choice against the matrix oracle.
SINGLE_AVG_VARIANT = "first_moment"


# ---------------------------------------------------------------------------
# coupling amplitudes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Amplitudes:
    """Protocol- and engine-state-dependent amplitudes for level i.

    c_plus/c_minus carry the ladder phase exp(+/- i phi(t, t0)); d is the
    phase-free piece proportional to cos(theta_t) and vanishes
    identically for Delta = 0.
    """

    i: int
    t0: float
    c_plus: complex
    c_minus: complex
    d: complex


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


def compute_amplitudes(
    params: EngineParams,
    schedule: CouplingSchedule,
    system: ExternalSystem,
    i: int,
    t0: float,
    rel_tol: float = 1e-10,
) -> Amplitudes:
    """Quadrature of the three amplitude integrals over one stroke.

    The adiabatic phase for linear sweeps is evaluated in closed form
    (asinh antiderivative); oscillation-aware panels keep the integrand
    resolved and the estimate is refined until it is stable to rel_tol.
    """
    if isinstance(schedule, Impulse):
        raise InvalidVariantError("impulse schedules have closed-form work; see impulse_work")
    check_schedule_cycle(params, schedule)
    if not (1 <= i < system.dim):
        raise DomainError(f"level index i must be in [1, {system.dim - 1}], got {i}")
    half = params.T / 2
    if t0 not in (0.0, half):
        raise DomainError(f"t0 must be 0 or T/2, got {t0}")
    v_i0 = complex(system.matrix[i, 0])
    if v_i0 == 0:
        return Amplitudes(i=i, t0=t0, c_plus=0j, c_minus=0j, d=0j)
    eps_i = float(system.energies[i])
    lo, hi = t0, t0 + half
    brk = _schedule_breakpoints(schedule, lo, hi)
    e_max = max(float(params.energy(lo)), float(params.energy(hi)))

    def base(tt):
        return g_of_t(schedule, tt) * v_i0 * np.exp(1j * eps_i * tt)

    def integrand_c(sign):
        def f(tt):
            return (
                base(tt)
                * params.sin_theta(tt)
                * np.exp(1j * sign * phase_integral(params, tt, t0))
            )
        return f

    def integrand_d(tt):
        return -base(tt) * params.cos_theta(tt)

    kw = dict(breakpoints=brk, rel_tol=rel_tol, abs_tol=1e-14 * abs(v_i0))
    c_plus = _quad.integrate_oscillatory(
        integrand_c(+1), lo, hi, max_freq=eps_i + 2 * e_max, **kw
    )
    c_minus = _quad.integrate_oscillatory(
        integrand_c(-1), lo, hi, max_freq=eps_i + 2 * e_max, **kw
    )
    if params.Delta == 0.0:
        d = 0j
    else:
        d = _quad.integrate_oscillatory(integrand_d, lo, hi, max_freq=eps_i, **kw)
    return Amplitudes(i=i, t0=t0, c_plus=c_plus, c_minus=c_minus, d=d)


# ---------------------------------------------------------------------------
# excitation probabilities and work records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkRecord:
    """Excitation probabilities, average work, and run metadata.

    p_excite maps excited-level index to probability (None when the
    operation has no level-resolved output, e.g. the isolated fermionic
    closed form); avg_work = sum_i eps_i p_i over the stored energies.
    """

    avg_work: float
    statistics: Statistics
    method: str
    p_excite: dict = None
    energies: tuple = None
    enhancement_ratio: float = None
    flags: tuple = ()

    def __post_init__(self):
        if self.p_excite is not None:
            if self.energies is None:
                raise ValueError("a level-resolved WorkRecord must carry energies")
            for i, p in self.p_excite.items():
                if p < -1e-12 or p > 1 + 1e-12:
                    raise ValueError(f"probability p_{i} = {p} outside [0, 1]")
            w = sum(self.energies[i] * p for i, p in self.p_excite.items())
            if abs(w - self.avg_work) > 1e-12 * max(1.0, abs(w)):
                raise ValueError("avg_work does not match sum eps_i p_i")

    def to_dict(self) -> dict:
        return {
            "avg_work": self.avg_work,
            "statistics": Statistics(self.statistics).value,
            "method": self.method,
            "p_excite": {str(k): v for k, v in (self.p_excite or {}).items()},
            "energies": list(self.energies) if self.energies is not None else None,
            "enhancement_ratio": self.enhancement_ratio,
            "flags": list(self.flags),
        }


def _validity_flags(p_sum: float, flags: tuple) -> tuple:
    if p_sum >= PERTURBATIVE_FAIL:
        raise PerturbativeValidityError(
            f"total excitation {p_sum:.3f} >= {PERTURBATIVE_FAIL}; the leading-order "
            "expansion is invalid here"
        )
    if p_sum >= PERTURBATIVE_WARN:
        flags = flags + ("perturbative-validity",)
    return flags


def impulse_second_moment(params: EngineParams, t1: float, statistics: Statistics) -> float:
    """<[V_R^(I)(t1)]^2> against the thermal state of the stroke holding t1."""
    t0 = params.stroke_start(t1)
    x = _x_at(params, t0)
    N = params.N
    sin2 = float(params.sin_theta(t1)) ** 2
    cos2 = float(params.cos_theta(t1)) ** 2
    if Statistics(statistics) is Statistics.BOSE:
        f = moment_f(N, x)
        return (N * (N + 2) / 2 - 2 * f) * sin2 + 4 * f * cos2
    tanh_x = math.tanh(x)
    return N * sin2 + (N + N * (N - 1) * tanh_x ** 2) * cos2


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
    second = impulse_second_moment(params, schedule.t1, statistics)
    v0 = np.abs(system.matrix[:, 0]) ** 2
    p = {i: schedule.g ** 2 * second * float(v0[i]) for i in range(1, system.dim) if v0[i] > 0}
    work = float(sum(system.energies[i] * pi for i, pi in p.items()))
    flags = _validity_flags(sum(p.values()), ())
    return WorkRecord(
        avg_work=work,
        statistics=Statistics(statistics),
        method=METHOD_IMPULSE,
        p_excite=p,
        energies=tuple(system.energies),
        flags=flags,
    )


def general_probability(
    params: EngineParams,
    schedule: CouplingSchedule,
    system: ExternalSystem,
    statistics: Statistics,
    i: int,
    _amps: tuple = None,
) -> float:
    """Leading-order excitation probability of level i for a smooth coupling.

    Assembled from |d|^2, |c~^pm|^2 and the cross term
    8 Re[d(0) d*(T/2)] h h (indistinguishable) or its N^2 tanh tanh
    distinguishable counterpart; reduces exactly to the Delta = 0 forms
    when cos(theta) vanishes.
    """
    half = params.T / 2
    if _amps is None:
        a0 = compute_amplitudes(params, schedule, system, i, 0.0)
        ah = compute_amplitudes(params, schedule, system, i, half)
    else:
        a0, ah = _amps
    N = params.N
    x_c, x_h = _x_at(params, 0.0), _x_at(params, half)
    stats = Statistics(statistics)
    p = 0.0
    if stats is Statistics.BOSE:
        for amp, x in ((a0, x_c), (ah, x_h)):
            p += 4 * abs(amp.d) ** 2 * moment_f(N, x)
            p += abs(amp.c_plus) ** 2 * ladder_weight_indist(N, x, +1)
            p += abs(amp.c_minus) ** 2 * ladder_weight_indist(N, x, -1)
        p += 8 * (a0.d * np.conj(ah.d)).real * moment_h(N, x_c) * moment_h(N, x_h)
    else:
        for amp, x in ((a0, x_c), (ah, x_h)):
            tanh_x = math.tanh(x)
            p += abs(amp.d) ** 2 * (N + N * (N - 1) * tanh_x ** 2)
            p += abs(amp.c_plus) ** 2 * ladder_weight_dist(N, x, +1)
            p += abs(amp.c_minus) ** 2 * ladder_weight_dist(N, x, -1)
        p += (
            2 * (a0.d * np.conj(ah.d)).real
            * N ** 2 * math.tanh(x_c) * math.tanh(x_h)
        )
    return float(p)


def general_work(
    params: EngineParams,
    schedule: CouplingSchedule,
    system: ExternalSystem,
    statistics: Statistics,
) -> WorkRecord:
    """Assemble the perturbative WorkRecord over all coupled levels."""
    flags = ()
    if isinstance(schedule, SmoothPlateau) and schedule.midcycle_tail_fraction() > 1e-3:
        flags = ("thermalization-overlap",)
    p = {}
    for i in range(1, system.dim):
        if system.matrix[i, 0] == 0:
            continue
        p[i] = general_probability(params, schedule, system, statistics, i)
    work = float(sum(system.energies[i] * pi for i, pi in p.items()))
    flags = _validity_flags(sum(p.values()), flags)
    return WorkRecord(
        avg_work=work,
        statistics=Statistics(statistics),
        method=METHOD_GENERAL,
        p_excite=p,
        energies=tuple(system.energies),
        flags=flags,
    )


def enhancement(
    params: EngineParams,
    schedule: CouplingSchedule,
    system: ExternalSystem,
) -> tuple[float, WorkRecord, WorkRecord]:
    """Ratio E = <w>^indist / <w>^dist plus the two closed-form records."""
    runner = impulse_work if isinstance(schedule, Impulse) else general_work
    rec_b = runner(params, schedule, system, Statistics.BOSE)
    rec_d = runner(params, schedule, system, Statistics.DISTINGUISHABLE)
    ratio = rec_b.avg_work / rec_d.avg_work
    return ratio, rec_b, rec_d


# ---------------------------------------------------------------------------
# enhancement-region map
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RegionMap:
    """Binary enhancement map over (N, Delta/Omega0, omega T)."""

    N_values: tuple
    delta_over_omega0: np.ndarray
    omega_T: np.ndarray
    enhanced: np.ndarray      # bool, shape (nN, n_delta, n_omega)
    work_indist: np.ndarray
    work_dist: np.ndarray

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

    Amplitudes depend only on the (Delta, omega) cell, so each cell costs
    six quadratures and the N sweep reuses them through the bracket
    factors.
    """
    deltas = np.asarray(delta_over_omega0, dtype=float)
    omts = np.asarray(omega_T, dtype=float)
    N_values = tuple(int(n) for n in N_values)
    shape = (len(N_values), deltas.size, omts.size)
    w_ind = np.zeros(shape)
    w_dist = np.zeros(shape)
    half = base.T / 2
    for b, dfrac in enumerate(deltas):
        delta = dfrac * base.Omega0
        e0 = math.hypot(base.Omega0, delta)
        eh = math.hypot(base.omega_half, delta)
        params1 = EngineParams(
            N=1, Omega0=base.Omega0, Delta=delta, v=base.v, T=base.T,
            beta_c=beta_c_E0 / e0, beta_h=beta_h_EH / eh,
            gap_direction=base.gap_direction,
        )
        for c, omt in enumerate(omts):
            omega = omt / base.T
            system = harmonic_system(omega, 4)
            schedule = SmoothPlateau(g=g, delta_t=delta_t, alpha=alpha_over_T / base.T, T=base.T)
            a0 = compute_amplitudes(params1, schedule, system, 1, 0.0)
            ah = compute_amplitudes(params1, schedule, system, 1, half)
            for a, N in enumerate(N_values):
                pN = EngineParams(
                    N=N, Omega0=params1.Omega0, Delta=delta, v=base.v, T=base.T,
                    beta_c=params1.beta_c, beta_h=params1.beta_h,
                    gap_direction=base.gap_direction,
                )
                p_b = general_probability(pN, schedule, system, Statistics.BOSE, 1, _amps=(a0, ah))
                p_d = general_probability(pN, schedule, system, Statistics.DISTINGUISHABLE, 1, _amps=(a0, ah))
                w_ind[a, b, c] = omega * p_b
                w_dist[a, b, c] = omega * p_d
    scale = np.maximum(np.abs(w_ind), np.abs(w_dist))
    enhanced = w_ind - w_dist >= -1e-12 * scale
    return RegionMap(
        N_values=N_values,
        delta_over_omega0=deltas,
        omega_T=omts,
        enhanced=enhanced,
        work_indist=w_ind,
        work_dist=w_dist,
    )


# ---------------------------------------------------------------------------
# asymptotics and inequality battery
# ---------------------------------------------------------------------------

def quad_coeff_n2(x: float) -> float:
    """Small-N quadratic coefficient f1(x) = x (x coth x - 1) cosh x / sinh^3 x."""
    return x * (x / math.tanh(x) - 1) * math.cosh(x) / math.sinh(x) ** 3


def quad_coeff_n1(x: float) -> float:
    """Small-N linear coefficient f2(x) = 1 - (x coth x - 1)/sinh^2 x."""
    return 1 - (x / math.tanh(x) - 1) / math.sinh(x) ** 2


def delta0_second_moment(N: int, x) -> float:
    """Exact Delta = 0 second moment N(N+2)/2 - 2 f(N, x)."""
    return N * (N + 2) / 2 - 2 * moment_f(N, x)


@dataclass(frozen=True, eq=False)
class AsymptoticsReport:
    x: float
    N_values: np.ndarray
    exact: np.ndarray
    linear_asymptote: np.ndarray
    quadratic_form: np.ndarray
    crossover_N: float
    n1_quadratic_residual: float


def asymptotic_checks(params: EngineParams, N_max: int = 500) -> AsymptoticsReport:
    """Compare the exact Delta = 0 second moment against its large-N line
    coth(x) N - (coth(x) - 1) coth(x) and the small-N quadratic form.

    The quadratic form is a leading small-x approximation: at N = 1 its
    coefficient sum f1 + f2 tends to 1 only as x -> 0, and the residual
    at the working x is reported rather than asserted away.
    """
    if params.Delta != 0.0:
        raise DomainError("asymptotic_checks applies to Delta = 0 sweeps")
    x = _x_at(params, 0.0)
    coth = 1 / math.tanh(x)
    Ns = np.unique(np.concatenate([
        np.arange(1, min(41, N_max + 1)),
        np.geomspace(1, N_max, 40).astype(int),
    ]))
    exact = np.array([delta0_second_moment(int(n), x) for n in Ns])
    linear = coth * Ns - (coth - 1) * coth
    f1, f2 = quad_coeff_n2(x), quad_coeff_n1(x)
    quad = f1 * Ns.astype(float) ** 2 + f2 * Ns
    return AsymptoticsReport(
        x=x,
        N_values=Ns,
        exact=exact,
        linear_asymptote=linear,
        quadratic_form=quad,
        crossover_N=1.0 / x,
        n1_quadratic_residual=(f1 + f2) - 1.0,
    )


@dataclass(frozen=True, eq=False)
class InequalityReport:
    """Worst-case margins of the four moment inequalities over a grid."""

    N_max: int
    x_grid: np.ndarray
    margins: dict          # name -> (worst margin, witness)
    n1_equality_defect: float
    single_avg_variant: str = SINGLE_AVG_VARIANT


def verify_inequalities(N_max: int, x_grid, tol: float = 1e-12) -> InequalityReport:
    """Check the moment bounds underpinning every enhancement statement.

    For all N <= N_max, x (and pairs x, y) in the grid:
      f <= N^2/4;  4f >= N + N(N-1) tanh^2 x;
      N/2(N/2+1) - F_sigma >= (N/2)(1 + sigma tanh x);
      4 h(x) h(y) >= N^2 tanh(x) tanh(y).
    Any violation beyond `tol` raises with the (N, x) witness.
    """
    if N_max < 2:
        raise ValueError("N_max must be >= 2")
    x = np.asarray(x_grid, dtype=float)
    if np.any(x <= 0):
        raise DomainError("inequality grid must have x > 0")
    worst = {
        "f_upper_bound": (np.inf, None),
        "f_lower_vs_dist": (np.inf, None),
        "ladder_vs_dist": (np.inf, None),
        "cross_term": (np.inf, None),
    }
    tanh_x = np.tanh(x)
    n1_defect = 0.0
    for N in range(1, N_max + 1):
        f = np.atleast_1d(moment_f(N, x))
        h = np.atleast_1d(moment_h(N, x))
        j = N / 2
        scale = max(1.0, N * N / 4.0)
        checks = {
            "f_upper_bound": N ** 2 / 4 - f,
            "f_lower_vs_dist": 4 * f - (N + N * (N - 1) * tanh_x ** 2),
        }
        ladder = np.concatenate([
            (j * (j + 1) - (f + s * h)) - (N / 2) * (1 + s * tanh_x) for s in (+1, -1)
        ])
        checks["ladder_vs_dist"] = ladder
        cross = 4 * np.outer(h, h) - N ** 2 * np.outer(tanh_x, tanh_x)
        checks["cross_term"] = cross.ravel()
        for name, vals in checks.items():
            k = int(np.argmin(vals))
            m = float(vals[k])
            if m < -tol * scale:
                if name == "cross_term":
                    wit = (N, float(x[k // x.size]), float(x[k % x.size]))
                else:
                    wit = (N, float(x[k % x.size]))
                raise InequalityViolationError(
                    f"{name} violated by {m:.3e} at witness {wit}", witness=wit
                )
            if m < worst[name][0]:
                if name == "cross_term":
                    worst[name] = (m, (N, float(x[k // x.size]), float(x[k % x.size])))
                else:
                    worst[name] = (m, (N, float(x[k % x.size])))
        if N == 1:
            n1_defect = float(max(
                np.max(np.abs(checks["f_upper_bound"])),
                np.max(np.abs(checks["f_lower_vs_dist"])),
                np.max(np.abs(checks["ladder_vs_dist"])),
                np.max(np.abs(checks["cross_term"])),
            ))
    return InequalityReport(
        N_max=N_max, x_grid=x, margins=worst, n1_equality_defect=n1_defect
    )

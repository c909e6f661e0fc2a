"""Drive protocol, coupling schedules, and the driven external system.

The Otto-cycle gap sweep Omega(t) is piecewise linear over the two work
strokes [0, T/2] and [T/2, T]: Omega0 + v t in the first, at the signed
sweep rate v, and back along the same line in the second.  The
engine-system coupling g_C(t) is either an impulse (delta kick of area
g), a smooth tanh plateau, or a sampled profile.  Everything here is a
pure, reentrant description of the protocol; no dynamics.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Union

import numpy as np

from .errors import DegenerateHamiltonianError, DomainError, InvalidVariantError


class Statistics(str, enum.Enum):
    BOSE = "bose"
    DISTINGUISHABLE = "distinguishable"


# ---------------------------------------------------------------------------
# engine drive
# ---------------------------------------------------------------------------

class StrokeStart(NamedTuple):
    """The drive at a stroke start: Omega, E_t and theta_t."""

    omega: float
    energy: float
    theta: float


@dataclass(frozen=True)
class EngineParams:
    """Linear-sweep Otto drive for N two-level engines.

    Omega0 is the gap parameter at the cycle start, v the signed sweep
    rate of the first stroke (v < 0 runs Omega down), T the cycle
    period, beta_c/beta_h the cold/hot inverse temperatures.  Omega0,
    Delta, v and T must be finite, E_t = sqrt(Omega(t)^2 + Delta^2)
    positive except possibly at isolated stroke endpoints of a Delta = 0
    sweep, and N max_t E_t finite.
    """

    N: int
    Omega0: float
    Delta: float
    v: float
    T: float
    beta_c: float
    beta_h: float

    def __post_init__(self):
        if not float(self.N).is_integer() or self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N}")
        object.__setattr__(self, "N", int(self.N))
        for name in ("Omega0", "Delta", "v", "T"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.T <= 0:
            raise ValueError(f"cycle period T must be positive, got {self.T}")
        if self.Delta < 0:
            raise ValueError(f"Delta must be >= 0, got {self.Delta}")
        if not (self.beta_c > self.beta_h >= 0):
            raise ValueError(
                f"engine regime requires beta_c > beta_h >= 0, got "
                f"beta_c={self.beta_c}, beta_h={self.beta_h}"
            )
        self._check_gap_open()
        with np.errstate(over="ignore"):
            e_max = self.energy_scale
        if not math.isfinite(e_max):
            raise ValueError(f"the drive's energy scale N max(E_0, E_T/2) must be finite, "
                             f"got {e_max}")

    def _check_gap_open(self):
        # Omega runs between Omega(0) and Omega(T/2) in either stroke
        lo, hi = sorted((self.Omega0, self.omega_half))
        if self.Delta == 0 and (lo < 0 or hi == 0):
            raise DegenerateHamiltonianError(
                "a Delta = 0 sweep needs Omega >= 0 over the cycle, and Omega > 0 "
                "except at isolated endpoints"
            )

    @property
    def omega_half(self) -> float:
        """Omega(T/2), the gap parameter at the hot isochore."""
        return self.Omega0 + self.v * self.T / 2

    @cached_property
    def energy_scale(self) -> float:
        """E_max = N max_t E_t = N max(E_0, E_T/2), the scale of the step rule."""
        return self.N * max(start.energy for start in self.start_values.values())

    @cached_property
    def start_values(self) -> dict:
        """{t0: StrokeStart} at the stroke starts t0 = 0 and T/2: constants of
        the drive, taken once from `omega`, `energy` and `theta`."""
        return {t0: StrokeStart(self.omega(t0), float(self.energy(t0)), float(self.theta(t0)))
                for t0 in (0.0, self.T / 2)}

    def omega(self, t):
        """The piecewise-linear gap sweep, exactly linear within each stroke:
        Omega(t) = Omega0 + v t in the first, and back along the same line
        in the second, so that Omega(T) = Omega0 closes the drive cycle."""
        t_arr = np.asarray(t, dtype=float)
        if _outside(t_arr, -1e-12, self.T * (1 + 1e-12)):
            raise DomainError(f"t must lie in [0, T] = [0, {self.T}]")
        half = self.T / 2
        first = self.Omega0 + self.v * t_arr
        second = (self.Omega0 + self.v * half) - self.v * (t_arr - half)
        out = np.where(t_arr <= half, first, second)
        return out if out.ndim else float(out)

    def energy(self, t):
        """E_t = sqrt(Omega(t)^2 + Delta^2)."""
        return np.hypot(self.omega(t), self.Delta)

    def theta(self, t):
        """Mixing angle, tan(theta_t) = -Omega(t)/Delta."""
        return np.arctan2(-self.omega(t), self.Delta)

    def cos_theta(self, t):
        """cos(theta_t) = Delta / E_t, exactly zero for Delta = 0."""
        return self.Delta / self.energy(t)

    def sin_theta(self, t):
        """sin(theta_t) = -Omega(t) / E_t."""
        omega = self.omega(t)
        return -omega / np.hypot(omega, self.Delta)

    def stroke_start(self, t) -> float:
        """Start time of the stroke containing t (0 or T/2)."""
        return 0.0 if t < self.T / 2 else self.T / 2


def _outside(t: np.ndarray, lo: float, hi: float) -> bool:
    """Whether an entry of t lies outside [lo, hi] (NaN entries do not), by
    one range test; plain comparisons for 0-d t."""
    if t.ndim == 0:
        return float(t) < lo or float(t) > hi
    return t.size > 0 and (np.fmin.reduce(t, axis=None) < lo or np.fmax.reduce(t, axis=None) > hi)


def phase_integral(params: EngineParams, t, t0: float):
    """Adiabatic phase phi(t, t0) = int_{t0}^{t} 2 E_s ds, in closed form.

    For a linear sweep the antiderivative of sqrt(Omega^2 + Delta^2) is
    [Omega E + Delta^2 asinh(Omega/Delta)] / (2 slope); for Delta = 0 it
    reduces to the piecewise-quadratic integral of 2|Omega|.
    """
    t_arr = np.asarray(t, dtype=float)
    half = params.T / 2
    if t0 not in (0.0, half):
        raise DomainError(f"t0 must be a stroke start (0 or T/2), got {t0}")
    if _outside(t_arr, t0 - 1e-12, t0 + half + 1e-12):
        raise DomainError("phase_integral arguments must stay within one stroke")
    slope = params.v * (1.0 if t0 == 0.0 else -1.0)
    om0 = params.start_values[t0].omega
    om_t = om0 + slope * (t_arr - t0)
    delta = params.Delta
    if slope == 0.0:
        out = 2 * np.hypot(om0, delta) * (t_arr - t0)
    elif delta == 0.0:
        # Omega >= 0 over the whole cycle (validated), so |Omega| = Omega
        out = (om_t ** 2 - om0 ** 2) / slope
    else:
        def F(u):
            return u * np.hypot(u, delta) + delta ** 2 * np.arcsinh(u / delta)
        out = (F(om_t) - F(om0)) / slope
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# coupling schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Impulse:
    """Delta-kick coupling g_C(t) = g delta(t - t1)."""

    g: float
    t1: float
    T: float

    def __post_init__(self):
        if not (0.0 < self.t1 < self.T):
            raise ValueError(f"impulse time t1 must lie in (0, T), got {self.t1}")
        if abs(self.t1 - self.T / 2) <= 1e-12 * self.T:
            raise ValueError("impulse must not coincide with the thermalization at T/2")


PLATEAU_ENDPOINT_TOL = 1e-6


@dataclass(frozen=True)
class SmoothPlateau:
    """Twin tanh plateaus of area g each, one per work stroke.

    g_C(t) = g/(delta_t T) sum_{n=0,1} [tanh(alpha(t - t_on - nT/2))
                                        - tanh(alpha(t - t_off - nT/2))]
    with t_on = (1 - delta_t) T / 4 and t_off = t_on + delta_t T / 2 by
    default.  The tails must be off at t = 0 and t = T, which bounds the
    tail at T/2: each tanh pair of g_C(T/2) is one of g_C(0) or g_C(T), all
    with the sign of t_off - t_on, so |g_C(T/2)| <= |g_C(0)| + |g_C(T)|.
    """

    g: float
    delta_t: float
    alpha: float
    T: float
    t_on: float = None
    t_off: float = None

    def __post_init__(self):
        if not (0.0 < self.delta_t < 1.0):
            raise ValueError(f"delta_t must lie in (0, 1), got {self.delta_t}")
        if self.T <= 0 or self.alpha <= 0:
            raise ValueError("SmoothPlateau needs T > 0 and alpha > 0")
        if self.t_on is None:
            object.__setattr__(self, "t_on", (1 - self.delta_t) * self.T / 4)
        if self.t_off is None:
            object.__setattr__(self, "t_off", self.t_on + self.delta_t * self.T / 2)
        scale = abs(self.g) / (self.delta_t * self.T)
        if scale > 0:
            ends = max(abs(self._value(0.0)), abs(self._value(self.T)))
            if ends > PLATEAU_ENDPOINT_TOL * scale:
                raise ValueError(
                    f"coupling does not switch off at the cycle endpoints: "
                    f"|g_C(0 or T)| = {ends:.3e} > {PLATEAU_ENDPOINT_TOL:.0e} x g/(delta_t T)"
                )

    def _value(self, t):
        t = np.asarray(t, dtype=float)
        acc = np.zeros_like(t)
        for n in (0, 1):
            # (t - nT/2) first, so that the pairs of g_C(T/2) are bit-equal
            # to those of g_C(0) and g_C(T)
            acc = acc + (
                np.tanh(self.alpha * ((t - n * self.T / 2) - self.t_on))
                - np.tanh(self.alpha * ((t - n * self.T / 2) - self.t_off))
            )
        out = self.g / (self.delta_t * self.T) * acc
        return out if out.ndim else float(out)

    def switch_times(self):
        return tuple(
            s + n * self.T / 2 for n in (0, 1) for s in (self.t_on, self.t_off)
        )


@dataclass(frozen=True, eq=False)
class Sampled:
    """Coupling given on a time grid; evaluated by linear interpolation."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or times.size < 2:
            raise ValueError("Sampled needs matching 1-d times/values with >= 2 points")
        if np.any(np.diff(times) <= 0):
            raise ValueError("Sampled times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def T(self) -> float:
        return float(self.times[-1])


CouplingSchedule = Union[Impulse, SmoothPlateau, Sampled]


def check_schedule_cycle(params: EngineParams, schedule: CouplingSchedule):
    """Reject schedule/drive period mismatches early."""
    T = schedule.T
    if abs(T - params.T) > 1e-9 * params.T:
        raise DomainError(
            f"schedule period {T} does not match the drive cycle T = {params.T}"
        )


def g_of_t(schedule: CouplingSchedule, t):
    """Pointwise coupling value; impulses have none (use the kick)."""
    if isinstance(schedule, Impulse):
        raise InvalidVariantError(
            "an Impulse has no pointwise value; apply it as a finite kick"
        )
    if isinstance(schedule, SmoothPlateau):
        if _outside(np.asarray(t), -1e-12, schedule.T * (1 + 1e-12)):
            raise DomainError(f"t must lie in [0, T] = [0, {schedule.T}]")
        return schedule._value(t)
    if isinstance(schedule, Sampled):
        out = np.interp(np.asarray(t, dtype=float), schedule.times, schedule.values)
        return out if out.ndim else float(out)
    raise InvalidVariantError(f"unknown schedule type {type(schedule).__name__}")


def _trapezoid(y, x):
    fn = getattr(np, "trapezoid", None) or np.trapz
    return float(fn(y, x))


# ---------------------------------------------------------------------------
# external system
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ExternalSystem:
    """Driven system S: spectrum (ground energy pinned to zero) and the
    Hermitian coupling operator V_S, a complex array, both in the energy
    eigenbasis and read-only copies of the arrays given."""

    energies: np.ndarray
    V_S: np.ndarray

    def __post_init__(self):
        energies = np.array(self.energies, dtype=float)
        if energies.ndim != 1 or energies.size < 1:
            raise ValueError("energies must be a 1-d list of levels")
        if abs(energies[0]) > 1e-12:
            raise ValueError(f"ground-state energy must be zero, got {energies[0]}")
        if np.any(np.diff(energies) < -1e-12):
            raise ValueError("energies must be ascending")
        vs = np.array(self.V_S, dtype=complex)
        if vs.ndim != 2 or vs.shape[0] != vs.shape[1]:
            raise ValueError(f"V_S must be a square matrix, got shape {vs.shape}")
        if vs.shape[0] != energies.size:
            raise ValueError("V_S dimension does not match the energy list")
        defect = float(np.max(np.abs(vs - vs.conj().T)))
        if defect > 1e-12:
            raise ValueError(f"V_S not Hermitian: max |A - A^dag| = {defect:.3e}")
        energies.flags.writeable = vs.flags.writeable = False
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "V_S", vs)

    @property
    def dim(self) -> int:
        return self.energies.size

    @cached_property
    def eigensystem(self) -> tuple:
        """(s, P_s), the eigenvalues and eigenvectors of V_S, read-only."""
        s, P_s = np.linalg.eigh(self.V_S)
        s.flags.writeable = P_s.flags.writeable = False
        return s, P_s

    @cached_property
    def max_gap(self) -> float:
        """The largest gap between adjacent levels, 0 for a single level."""
        return float(np.diff(self.energies).max(initial=0.0))


def harmonic_system(omega: float, dim: int) -> ExternalSystem:
    """Truncated harmonic oscillator with V_S = c^dag + c.

    Levels are 0, omega, ..., (dim-1) omega and <i|V_S|i-1> = sqrt(i).
    """
    if dim < 2:
        raise ValueError(f"harmonic_system needs dim >= 2, got {dim}")
    if omega <= 0:
        raise ValueError(f"harmonic_system needs omega > 0, got {omega}")
    n = np.arange(dim)
    vs = np.zeros((dim, dim), dtype=complex)
    root = np.sqrt(np.arange(1, dim))
    vs[np.arange(1, dim), np.arange(dim - 1)] = root
    vs[np.arange(dim - 1), np.arange(1, dim)] = root
    return ExternalSystem(energies=omega * n, V_S=vs)

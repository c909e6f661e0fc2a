"""Fermionic multi-engine model: trapped two-level fermions with conserved
trap-level occupations, Pauli blocking, and the even/odd work parity law.

A trap level holds 0, 1, or 2 atoms; doubly occupied levels are frozen
by Pauli blocking and only singly occupied ("active") levels do work.
The occupation distribution is canonical in the centre-of-mass energy,
counting Fock states, so a configuration with a active levels carries a
degeneracy 2^a from the two internal states of each lone atom.  The
expected active count f_N then equals the work ratio
lambda = <w_N>/<w_1> independently of the bath temperatures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analytics import METHOD_FERMI, METHOD_FERMI_NUMERICAL, WorkRecord
from .errors import DomainError, ResourceLimitError
from .protocols import CouplingSchedule, EngineParams, ExternalSystem, Statistics

ENUMERATION_CAP = 10 ** 6
WEIGHT_PRUNE = 1e-14


@dataclass(frozen=True)
class FermiEnsemble:
    """N two-level fermions in a harmonic trap plus their internal engine.

    level_count bounds the trap truncation; with the default (None) it is
    chosen so the canonical weight beyond the kept levels is < 1e-10.
    """

    N: int
    omega_trap: float
    beta_com: float
    engine: EngineParams
    level_count: int = None

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if self.omega_trap <= 0:
            raise ValueError("omega_trap must be positive")
        if self.beta_com < 0:
            raise ValueError("beta_com must be >= 0 (inf allowed)")
        if self.level_count is None:
            object.__setattr__(self, "level_count", self._auto_levels())
        if self.level_count < self.N:
            raise ValueError(
                f"level_count {self.level_count} < N = {self.N}: not enough trap "
                "levels to host every atom singly"
            )

    def _auto_levels(self) -> int:
        base = (self.N + 1) // 2
        if math.isinf(self.beta_com):
            return max(self.N, base + 1)
        bw = self.beta_com * self.omega_trap
        if bw <= 0:
            raise DomainError("beta_com * omega_trap must be positive for finite T")
        quanta = int(math.ceil((34.0 + 0.7 * self.N) / bw))
        return max(self.N, base + quanta)

    @property
    def beta_omega(self) -> float:
        return self.beta_com * self.omega_trap

    @property
    def epsilon_c(self) -> float:
        return float(self.engine.energy(0.0))

    @property
    def epsilon_h(self) -> float:
        return float(self.engine.energy(self.engine.T / 2))


@dataclass(frozen=True)
class OccupationConfig:
    """One trap-occupation vector with its canonical weight.

    weight is normalized over the enumerated set and includes the
    2^active_count internal Fock degeneracy of singly occupied levels;
    the Boltzmann factor itself involves only the COM energy.
    """

    occupations: tuple
    com_energy: float
    weight: float
    active_count: int

    @property
    def degeneracy(self) -> int:
        return 2 ** self.active_count


def _ground_energy(N: int, omega: float) -> float:
    e = 0.0
    remaining = N
    level = 0
    while remaining > 0:
        take = min(2, remaining)
        e += take * omega * (level + 0.5)
        remaining -= take
        level += 1
    return e


def enumerate_configs(ens: FermiEnsemble) -> list[OccupationConfig]:
    """All occupation vectors with sum N over the kept levels, with
    normalized canonical weights; negligible weights are pruned."""
    N, L, omega = ens.N, ens.level_count, ens.omega_trap
    beta = ens.beta_com
    e0 = _ground_energy(N, omega)
    if math.isinf(beta):
        e_cut = 1e-9 * omega
    else:
        e_cut = (34.0 + 0.7 * N) / beta if beta > 0 else math.inf
    # minimal completion energy: fill greedily upward from each level
    raw = []
    occ = [0] * L

    def min_rest(level: int, remaining: int) -> float:
        e = 0.0
        while remaining > 0:
            if level >= L:
                return math.inf
            take = min(2, remaining)
            e += take * omega * (level + 0.5)
            remaining -= take
            level += 1
        return e

    def walk(level: int, remaining: int, energy: float):
        if remaining == 0:
            raw.append((tuple(occ[:level]), energy))
            if len(raw) > ENUMERATION_CAP:
                raise ResourceLimitError(
                    f"occupation enumeration exceeded {ENUMERATION_CAP} configs; "
                    "prune with a smaller level_count or larger beta_com"
                )
            return
        if level >= L:
            return
        for n in (0, 1, 2):
            if n > remaining:
                break
            e_next = energy + n * omega * (level + 0.5)
            # raising n fills the cheapest open level, so the minimal total
            # energy is non-increasing in n: prune per branch, not per loop
            if e_next + min_rest(level + 1, remaining - n) - e0 > e_cut:
                continue
            occ[level] = n
            walk(level + 1, remaining - n, e_next)
            occ[level] = 0

    walk(0, N, 0.0)
    entries = []
    for occ_t, energy in raw:
        active = sum(1 for n in occ_t if n == 1)
        if math.isinf(beta):
            boltz = 1.0 if energy - e0 <= 1e-9 * omega else 0.0
        else:
            boltz = math.exp(-beta * (energy - e0))
        entries.append((occ_t, energy, active, (2.0 ** active) * boltz))
    w_max = max(w for *_, w in entries)
    entries = [e for e in entries if e[3] >= WEIGHT_PRUNE * w_max]
    z = sum(w for *_, w in entries)
    configs = [
        OccupationConfig(
            occupations=occ_t + (0,) * (L - len(occ_t)),
            com_energy=energy,
            weight=w / z,
            active_count=active,
        )
        for occ_t, energy, active, w in entries
    ]
    configs.sort(key=lambda c: (c.com_energy, c.occupations))
    return configs


def f_N(ens: FermiEnsemble) -> float:
    """Expected number of active engines: f_N = sum_configs w * active.

    f_1 = 1 for every COM temperature; f_N -> (N mod 2) as beta -> inf.
    """
    configs = enumerate_configs(ens)
    return float(sum(c.weight * c.active_count for c in configs))


def parity_asymptote(N: int, beta_omega: float) -> float:
    """Low-temperature parity law: 8 e^{-bw} (even) / 1 + 8 e^{-2bw} (odd)."""
    if N % 2 == 0:
        return 8.0 * math.exp(-beta_omega)
    return 1.0 + 8.0 * math.exp(-2.0 * beta_omega)


def fermi_work(ens: FermiEnsemble) -> WorkRecord:
    """Isolated-engine average work
    <w_N> = (eps_h - eps_c)(tanh beta_c eps_c - tanh beta_h eps_h) f_N.

    The ratio lambda = <w_N>/<w_1> = f_N is returned in the
    enhancement_ratio field; it depends only on beta_com * omega_trap,
    not on the bath temperatures.
    """
    lam = f_N(ens)
    eng = ens.engine
    eps_c, eps_h = ens.epsilon_c, ens.epsilon_h
    per_engine = (eps_h - eps_c) * (
        math.tanh(eng.beta_c * eps_c) - math.tanh(eng.beta_h * eps_h)
    )
    return WorkRecord(
        avg_work=per_engine * lam,
        statistics=Statistics.DISTINGUISHABLE,
        method=METHOD_FERMI,
        enhancement_ratio=lam,
    )


def fermi_outcoupled_work(
    ens: FermiEnsemble,
    schedule: CouplingSchedule,
    system: ExternalSystem,
    config=None,
) -> WorkRecord:
    """Outcoupled fermionic work by weighted per-configuration cycles.

    Each configuration contributes a run of k = active_count
    distinguishable engines (atoms at distinct trap levels) coupled to
    the shared system; runs are memoized per k.  The default blocked
    propagation has no cap on k, so every configuration contributes; a
    config with product_mode="full" raises ResourceLimitError above its cap.
    """
    from .dynamics import PropagatorConfig, run_cycle

    if not math.isinf(ens.beta_com) and ens.beta_omega < 2.0:
        raise DomainError(
            "outcoupled reduction assumes the dominant-configuration regime "
            "beta_com * omega_trap >= 2"
        )
    config = config or PropagatorConfig()
    configs = enumerate_configs(ens)
    runs: dict[int, WorkRecord] = {}

    def work_for(k: int) -> WorkRecord:
        if k not in runs:
            params_k = replace(ens.engine, N=k, statistics=Statistics.DISTINGUISHABLE)
            runs[k] = run_cycle(params_k, schedule, system, config=config).work
        return runs[k]

    p_bar = {i: 0.0 for i in range(1, system.dim)}
    w_bar = 0.0
    for c in configs:
        if c.active_count == 0:
            continue
        rec = work_for(c.active_count)
        w_bar += c.weight * rec.avg_work
        for i, p in rec.p_excite.items():
            p_bar[i] += c.weight * p
    w1 = work_for(1).avg_work
    return WorkRecord(
        avg_work=w_bar,
        statistics=Statistics.DISTINGUISHABLE,
        method=METHOD_FERMI_NUMERICAL,
        p_excite=p_bar,
        energies=tuple(system.energies),
        enhancement_ratio=w_bar / w1 if w1 != 0 else math.nan,
    )


def lambda_table(N_values, beta_omega_values, engine: EngineParams, omega_trap: float = 1.0):
    """Rows (N, beta_com_omega, lambda, lambda_asymptotic, method) for CSV."""
    rows = []
    for N in N_values:
        for bw in beta_omega_values:
            ens = FermiEnsemble(
                N=int(N), omega_trap=omega_trap, beta_com=bw / omega_trap,
                engine=engine,
            )
            rows.append(
                (int(N), float(bw), f_N(ens), parity_asymptote(int(N), float(bw)),
                 "enumeration")
            )
    return rows

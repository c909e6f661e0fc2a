"""Fermionic multi-engine model: trapped two-level fermions with conserved
trap-level occupations, Pauli blocking, and the even/odd work parity law.

A trap level holds 0, 1, or 2 atoms; doubly occupied levels are frozen
by Pauli blocking and only singly occupied ("active") levels do work.
The occupation distribution is canonical in the centre-of-mass energy,
counting Fock states, so a configuration with a active levels carries a
degeneracy 2^a from the two internal states of each lone atom.  The
expected active count f_N is the work ratio lambda = <w_N>/<w_1> of
isolated engines, where each active atom does one engine's work, so it
does not depend on the bath temperatures; `lambda_table` tabulates it.
`fermi_outcoupled_work` couples the active atoms to one shared system
instead, and its lambda moves with the baths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analytics import METHOD_FERMI_NUMERICAL, WorkRecord
from .errors import DomainError
from .protocols import CouplingSchedule, EngineParams, ExternalSystem, Statistics

WEIGHT_PRUNE = 1e-14          # active counts below this share of max P(k) run no cycle


@dataclass(frozen=True)
class FermiEnsemble:
    """N two-level fermions in a harmonic trap plus their internal engine.

    Only fermi_outcoupled_work reads the engine: f_N and the lambda
    tables depend on the trap alone.  level_count bounds the trap
    truncation; with the default (None) it is chosen so the canonical
    weight beyond the kept levels is < 1e-10.
    """

    N: int
    omega_trap: float
    beta_com: float
    engine: EngineParams = None
    level_count: int = None

    def __post_init__(self):
        if isinstance(self.N, bool) or not float(self.N).is_integer() or self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N}")
        object.__setattr__(self, "N", int(self.N))
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


def active_distribution(ens: FermiEnsemble) -> np.ndarray:
    """P(k active) for k = 0..N: the z^N coefficient of
    prod_l (1 + 2 y z q^(l+1/2) + z^2 q^(2l+1)), q = exp(-beta_com omega),
    over the kept levels, with y counting the active (singly occupied)
    levels; the recursive construction of Borrmann & Franke,
    J. Chem. Phys. 98, 2484 (1993).

    Coefficients are carried as logarithms, so no level count or
    temperature overflows; at beta_com = inf only the ground filling
    survives and P is exactly delta_{k, N mod 2}.
    """
    N = ens.N
    if math.isinf(ens.beta_com):
        P = np.zeros(N + 1)
        P[N % 2] = 1.0
        return P
    bw = ens.beta_omega
    # log_c[n, k]: log coefficient of z^n y^k over the levels added so far
    log_c = np.full((N + 1, N + 1), -np.inf)
    log_c[0, 0] = 0.0
    single = np.full_like(log_c, -np.inf)
    double = np.full_like(log_c, -np.inf)
    for level in range(ens.level_count):
        e = bw * (level + 0.5)
        single[1:, 1:] = log_c[:-1, :-1] + (math.log(2.0) - e)
        double[2:] = log_c[:-2] - 2.0 * e
        log_c = np.logaddexp(log_c, np.logaddexp(single, double))
    w = np.exp(log_c[N] - log_c[N].max())
    return w / w.sum()


def f_N(ens: FermiEnsemble) -> float:
    """Expected number of active engines: f_N = sum_k P(k) k.

    f_1 = 1 for every COM temperature; f_N -> (N mod 2) as beta -> inf.
    """
    P = active_distribution(ens)
    return float(P @ np.arange(ens.N + 1))


def parity_asymptote(N: int, beta_omega: float) -> float:
    """Low-temperature parity law: 8 e^{-bw} (even) / 1 + 8 e^{-2bw} (odd)."""
    if N % 2 == 0:
        return 8.0 * math.exp(-beta_omega)
    return 1.0 + 8.0 * math.exp(-2.0 * beta_omega)


def fermi_outcoupled_work(
    ens: FermiEnsemble,
    schedule: CouplingSchedule,
    system: ExternalSystem,
) -> WorkRecord:
    """Outcoupled fermionic work: per-k runs weighted by P(k).

    Each active count k contributes one run of k distinguishable engines
    (atoms at distinct trap levels) coupled to the shared system, weighted
    by its probability P(k) from active_distribution; a k with
    P(k) < WEIGHT_PRUNE * max P starts no run.  k = 1 always runs: its work
    W_1 is the reference of enhancement_ratio = sum_k P(k) W_k / W_1, while
    avg_work is that of the P(k)-weighted probabilities.
    """
    from .dynamics import run_cycle

    if ens.engine is None:
        raise ValueError("the work of a FermiEnsemble needs its internal engine")
    if not math.isinf(ens.beta_com) and ens.beta_omega < 2.0:
        raise DomainError(
            "outcoupled reduction assumes the dominant-configuration regime "
            "beta_com * omega_trap >= 2"
        )
    P = active_distribution(ens).tolist()
    floor = WEIGHT_PRUNE * max(P)
    p_bar = {i: 0.0 for i in range(1, system.dim)}
    w_bar = 0.0
    for k in range(1, ens.N + 1):
        if k > 1 and P[k] < floor:
            continue
        rec = run_cycle(replace(ens.engine, N=k), schedule, system,
                        Statistics.DISTINGUISHABLE).work
        if k == 1:
            w1 = rec.avg_work
        w_bar += P[k] * rec.avg_work
        for i, p in rec.p_excite.items():
            p_bar[i] += P[k] * p
    return WorkRecord(
        statistics=Statistics.DISTINGUISHABLE,
        method=METHOD_FERMI_NUMERICAL,
        p_excite=p_bar,
        energies=tuple(system.energies),
        enhancement_ratio=w_bar / w1 if w1 != 0 else math.nan,
    )


def lambda_table(N_values, beta_omega_values):
    """Rows (N, beta_com_omega, lambda, lambda_asymptotic, method) for CSV;
    lambda depends on the trap only through beta_com * omega_trap."""
    return [(int(N), float(bw), f_N(FermiEnsemble(N=int(N), omega_trap=1.0, beta_com=float(bw))),
             parity_asymptote(int(N), float(bw)), "recursion")
            for N in N_values for bw in beta_omega_values]

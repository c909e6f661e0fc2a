"""Hilbert spaces, collective spin operators, and thermal states.

Builds the three ensemble representations used throughout the package:
the (N+1)-dimensional symmetric (Dicke) sector, the full 2^N product
space of distinguishable two-level atoms, and truncated oscillator /
composite spaces for the driven external system.  All matrices are dense
complex arrays in units with hbar = 1; the collective basis is ordered
by ascending magnetic quantum number m = -N/2 .. N/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Union

import numpy as np

from .errors import (
    DegenerateHamiltonianError,
    InvalidSpaceError,
    ResourceLimitError,
)

HERMITICITY_TOL = 1e-12
STATE_TRACE_TOL = 1e-10
STATE_HERM_TOL = 1e-10
STATE_EIGMIN_TOL = -1e-9

PRODUCT_SPACE_CAP = 12  # largest N for 2^N constructions


# ---------------------------------------------------------------------------
# space kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DickeSector:
    """Symmetric subspace of N two-level atoms, dimension N + 1."""

    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"DickeSector needs N >= 1, got {self.N}")

    @property
    def dim(self) -> int:
        return self.N + 1


@dataclass(frozen=True)
class FullProduct:
    """Tensor product of N two-level atoms, dimension 2^N."""

    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"FullProduct needs N >= 1, got {self.N}")

    @property
    def dim(self) -> int:
        return 2 ** self.N


@dataclass(frozen=True)
class HOTruncated:
    """Truncated oscillator (or generic driven-system) space."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"HOTruncated needs dim >= 1, got {self.dim}")


@dataclass(frozen=True)
class Composite:
    """Engine (x) system tensor product space."""

    engine: "SpaceKind"
    system: "SpaceKind"

    @property
    def dim(self) -> int:
        return self.engine.dim * self.system.dim


SpaceKind = Union[DickeSector, FullProduct, HOTruncated, Composite]


# ---------------------------------------------------------------------------
# operator / state wrappers
# ---------------------------------------------------------------------------

def _as_square_complex(matrix, dim) -> np.ndarray:
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] != dim:
        raise ValueError(f"matrix dim {a.shape[0]} does not match space dim {dim}")
    return a


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """Dense operator tagged with the space it acts on."""

    space: SpaceKind
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_square_complex(self.matrix, self.space.dim))

    @property
    def dim(self) -> int:
        return self.space.dim

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def assert_hermitian(self, tol: float = HERMITICITY_TOL) -> None:
        defect = self.hermiticity_defect()
        if defect > tol:
            raise ValueError(f"operator not Hermitian: max |A - A^dag| = {defect:.3e}")


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Density matrix tagged with its space; validated on construction."""

    space: SpaceKind
    rho: np.ndarray

    def __post_init__(self):
        rho = _as_square_complex(self.rho, self.space.dim)
        object.__setattr__(self, "rho", rho)
        tr = np.trace(rho)
        if abs(tr - 1.0) > STATE_TRACE_TOL:
            raise ValueError(f"state trace {tr} differs from 1 beyond {STATE_TRACE_TOL}")
        herm = np.max(np.abs(rho - rho.conj().T))
        if herm > STATE_HERM_TOL:
            raise ValueError(f"state not Hermitian: defect {herm:.3e}")
        eigmin = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
        if eigmin < STATE_EIGMIN_TOL:
            raise ValueError(f"state has negative eigenvalue {eigmin:.3e}")

    @property
    def dim(self) -> int:
        return self.space.dim


# ---------------------------------------------------------------------------
# spin representations
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _spin_xyz(N: int):
    """Spin-N/2 matrices (Sx, Sy, Sz, m) in the ascending-m basis."""
    j = N / 2
    m = np.arange(N + 1) - j
    sp = np.zeros((N + 1, N + 1), dtype=complex)
    for k in range(N):
        sp[k + 1, k] = math.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    sx = (sp + sp.conj().T) / 2
    sy = (sp - sp.conj().T) / 2j
    sz = np.diag(m).astype(complex)
    return sx, sy, sz, m


def collective_spin_ops(N: int) -> tuple[DenseOperator, DenseOperator]:
    """Collective Sx, Sz in the (N+1)-dimensional symmetric sector.

    Sz is diagonal with entries m = -N/2 .. N/2 (ascending); Sx carries
    the standard ladder elements sqrt(j(j+1) - m(m+1))/2 with j = N/2.
    """
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise ValueError(f"collective_spin_ops needs a positive integer N, got {N!r}")
    sx, _, sz, _ = _spin_xyz(int(N))
    space = DickeSector(int(N))
    return DenseOperator(space, sx.copy()), DenseOperator(space, sz.copy())


def spin_y(N: int) -> np.ndarray:
    """Ladder-consistent Sy for the same representation (raw matrix)."""
    return _spin_xyz(int(N))[1].copy()


@lru_cache(maxsize=None)
def _product_sum(N: int, axis: int) -> np.ndarray:
    """sum_j s_j on the 2^N product space for one single-atom spin matrix
    s = _spin_xyz(1)[axis] (axis 0, 1, 2 for x, y, z)."""
    one = _spin_xyz(1)[axis]
    eye = np.eye(2, dtype=complex)
    total = np.zeros((2 ** N, 2 ** N), dtype=complex)
    for i in range(N):
        total += reduce(np.kron, [one if k == i else eye for k in range(N)])
    return total


def product_spin_ops(N: int) -> tuple[DenseOperator, DenseOperator]:
    """Total sigma_x/2 and sigma_z/2 sums on the full 2^N product space."""
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise ValueError(f"product_spin_ops needs a positive integer N, got {N!r}")
    if N > PRODUCT_SPACE_CAP:
        raise ResourceLimitError(
            f"product space for N={N} exceeds the cap N <= {PRODUCT_SPACE_CAP} (dim 2^{N})"
        )
    space = FullProduct(int(N))
    return (DenseOperator(space, _product_sum(int(N), 0).copy()),
            DenseOperator(space, _product_sum(int(N), 2).copy()))


def hermitian_expm(H: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t H) for a Hermitian matrix H, as V e^{-i t lambda} V^dag
    from its eigendecomposition (exactly unitary up to rounding, also on a
    degenerate spectrum, where eigh still returns an orthonormal V)."""
    lam, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * t * lam)) @ V.conj().T


# ---------------------------------------------------------------------------
# engine Hamiltonian and its instantaneous eigenbasis
# ---------------------------------------------------------------------------

def engine_hamiltonian(params, t: float, kind: SpaceKind) -> DenseOperator:
    """H_E(t) = 2 Omega(t) Sz + 2 Delta Sx on the requested engine space.

    The Dicke-sector spectrum is exactly {2 E_t m} with
    E_t = sqrt(Omega(t)^2 + Delta^2); the product-space spectrum is the
    2^N-fold degenerate sum of single-atom levels +/- E_t.
    """
    omega = float(params.omega(t))
    delta = float(params.Delta)
    if isinstance(kind, DickeSector):
        sx, _, sz, _ = _spin_xyz(kind.N)
    elif isinstance(kind, FullProduct):
        sx, sz = _product_sum(kind.N, 0), _product_sum(kind.N, 2)
    else:
        raise InvalidSpaceError(
            f"engine_hamiltonian supports DickeSector or FullProduct, got {type(kind).__name__}"
        )
    return DenseOperator(kind, 2 * omega * sz + 2 * delta * sx)


def instantaneous_eigenbasis(params, t: float, N: int):
    """Mixing angle, gap scale, and eigenbasis of the engine Hamiltonian.

    Returns (theta_t, E_t, basis) where tan(theta_t) = -Omega(t)/Delta,
    E_t = sqrt(Omega(t)^2 + Delta^2) > 0, and the basis columns are the
    eigenvectors |m, theta_t> of H_E(t) ordered by m with eigenvalues
    2 E_t m.  Columns are fixed to have a real positive leading entry.
    """
    omega = float(params.omega(t))
    delta = float(params.Delta)
    E = math.hypot(omega, delta)
    if E == 0.0:
        raise DegenerateHamiltonianError(
            f"engine gap closes at t={t}: Omega(t)=0 and Delta=0"
        )
    theta = math.atan2(-omega, delta)
    _, sy, _, _ = _spin_xyz(int(N))
    chi = theta + math.pi / 2
    # exp(-i chi Sy) is real, as Sy is imaginary: its real part carries no
    # rounding in a phase, which a small leading entry would amplify, so a
    # sign per column fixes the basis
    basis = _fix_column_signs(hermitian_expm(sy, chi).real)
    return theta, E, DenseOperator(DickeSector(int(N)), basis)


def _fix_column_signs(U: np.ndarray) -> np.ndarray:
    """U with each column's leading entry, the first above 1e-12 of the
    column's largest, made positive."""
    lead = np.argmax(np.abs(U) > 1e-12 * np.abs(U).max(axis=0), axis=0)
    return U * np.sign(U[lead, np.arange(U.shape[1])])


# ---------------------------------------------------------------------------
# thermal states
# ---------------------------------------------------------------------------

def thermal_state(H: DenseOperator, beta: float) -> QuantumState:
    """Gibbs state exp(-beta H)/Z, computed in the eigenbasis of H.

    beta = 0 gives the maximally mixed state; beta = math.inf is handled
    symbolically and returns the uniformly mixed projector onto the
    (possibly degenerate) ground space.
    """
    H.assert_hermitian()
    if beta < 0:
        raise ValueError(f"thermal_state needs beta >= 0, got {beta}")
    evals, evecs = np.linalg.eigh(H.matrix)
    if math.isinf(beta):
        scale = max(1.0, float(np.max(np.abs(evals))))
        ground = evals - evals[0] <= 1e-10 * scale
        w = ground.astype(float)
    else:
        w = np.exp(-beta * (evals - evals[0]))
    w /= w.sum()
    rho = (evecs * w) @ evecs.conj().T
    rho = (rho + rho.conj().T) / 2
    return QuantumState(H.space, rho)


# ---------------------------------------------------------------------------
# composite-space helpers
# ---------------------------------------------------------------------------

def trace_out_engine(rho: np.ndarray, engine_dim: int, system_dim: int) -> np.ndarray:
    """Partial trace over the engine factor of an engine-(x)-system matrix."""
    r4 = rho.reshape(engine_dim, system_dim, engine_dim, system_dim)
    return np.einsum("isit->st", r4)


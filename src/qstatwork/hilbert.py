"""Operator and state containers, and the spin-N/2 matrices of the engines.

`HOTruncated` is the truncated oscillator (or generic driven-system)
space; `DenseOperator` and `QuantumState` tag a dense matrix with that
space and validate it.  `_spin_xyz(N)` gives the spin-N/2 matrices from
which `dynamics` builds every spin block of the engines.  All matrices
are dense complex arrays in units with hbar = 1; the collective basis is
ordered by ascending magnetic quantum number m = -N/2 .. N/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

HERMITICITY_TOL = 1e-12
STATE_TRACE_TOL = 1e-10
STATE_HERM_TOL = 1e-10
STATE_EIGMIN_TOL = -1e-9


@dataclass(frozen=True)
class HOTruncated:
    """Truncated oscillator (or generic driven-system) space."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"HOTruncated needs dim >= 1, got {self.dim}")


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

    space: HOTruncated
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

    space: HOTruncated
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
    """Spin-N/2 matrices Sx and Sy, and the diagonal m of Sz, in the
    ascending-m basis."""
    j = N / 2
    m = np.arange(N + 1) - j
    sp = np.zeros((N + 1, N + 1), dtype=complex)
    for k in range(N):
        sp[k + 1, k] = math.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    sx = (sp + sp.conj().T) / 2
    sy = (sp - sp.conj().T) / 2j
    return sx, sy, m

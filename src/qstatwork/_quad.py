"""Panel-based Gauss-Legendre quadrature for oscillatory protocol integrals.

The coupling amplitudes integrate products of a (possibly sharply
switched) schedule with phase factors exp(i [eps_i t +/- phi(t, t0)]).
Panels are split at schedule switch points and limited in width so each
holds at most a fraction of an oscillation period; the node count is
then doubled until two consecutive estimates agree.  A stack of
integrands shares the panels; the integrand gets the panel rule as a
callback (`contract`), so it can build and contract the stack block by
block and never hold it whole.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import QuadratureError

# the order-16 Gauss-Legendre nodes and weights, bit-equal to
# np.polynomial.legendre.leggauss(16) (both symmetric about 0), so that
# integrating imports no numpy.polynomial
_GL16_NODES = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
               0.6178762444026438, 0.755404408355003, 0.8656312023878318,
               0.9445750230732326, 0.9894009349916499)
_GL16_WEIGHTS = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
                 0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
                 0.062253523938647456, 0.027152459411754176)
GL_NODES = np.array([-x for x in _GL16_NODES[::-1]] + list(_GL16_NODES))
GL_WEIGHTS = np.array(_GL16_WEIGHTS[::-1] + _GL16_WEIGHTS)


def _build_panels(a: float, b: float, breakpoints, max_freq: float) -> np.ndarray:
    """Panel edges over [a, b]: the breakpoints inside (a, b) cut it into
    segments, and each segment is split evenly (as np.linspace would) into
    the fewest panels no wider than the width cap."""
    cuts = np.array(sorted({a, b, *(float(p) for p in breakpoints or () if a < p < b)}))
    width_cap = b - a
    if max_freq > 0:
        width_cap = min(width_cap, 5.0 / max_freq)
    lo, hi = cuts[:-1], cuts[1:]
    n = np.maximum(1, np.ceil((hi - lo) / width_cap)).astype(int)
    seg = np.repeat(np.arange(n.size), n)
    k = np.arange(seg.size) - np.repeat(np.cumsum(n) - n, n)
    return np.append(k * ((hi - lo) / n)[seg] + lo[seg], b)


def _refine(edges: np.ndarray) -> np.ndarray:
    """Halve every panel."""
    out = np.empty(2 * edges.size - 1)
    out[0::2] = edges
    out[1::2] = (edges[:-1] + edges[1:]) / 2
    return out


def _evaluate(f, edges: np.ndarray) -> np.ndarray:
    los, his = edges[:-1], edges[1:]
    half = (his - los) / 2
    mid = (his + los) / 2
    nodes = (mid[:, None] + half[:, None] * GL_NODES[None, :]).ravel()

    def contract(vals):  # the panel rule
        vals = vals.reshape(vals.shape[:-1] + (los.size, GL_NODES.size))
        return np.sum(vals @ GL_WEIGHTS * half, axis=-1)

    return np.asarray(f(nodes, contract))


class QuadStats(NamedTuple):
    """The work one quadrature took: the panel count of its last
    evaluation, the refinements it made and the largest change between
    the two estimates that accepted a component."""

    panels: int = 0
    refinements: int = 0
    last_delta: float = 0.0


def worst(stats) -> QuadStats:
    """The largest panel count, refinement count and last delta of several
    quadratures (zeros for none)."""
    return QuadStats(*map(max, zip(*stats)))


def integrate_oscillatory(
    f,
    a: float,
    b: float,
    breakpoints=None,
    max_freq: float = 0.0,
    rel_tol: float = 1e-10,
    abs_tol=0.0,
    max_refine: int = 5,
):
    """Integrate a vectorised complex integrand f over [a, b].

    f(nodes, contract) returns the values of one integrand, or of a stack,
    on the nodes (last axis) passed through `contract`: a plain integrand
    g is `lambda t, c: c(g(t))`.  Refines by doubling the panel count
    until two successive estimates differ by less than max(abs_tol,
    rel_tol * scale); abs_tol broadcasts against the stack.  Each
    component keeps the first estimate that passes its own test, so it
    equals the value f's component alone would give on the same panels.
    Returns (estimate, QuadStats), the estimate a complex or an array.
    Raises QuadratureError with diagnostics if some component never
    converges.
    """
    if b <= a:
        shape = np.shape(_evaluate(f, np.array([a, a])))
        return (np.zeros(shape, complex) if shape else 0.0 + 0.0j), QuadStats()
    edges = _build_panels(a, b, breakpoints, max_freq)
    est = _evaluate(f, edges)
    scale = np.maximum(np.abs(est), (b - a) * 1e-300)
    out = est
    done = np.zeros(est.shape, bool)
    accepted = np.zeros(est.shape)
    for refinements in range(1, max_refine + 1):
        edges = _refine(edges)
        new = _evaluate(f, edges)
        delta = np.abs(new - est)
        est, scale = new, np.maximum(np.abs(new), scale)
        passed = ~done & (delta <= np.maximum(abs_tol, rel_tol * scale))
        out = np.where(passed, new, out)
        accepted = np.where(passed, delta, accepted)
        done |= passed
        if done.all():
            stats = QuadStats(edges.size - 1, refinements, float(np.max(accepted)))
            return (out if out.ndim else complex(out)), stats
    last = float(np.max(delta[~done]))
    raise QuadratureError(
        f"quadrature did not converge over [{a}, {b}]: last delta {last:.3e} "
        f"with {edges.size - 1} panels",
        estimate=est if est.ndim else complex(est),
        last_delta=last,
        panels=edges.size - 1,
    )

"""Panel-based Gauss-Kronrod quadrature for oscillatory protocol integrals.

The coupling amplitudes integrate products of a (possibly sharply
switched) schedule with phase factors exp(i [eps_i t +/- phi(t, t0)]).
Panels are split at schedule switch points and limited in width so each
holds at most a fraction of an oscillation period.  Each panel set is
evaluated once, on the 21 nodes of QUADPACK's nested pair (Piessens et
al. 1983): K21 gives the estimate and G10, on every second node, its
check; where they disagree, every panel is halved.  A stack of integrands
shares the panels; the integrand gets the panel rule as a callback
(`contract`), so it can build and contract the stack block by block and
never hold it whole.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import QuadratureError

# QUADPACK's G10/K21 pair on [-1, 1] as the doubles nearest its 33-digit values
# (literals: integrating imports no SciPy), at the Kronrod nodes x >= 0, outermost
# first: the nodes, their K21 weights and their G10 weights (0 off the Gauss nodes)
_K21_NODES = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
              0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
              0.2943928627014602, 0.14887433898163122, 0.0)
_K21_WEIGHTS = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
                0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
                0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
                0.14773910490133849, 0.1494455540029169)
_G10_WEIGHTS = (0.0, 0.06667134430868814, 0.0, 0.1494513491505806, 0.0, 0.21908636251598204,
                0.0, 0.26926671930999635, 0.0, 0.29552422471475287, 0.0)
KR_NODES = np.array([-x for x in _K21_NODES[:-1]] + list(_K21_NODES[::-1]))
KR_WEIGHTS = np.column_stack((_K21_WEIGHTS + _K21_WEIGHTS[-2::-1],
                              _G10_WEIGHTS + _G10_WEIGHTS[-2::-1]))
# every quadrature's relative tolerance and cap on halvings of its panels
REL_TOL = 1e-10
MAX_REFINE = 5


def _build_panels(a: float, b: float, breakpoints, max_freq: float) -> np.ndarray:
    """Panel edges over [a, b]: the breakpoints inside (a, b) cut it into
    segments, and each segment is split evenly (as np.linspace would) into
    the fewest panels no wider than the width cap."""
    cuts = np.array(sorted({a, b, *(float(p) for p in breakpoints if a < p < b)}))
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
    nodes = (mid[:, None] + half[:, None] * KR_NODES[None, :]).ravel()

    def contract(vals):  # the rule pair: (K21, G10) on a last axis of 2
        vals = vals.reshape(vals.shape[:-1] + (los.size, KR_NODES.size))
        return np.sum(vals @ KR_WEIGHTS * half[:, None], axis=-2)

    return np.asarray(f(nodes, contract))


class QuadStats(NamedTuple):
    """The work one quadrature took: the panel count of its last evaluation,
    the halvings of every panel after the first (0 when that one is
    accepted) and the largest |K21 - G10| that accepted a component."""

    panels: int = 0
    refinements: int = 0
    last_delta: float = 0.0


def integrate_oscillatory(f, a: float, b: float, breakpoints, max_freq: float, abs_tol):
    """Integrate a vectorised complex integrand f over [a, b], a < b.

    f(nodes, contract) returns the values of one integrand, or of a stack,
    on the nodes (last axis) passed through `contract`, which returns its
    (K21, G10) estimates on a last axis: a plain integrand g is
    `lambda t, c: c(g(t))`.  A component is accepted, with its K21 value,
    when |K21 - G10| <= max(abs_tol, REL_TOL * scale), scale its largest
    |K21| so far; abs_tol broadcasts against the stack.  Until all are,
    every panel is halved and evaluated again, at most MAX_REFINE times.
    Each component keeps the estimate its own test accepted, so it equals
    the value f's component alone would give on the same panels.  Returns
    (estimate, QuadStats), the estimate a complex or an array.  Raises
    QuadratureError, naming the last delta, if some component never converges.
    """
    edges = _build_panels(a, b, breakpoints, max_freq)
    scale, done, out, accepted = (b - a) * 1e-300, np.False_, 0.0, 0.0
    for refinements in range(MAX_REFINE + 1):
        if refinements:
            edges = _refine(edges)
        pair = _evaluate(f, edges)
        est, delta = pair[..., 0], np.abs(pair[..., 0] - pair[..., 1])
        scale = np.maximum(np.abs(est), scale)
        passed = ~done & (delta <= np.maximum(abs_tol, REL_TOL * scale))
        out, accepted = np.where(passed, est, out), np.where(passed, delta, accepted)
        done = done | passed
        if done.all():
            stats = QuadStats(edges.size - 1, refinements, float(np.max(accepted)))
            return (out if out.ndim else complex(out)), stats
    last = float(np.max(delta[~done]))
    raise QuadratureError(f"quadrature did not converge over [{a}, {b}]: last delta {last:.3e} "
                          f"with {edges.size - 1} panels")

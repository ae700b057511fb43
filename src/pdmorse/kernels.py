"""Hot inner loop of the shooting integrator.

The per-step RK4 propagators come from closed-form expressions in the
coefficient table, evaluated with vectorized numpy; the only sequential
piece is the 2x2 propagation sweep, one pure-Python loop.  It counts a node
when phi changes sign strictly (+ -> 0 -> - counts none) and rescales
(phi, phi') by 1e-250 once |phi| passes 1e250.  While phi keeps one sign
the loop tests only whether the next phi leaves (0, 1e250] (or its mirror);
such a step, and every step from a zero phi, takes the plain branch.  NaN
stays NaN and counts nothing on either branch, so every result is bit for
bit that of one plain loop.

Settled tail (Sturm comparison, Pryce 1993).  Suppose that from step t on
every propagator entry is >= 0 (NaN counts as negative).  If phi, phi' >= 0
then p = m00 phi + m01 phi' and d = m10 phi + m11 phi' are >= 0 (or NaN),
rescaling keeps signs, and NaN stays NaN and counts nothing; by induction
phi never again falls below zero, so no later step counts a node.  The same
holds with both <= 0.  A node-count-only sweep therefore stops at the first
such state at or after t.  In the forbidden right tail (h > 0, q > 0) all
four entries are positive.  Run ``benchmarks/bench_shooting.py`` to time
the propagators and both sweeps.
"""
from __future__ import annotations

import numpy as np

USE_NUMBA = False  # recorded by e2ebench/run.py; there is no compiled path

# Renormalization threshold; rescaling both components leaves nodes and
# log-derivatives unchanged while keeping the growing solution finite.
_RESCALE_LIMIT = 1e250


def _run(steps, phi: float, dphi: float, nodes: int, settle: bool = False):
    """Propagate (phi, phi', nodes) through a one-pass iterator of step
    entries (a, b, c, e); the sign runs advance that same iterator.

    With settle every step is plain, and the run stops before the first
    state with phi and phi' both >= 0 or both <= 0.
    """
    lim = _RESCALE_LIMIT
    for a, b, c, e in steps:
        while True:  # plain step, then a sign run from the state it leaves
            if settle and ((phi >= 0.0 and dphi >= 0.0) or (phi <= 0.0 and dphi <= 0.0)):
                return phi, dphi, nodes
            p = a * phi + b * dphi
            d = c * phi + e * dphi
            if (p < 0.0 and phi > 0.0) or (p > 0.0 and phi < 0.0):
                nodes += 1
            phi = p
            dphi = d
            if phi > lim or phi < -lim:
                phi *= 1e-250
                dphi *= 1e-250
            if phi > 0.0 and not settle:
                for a, b, c, e in steps:
                    p = a * phi + b * dphi
                    if p <= 0.0 or p > lim:
                        break  # this step takes the plain branch
                    dphi = c * phi + e * dphi
                    phi = p
                else:
                    return phi, dphi, nodes
            elif phi < 0.0 and not settle:
                for a, b, c, e in steps:
                    p = a * phi + b * dphi
                    if p >= 0.0 or p < -lim:
                        break
                    dphi = c * phi + e * dphi
                    phi = p
                else:
                    return phi, dphi, nodes
            else:
                break
    return phi, dphi, nodes


def _settled_start(cols) -> int:
    """Start of the settled tail: one past the last step with a negative (or NaN) entry."""
    negative = np.flatnonzero(~np.logical_and.reduce([m >= 0.0 for m in cols]))
    return int(negative[-1]) + 1 if negative.size else 0


def sweep(m00, m01, m10, m11, phi0: float, dphi0: float, nodes_only: bool = False):
    """Propagate (phi, phi') through per-step 2x2 matrices, counting nodes.

    Returns (phi, phi', nodes) at the last point.  With nodes_only the sweep
    stops in the settled tail (module docstring) and returns (None, None,
    nodes), nodes being the count of the full sweep.
    """
    cols = [np.ascontiguousarray(m, dtype=float) for m in (m00, m01, m10, m11)]
    end = len(cols[0])
    if nodes_only:
        end = _settled_start(cols)
    # memoryviews hand out plain floats without building four lists;
    # plain-float arithmetic is several times faster than numpy scalars
    views = [memoryview(m) for m in cols]
    phi, dphi, nodes = _run(zip(*(v[:end] for v in views)), float(phi0), float(dphi0), 0)
    if not nodes_only:
        return phi, dphi, nodes
    nodes = _run(zip(*(v[end:] for v in views)), phi, dphi, nodes, settle=True)[2]
    return None, None, nodes


def rk4_propagators(q_nodes: np.ndarray, q_mids: np.ndarray, h: float):
    """Per-step RK4 propagator entries for the linear system phi'' = q(x) phi.

    For a linear ODE every classical RK4 step is a 2x2 matrix acting on
    (phi, phi').  Expanding the four stages symbolically gives each entry in
    closed form in the step's start, midpoint and end values qi, qm, qp:

        m00 = 1 + h^2 (qi/6 + qm/3) + h^4 qi qm / 24
        m01 = h + h^3 qm / 6
        m10 = h (qi/6 + 2 qm/3 + qp/6) + h^3 qm (qi + qp) / 12
        m11 = 1 + h^2 (qm/3 + qp/6) + h^4 qm qp / 24

    q_nodes holds q at the sweep points (N,), q_mids at midpoints (N-1,);
    h is the signed step.  Returns four (N-1,) arrays.
    """
    qi = q_nodes[:-1]
    qm = q_mids
    qp = q_nodes[1:]
    h2 = h * h
    h2qm = h2 * qm
    m00 = 1.0 + h2 * (qi / 6.0 + qm / 3.0) + (h2qm * h2 * qi) / 24.0
    m01 = h + h * h2qm / 6.0
    m10 = h * (qi / 6.0 + (2.0 / 3.0) * qm + qp / 6.0) + (h * h2qm * (qi + qp)) / 12.0
    m11 = 1.0 + h2 * (qm / 3.0 + qp / 6.0) + (h2qm * h2 * qp) / 24.0
    return m00, m01, m10, m11

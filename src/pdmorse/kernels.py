"""Hot inner loop of the shooting integrator.

The per-step RK4 propagators come from closed-form expressions in the
coefficient table, evaluated with vectorized numpy; the only sequential
piece is the 2x2 propagation sweep, one pure-Python loop.  It counts a node
when phi changes sign strictly (+ -> 0 -> - counts none) and rescales
(phi, phi') by 1e-250 once |phi| passes 1e250.  Each step tests the next
phi against one open range: (0, 1e250) after a positive phi, (-1e250, 0)
after a negative one, and the empty range after a zero or NaN phi (or
before the first step).  Inside it the step can count no node and need no
rescale, so it only moves (phi, phi'); any other step is the plain step,
which counts, rescales and sets the range again.  A NaN next phi lies in no
range, and NaN counts nothing, so every result is bit for bit that of the
plain step alone.

Settled tail (Sturm comparison, Pryce 1993).  Suppose that from step t on
every propagator entry is >= 0 (NaN counts as negative).  If phi, phi' >= 0
then p = m00 phi + m01 phi' and d = m10 phi + m11 phi' are >= 0 (or NaN),
rescaling keeps signs, and NaN stays NaN and counts nothing; by induction
phi never again falls below zero, so no later step counts a node.  The same
holds with both <= 0 (:func:`settled`).  A sweep that needs only the node
count may therefore stop at the first such state at or after t.  For h > 0
all four entries are >= 0 wherever q >= 0 at a step's three points, as in
the forbidden right tail.

Blocks (:func:`block_products`).  The sweep may walk products of m
consecutive step matrices instead of single steps; it then sees phi only at
block ends.  That count equals the per-step count when no block holds two
nodes.  By Sturm comparison, zeros of a solution of phi'' = q phi lie at
least pi / sqrt(max(-q)) apart, so blocks with m h sqrt(max(-q)) <= pi/2 hold
at most one; the factor 2 of margin covers the RK4 phase error, a relative
O((kh)^4) per step.  A product of non-negative matrices is non-negative, so
the settled-tail argument holds block by block.

Run ``benchmarks/bench_shooting.py`` to time the propagators, the sweep and
the oracle's counting and half-sweeps.
"""
from __future__ import annotations

import numpy as np

USE_NUMBA = False  # recorded by e2ebench/run.py; there is no compiled path

# Renormalization threshold; rescaling both components leaves nodes and
# log-derivatives unchanged while keeping the growing solution finite.
_RESCALE_LIMIT = 1e250


def settled(phi: float, dphi: float) -> bool:
    """phi and phi' of one sign: in a non-negative tail no later step adds a node."""
    return (phi >= 0.0 and dphi >= 0.0) or (phi <= 0.0 and dphi <= 0.0)


def sweep(m00, m01, m10, m11, phi0: float, dphi0: float):
    """Propagate (phi, phi') through per-step 2x2 matrices, counting nodes.

    The four entry rows are 1-D float64 arrays of one length; strided and
    reversed views are fine.  They are iterated as memoryviews, with no
    copy or dtype conversion.  Returns (phi, phi', nodes) at the last point.
    """
    lim = _RESCALE_LIMIT
    phi, dphi, nodes = float(phi0), float(dphi0), 0
    lo = hi = 0.0  # the same-sign range of the next p; empty, so the first step is plain
    # memoryviews hand out plain floats without building four lists;
    # plain-float arithmetic is several times faster than numpy scalars
    for a, b, c, e in zip(memoryview(m00), memoryview(m01), memoryview(m10), memoryview(m11)):
        p = a * phi + b * dphi
        dphi = c * phi + e * dphi
        if not lo < p < hi:  # a plain step: phi may change sign or pass the limit
            if (p < 0.0 and phi > 0.0) or (p > 0.0 and phi < 0.0):
                nodes += 1
            if p > lim or p < -lim:
                p *= 1e-250
                dphi *= 1e-250
            lo, hi = (0.0, lim) if p > 0.0 else (-lim, 0.0) if p < 0.0 else (0.0, 0.0)
        phi = p
    return phi, dphi, nodes


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
    h is the signed step.  Returns four (N-1,) arrays.  Tables of K energies
    side by side, (N, K) and (N-1, K), give four (N-1, K) arrays whose
    columns hold, bit for bit, what each energy's own tables give.
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


def block_products(steps: np.ndarray):
    """Products of consecutive step matrices, one per block of m steps, at K energies.

    steps is a C-contiguous array of shape (K, 2, 2, m, nb): entry (i, j) of
    step k of block b at energy e, with m a power of two and steps in sweep
    order along k.  The product M_{m-1} ... M_1 M_0 of each block is taken
    as a pairwise tree, one batched 2x2 product (``einsum``, the fastest
    numpy form measured for these shapes) per halving of m, for all K
    energies at once.  Each block's product depends on that block's steps
    alone, so every energy gets, bit for bit, what it gets alone.  Each
    level is a fresh array, and steps is left as it was.  Returns the four
    (K, nb) entry arrays m00, m01, m10, m11, views whose rows are contiguous.
    """
    while steps.shape[3] > 1:
        steps = np.einsum("eijkb,ejlkb->eilkb", steps[:, :, :, 1::2], steps[:, :, :, 0::2])
    return steps[:, 0, 0, 0], steps[:, 0, 1, 0], steps[:, 1, 0, 0], steps[:, 1, 1, 0]

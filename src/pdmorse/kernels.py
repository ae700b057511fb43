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


def _run(steps, phi: float, dphi: float, nodes: int):
    """Propagate (phi, phi', nodes) through a one-pass iterator of step
    entries (a, b, c, e); the sign runs advance that same iterator.
    """
    lim = _RESCALE_LIMIT
    for a, b, c, e in steps:
        while True:  # plain step, then a sign run from the state it leaves
            p = a * phi + b * dphi
            d = c * phi + e * dphi
            if (p < 0.0 and phi > 0.0) or (p > 0.0 and phi < 0.0):
                nodes += 1
            phi = p
            dphi = d
            if phi > lim or phi < -lim:
                phi *= 1e-250
                dphi *= 1e-250
            if phi > 0.0:
                for a, b, c, e in steps:
                    p = a * phi + b * dphi
                    if p <= 0.0 or p > lim:
                        break  # this step takes the plain branch
                    dphi = c * phi + e * dphi
                    phi = p
                else:
                    return phi, dphi, nodes
            elif phi < 0.0:
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


def settled(phi: float, dphi: float) -> bool:
    """phi and phi' of one sign: in a non-negative tail no later step adds a node."""
    return (phi >= 0.0 and dphi >= 0.0) or (phi <= 0.0 and dphi <= 0.0)


def sweep(m00, m01, m10, m11, phi0: float, dphi0: float):
    """Propagate (phi, phi') through per-step 2x2 matrices, counting nodes.

    The four entry rows are 1-D float64 arrays of one length; strided and
    reversed views are fine.  They are iterated as memoryviews, with no
    copy or dtype conversion.  Returns (phi, phi', nodes) at the last point.
    """
    # memoryviews hand out plain floats without building four lists;
    # plain-float arithmetic is several times faster than numpy scalars
    return _run(zip(memoryview(m00), memoryview(m01), memoryview(m10), memoryview(m11)),
                float(phi0), float(dphi0), 0)


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


def block_products(steps: np.ndarray, work: np.ndarray):
    """Products of consecutive step matrices, one per block of m steps, at K energies.

    steps is a C-contiguous array of shape (K, 2, 2, m, nb): entry (i, j) of
    step k of block b at energy e, with m a power of two and steps in sweep
    order along k.  The product M_{m-1} ... M_1 M_0 of each block is taken
    as a pairwise tree, one batched 2x2 product (``einsum``, the fastest
    numpy form measured for these shapes) per halving of m, for all K
    energies at once.  Each block's product depends on that block's steps
    alone, so every energy gets, bit for bit, what it gets alone.  The
    levels are written alternately into work, a flat float array of at
    least steps.size // 2 entries, and into the memory of steps, which they
    overwrite.  Returns the four (K, nb) entry arrays m00, m01, m10, m11,
    views into one of the two whose rows are contiguous.
    """
    spare = work
    while steps.shape[3] > 1:
        count, m, nb = steps.shape[0], steps.shape[3] // 2, steps.shape[4]
        out = spare[:count * 4 * m * nb].reshape(count, 2, 2, m, nb)
        np.einsum("eijkb,ejlkb->eilkb", steps[:, :, :, 1::2], steps[:, :, :, 0::2], out=out)
        spare, steps = steps.reshape(-1), out
    return steps[:, 0, 0, 0], steps[:, 0, 1, 0], steps[:, 1, 0, 0], steps[:, 1, 1, 0]

"""Hot inner loop of the shooting integrator.

The per-step RK4 propagators come from closed-form expressions in the
coefficient table, evaluated with vectorized numpy; the only sequential
piece is the 2x2 propagation sweep below.  It is compiled with numba when
available, with a pure-Python fallback selected automatically or forced via
the environment flag ``PDMORSE_DISABLE_NUMBA=1``.  Both sweep paths perform
the identical arithmetic.  Run ``benchmarks/bench_shooting.py`` to time the
propagators and compare the sweeps.
"""
from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit
    HAS_NUMBA = True
except ImportError:  # pragma: no cover - environment dependent
    njit = None
    HAS_NUMBA = False

_DISABLE = os.environ.get("PDMORSE_DISABLE_NUMBA", "").strip().lower() in ("1", "true", "yes")
USE_NUMBA = HAS_NUMBA and not _DISABLE

# Renormalization threshold; rescaling both components leaves nodes and
# log-derivatives unchanged while keeping the growing solution finite.
_RESCALE_LIMIT = 1e250


def sweep_python(m00, m01, m10, m11, phi0: float, dphi0: float):
    """Propagate (phi, phi') through per-step 2x2 matrices, counting nodes."""
    # list conversion: plain-float arithmetic is several times faster than
    # numpy scalar indexing in the interpreter
    a00 = m00.tolist()
    a01 = m01.tolist()
    a10 = m10.tolist()
    a11 = m11.tolist()
    phi = float(phi0)
    dphi = float(dphi0)
    nodes = 0
    for i in range(len(a00)):
        p = a00[i] * phi + a01[i] * dphi
        d = a10[i] * phi + a11[i] * dphi
        if (p < 0.0 and phi > 0.0) or (p > 0.0 and phi < 0.0):
            nodes += 1
        phi = p
        dphi = d
        if phi > _RESCALE_LIMIT or phi < -_RESCALE_LIMIT:
            phi *= 1e-250
            dphi *= 1e-250
    return phi, dphi, nodes


if HAS_NUMBA:
    @njit(cache=True)
    def _sweep_numba(a00, a01, a10, a11, phi0, dphi0):  # pragma: no cover - jitted
        phi = phi0
        dphi = dphi0
        nodes = 0
        for i in range(a00.shape[0]):
            p = a00[i] * phi + a01[i] * dphi
            d = a10[i] * phi + a11[i] * dphi
            if (p < 0.0 and phi > 0.0) or (p > 0.0 and phi < 0.0):
                nodes += 1
            phi = p
            dphi = d
            if phi > 1e250 or phi < -1e250:
                phi *= 1e-250
                dphi *= 1e-250
        return phi, dphi, nodes

    def sweep_numba(m00, m01, m10, m11, phi0: float, dphi0: float):
        return _sweep_numba(np.ascontiguousarray(m00), np.ascontiguousarray(m01),
                            np.ascontiguousarray(m10), np.ascontiguousarray(m11),
                            float(phi0), float(dphi0))
else:  # pragma: no cover - environment dependent
    sweep_numba = None


def sweep(m00, m01, m10, m11, phi0: float, dphi0: float):
    """Dispatch to the compiled sweep when enabled, else the Python fallback."""
    if USE_NUMBA:
        return sweep_numba(m00, m01, m10, m11, phi0, dphi0)
    return sweep_python(m00, m01, m10, m11, phi0, dphi0)


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

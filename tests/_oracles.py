"""Independent reference implementations used only by the tests.

These deliberately avoid the library code paths they check: the Jacobi
oracle is the explicit finite sum, derivatives come from Richardson-style
central differences, integrals from the composite trapezoid rule, RK4
propagators from composed stage matrices, and eigenvalues from plain
per-level bisection on node counts.
"""
from __future__ import annotations

import numpy as np


def jacobi_finite_sum(n: int, p: float, q: float, x: float) -> float:
    """P_n^{(p,q)}(x) from the explicit finite-sum formula.

    sum_k C(n+p, n-k) C(n+q, k) ((x-1)/2)^k ((x+1)/2)^{n-k}, with generalized
    binomials evaluated as running products.  Accurate for moderate n, p, q.
    """
    total = 0.0
    for k in range(n + 1):
        c1 = 1.0
        for j in range(1, n - k + 1):
            c1 *= (n + p - j + 1) / j
        c2 = 1.0
        for j in range(1, k + 1):
            c2 *= (n + q - j + 1) / j
        total += c1 * c2 * ((x - 1.0) / 2.0) ** k * ((x + 1.0) / 2.0) ** (n - k)
    return total


def fd_derivative(f, x: float, order: int = 1, h: float = 1e-5) -> float:
    """Central finite-difference first or second derivative with one Richardson step."""
    def d1(step):
        return (f(x + step) - f(x - step)) / (2.0 * step)

    def d2(step):
        return (f(x + step) - 2.0 * f(x) + f(x - step)) / step**2

    base = d1 if order == 1 else d2
    coarse = base(h)
    fine = base(h / 2.0)
    return fine + (fine - coarse) / 3.0


def trapezoid_norm(values: np.ndarray, x: np.ndarray) -> float:
    """integral of |values|^2 dx by the trapezoid rule."""
    return float(np.trapezoid(np.abs(values) ** 2, x))


def rk4_propagators_matmul(q_nodes: np.ndarray, q_mids: np.ndarray, h: float):
    """RK4 step matrices for phi'' = q phi built by composing the stage operators.

    Same contract as ``kernels.rk4_propagators``: four (N-1,) arrays.
    """
    qi = q_nodes[:-1]
    qm = q_mids
    qp = q_nodes[1:]
    n = qi.shape[0]
    a_i = np.zeros((n, 2, 2))
    a_i[:, 0, 1] = 1.0
    a_i[:, 1, 0] = qi
    a_m = np.zeros((n, 2, 2))
    a_m[:, 0, 1] = 1.0
    a_m[:, 1, 0] = qm
    a_p = np.zeros((n, 2, 2))
    a_p[:, 0, 1] = 1.0
    a_p[:, 1, 0] = qp
    ident = np.zeros((n, 2, 2))
    ident[:, 0, 0] = 1.0
    ident[:, 1, 1] = 1.0
    k1 = a_i
    k2 = a_m @ (ident + (h / 2.0) * k1)
    k3 = a_m @ (ident + (h / 2.0) * k2)
    k4 = a_p @ (ident + h * k3)
    m = ident + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return (np.ascontiguousarray(m[:, 0, 0]), np.ascontiguousarray(m[:, 0, 1]),
            np.ascontiguousarray(m[:, 1, 0]), np.ascontiguousarray(m[:, 1, 1]))


def bisect_level(count_nodes, n: int, e_lo: float, e_hi: float, tol_ev: float) -> float:
    """Level n by bisection on node counts from the full window, alone.

    Returns the midpoint of the final bracket, which lies within tol_ev/2 of
    the energy where count_nodes steps from n to n + 1.
    """
    lo, hi = e_lo, e_hi
    assert count_nodes(lo) <= n < count_nodes(hi)
    while hi - lo > tol_ev:
        mid = 0.5 * (lo + hi)
        if count_nodes(mid) >= n + 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)

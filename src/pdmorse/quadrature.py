"""Adaptive Gauss quadrature used as the independent normalization oracle."""
from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureFailure

_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(10)
_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(21)


def _panel(f, a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    lo = half * float(np.sum(_WEIGHTS_LO * f(half * _NODES_LO + mid)))
    hi = half * float(np.sum(_WEIGHTS_HI * f(half * _NODES_HI + mid)))
    return hi, abs(hi - lo)


def adaptive_gauss(f, a: float, b: float, tol: float = 1e-10, max_panels: int = 4096) -> float:
    """Integrate a vectorized callable on [a, b] to absolute tolerance tol.

    Panels are bisected where the low/high-order Gauss rules disagree, with
    the error budget split proportionally to panel width.  A non-finite panel
    value or more than max_panels panels raises QuadratureFailure.
    """
    stack = [(a, b, tol)]
    total = 0.0
    panels = 0
    while stack:
        lo, hi, budget = stack.pop()
        value, err = _panel(f, lo, hi)
        panels += 1
        if not math.isfinite(value):
            raise QuadratureFailure(f"integrand not finite on [{lo:.6g}, {hi:.6g}]")
        if panels > max_panels:
            raise QuadratureFailure(f"adaptive quadrature exceeded {max_panels} panels")
        if err <= budget or (hi - lo) < 1e-14:
            total += value
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid, budget / 2))
            stack.append((mid, hi, budget / 2))
    return total


def integrate_with_endpoint_power(f, exponent: float, upper: float = 1.0,
                                  tol: float = 1e-10) -> float:
    """Integrate f(z) ~ z**exponent near z = 0 over (0, upper).

    For exponent in (-1, 0) the substitution z = t**k with
    k = ceil(1/(1+exponent)) + 1 turns the integrable endpoint power into a
    smooth integrand, so the rule can run from 0 (Gauss nodes never touch the
    endpoints); for exponent >= 0 no substitution is needed.
    """
    if exponent <= -1:
        raise ValueError(f"non-integrable endpoint power {exponent}")
    if exponent >= 0:
        return adaptive_gauss(f, 0.0, upper, tol=tol)
    k = int(np.ceil(1.0 / (1.0 + exponent))) + 1

    def g(t):
        t = np.asarray(t, dtype=float)
        return f(t**k) * k * t ** (k - 1)

    return adaptive_gauss(g, 0.0, upper ** (1.0 / k), tol=tol)

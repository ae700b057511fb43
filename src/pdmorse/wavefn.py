"""Jacobi polynomials and the analytic eigenfunctions of the reduced equation.

The transformed equation (z = exp(-beta x), 0 < z < 1/eta natural range)

    phi'' + [(1 - eta z)/(z (1 - eta z))] phi'
          + [(-eps1 z^2 - eps2 z - eps)/(z (1 - eta z))^2] phi = 0

has indicial exponents +/- sqrt(eps) at z = 0, giving two eigenfunction
branches.  Each sign convention below is the fully self-consistent chain for
one branch (weight, xi factor and Jacobi parameter flip together;
:func:`_jacobi_pq` is the one place that picks the sign):

* PRINTED  — xi ~ z^{-sqrt(eps)}, Jacobi second parameter -2 sqrt(eps).
  This branch diverges at the origin (x -> infinity) for eps > 0.
* NORMALIZABLE   — xi ~ z^{+sqrt(eps)}, Jacobi second parameter +2 sqrt(eps).
  Bounded at the origin; at the ``nu_consistent_epsilon`` eigenvalue it
  solves the equation to the finite-difference floor.

Outputs must record which convention produced them.
"""
from __future__ import annotations

import enum
import math
from dataclasses import replace

import numpy as np

from .analytic import BoundState
from .errors import DomainUnsupported, NormOverflow
from .model import ReducedSystem
from .quadrature import integrate_with_endpoint_power

JACOBI_MAX_DEGREE = 200
_RESCALE_AT = 1e150
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


class SignConvention(enum.Enum):
    PRINTED = "printed"
    NORMALIZABLE = "normalizable"


def jacobi(n: int, p: float, q: float, x):
    """Jacobi polynomial P_n^{(p,q)}(x) by the three-term recurrence.

    Pointwise evaluation for any real p, q; degree capped at 200 to guard
    overflow of the recurrence coefficients.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    if n > JACOBI_MAX_DEGREE:
        raise ValueError(f"degree {n} above guard limit {JACOBI_MAX_DEGREE}")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if n == 0:
        out = np.ones_like(x)
        return float(out[0]) if scalar else out
    prev = np.ones_like(x)
    cur = 0.5 * ((p + q + 2.0) * x + (p - q))
    for k in range(2, n + 1):
        t = 2.0 * k + p + q
        a = 2.0 * k * (k + p + q) * (t - 2.0)
        b1 = (t - 1.0) * (p * p - q * q)
        b2 = (t - 1.0) * t * (t - 2.0)
        c = 2.0 * (k + p - 1.0) * (k + q - 1.0) * t
        prev, cur = cur, ((b1 + b2 * x) * cur - c * prev) / a
    return float(cur[0]) if scalar else cur


def _scaled_laguerre(n: int, alpha: float, t: np.ndarray):
    """Generalized Laguerre L_n^{(alpha)}(t) as (mantissa, log scale) per point.

    L_n = mantissa * exp(log_scale).  The three-term recurrence is divided
    through at a point whenever |L_k| passes 1e150 there, so deep levels
    neither overflow nor lose their sign.
    """
    prev = np.ones_like(t)
    log_scale = np.zeros_like(t)
    if n == 0:
        return prev, log_scale
    cur = 1.0 + alpha - t
    for k in range(2, n + 1):
        prev, cur = cur, ((2 * k - 1 + alpha - t) * cur - (k - 1 + alpha) * prev) / k
        big = np.abs(cur) > _RESCALE_AT
        if big.any():
            factor = np.where(big, np.abs(cur), 1.0)
            cur /= factor
            prev /= factor
            log_scale += np.log(factor)
    return cur, log_scale


def _jacobi_pq(state: BoundState, convention: SignConvention) -> tuple[float, float]:
    """Jacobi parameters (p, q) of an eta > 0 eigenfunction on the chosen branch.

    p is A_tilde; q is -2 sqrt(eps) on the printed branch and +2 sqrt(eps) on
    the normalizable one (the indicial branch flips the weight exponent with
    the xi factor).  (n, p, q, eta) fix both phi and its norm.
    """
    two_s = 2.0 * math.sqrt(state.eps_nl)
    return state.A_tilde, (-two_s if convention is SignConvention.PRINTED else two_s)


def _phi_pq(n: int, p: float, q: float, eta: float, z, norm: float):
    """norm * z^{q/2} (1 - eta z)^{(1+p)/2} P_n^{(p,q)}(2 eta z - 1) on (0, 1/eta)."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z <= 0.0) or np.any(z * eta >= 1.0):
        raise ValueError("z must lie strictly inside (0, 1/eta)")
    xi = z ** (q / 2.0) * (1.0 - eta * z) ** (0.5 * (1.0 + p))
    return norm * xi * jacobi(n, p, q, 2.0 * eta * z - 1.0)


def phi(sys: ReducedSystem, state: BoundState, z,
        convention: SignConvention = SignConvention.NORMALIZABLE):
    """Assembled eigenfunction norm * xi(z) * P_n(2 eta z - 1).

    Uses state.norm_const when set, otherwise an unnormalized amplitude of 1.
    For eta = 0 the Jacobi factor degenerates and :func:`phi_eta0` is returned.
    """
    if sys.eta == 0.0:
        return phi_eta0(sys, state, z)
    p, q = _jacobi_pq(state, convention)
    norm = state.norm_const if state.norm_const is not None else 1.0
    out = _phi_pq(state.n, p, q, sys.eta, z, norm)
    return float(out[0]) if np.ndim(z) == 0 else out


def phi_eta0(sys: ReducedSystem, state: BoundState, z):
    """Constant-mass eigenfunction N z^{s} exp(-W z) L_n^{(2s)}(2 W z), W = sqrt(eps1).

    N is state.norm_const (1 when unset).  The amplitude is assembled in log
    space, sign(L) exp(log N + s log z - W z + log|L~| + log scale), with L~
    the rescaled Laguerre recurrence, so a deep level whose factors overflow
    or underflow on their own still evaluates to its finite product.
    """
    if sys.eta != 0.0:
        raise ValueError("phi_eta0 requires an eta = 0 system")
    zz = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(zz <= 0.0):
        raise ValueError("z must be positive")
    s = math.sqrt(state.eps_nl)
    w = math.sqrt(sys.eps1)
    norm = state.norm_const if state.norm_const is not None else 1.0
    lag, log_scale = _scaled_laguerre(state.n, 2.0 * s, 2.0 * w * zz)
    with np.errstate(divide="ignore"):
        log_amp = (np.log(abs(norm)) + s * np.log(zz) - w * zz
                   + np.log(np.abs(lag)) + log_scale)
    out = math.copysign(1.0, norm) * np.sign(lag) * np.exp(log_amp)
    return float(out[0]) if np.ndim(z) == 0 else out


def _norm_from_log(log_norm: float, what: str) -> float:
    if log_norm > _LOG_FLOAT_MAX:
        raise NormOverflow(
            f"normalization constant exp({log_norm:.6g}) overflows a float for {what}")
    return math.exp(log_norm)


def norm_const_eta0(sys: ReducedSystem, state: BoundState) -> float:
    """Closed-form eta = 0 normalization of :func:`phi_eta0` over z in (0, inf).

    Laguerre orthogonality (DLMF 18.3) gives
    int z^{2s} e^{-2Wz} [L_n^{(2s)}(2Wz)]^2 dz = Gamma(n+2s+1) / (n! (2W)^{2s+1}),
    so log N = [(2s+1) log 2W + lgamma(n+1) - lgamma(n+2s+1)] / 2.  Raises
    NormOverflow (a DomainUnsupported) when N exceeds the largest float.
    """
    n = state.n
    two_s = 2.0 * math.sqrt(state.eps_nl)
    log_norm = 0.5 * ((two_s + 1.0) * math.log(2.0 * math.sqrt(sys.eps1))
                      + math.lgamma(n + 1.0) - math.lgamma(n + two_s + 1.0))
    return _norm_from_log(log_norm, f"eta = 0 level n={n}")


def norm_const(n: int, p: float, q: float, eta: float) -> float:
    """Closed-form normalization constant of phi over z in (0, 1/eta).

    Evaluates 1/sqrt(I) with
    I = (2 eta)^{-(q+1)} 2^{-(1+p)} h_n (1 - b_n),
    h_n the squared Jacobi norm and b_n the diagonal recurrence coefficient
    (the extra (1-x) moment of the xi^2 factor), for the Jacobi parameters
    (p, q) of :func:`_jacobi_pq`.  Raises DomainUnsupported when
    phi^2 ~ z^q is not integrable at the origin (q <= -1: the printed branch
    with sqrt(eps) >= 1/2) or a gamma argument is non-positive, and its
    subclass NormOverflow when the constant exceeds the largest float.
    """
    if q <= -1.0:
        raise DomainUnsupported(f"phi^2 ~ z^{q:.3g} not integrable at the origin")
    gamma_args = (n + p + 1.0, n + q + 1.0, n + p + q + 1.0, 2.0 * n + p + q + 1.0, p + q + 2.0)
    if any(arg <= 0.0 for arg in gamma_args):
        raise DomainUnsupported(
            f"gamma arguments non-positive for n={n}, p={p:.6g}, q={q:.6g}")
    log_h = ((p + q + 1.0) * math.log(2.0)
             + math.lgamma(n + p + 1.0) + math.lgamma(n + q + 1.0)
             - math.lgamma(n + 1.0) - math.lgamma(n + p + q + 1.0)
             - math.log(2.0 * n + p + q + 1.0))
    if n == 0:
        bn = (q - p) / (p + q + 2.0)
    else:
        bn = -(p - q) * (p + q) / ((2 * n + p + q) * (2 * n + p + q + 2.0))
    one_minus_bn = 1.0 - bn
    if one_minus_bn <= 0.0:
        raise DomainUnsupported(f"non-positive norm integral for n={n}")
    log_i = (-(q + 1.0) * math.log(2.0 * eta) - (1.0 + p) * math.log(2.0)
             + log_h + math.log(one_minus_bn))
    return _norm_from_log(-0.5 * log_i, f"n={n}, p={p:.6g}, q={q:.6g}")


def norm_const_quadrature(n: int, p: float, q: float, eta: float) -> float:
    """Normalization from direct quadrature of phi^2 over z in (0, 1/eta).

    Independent oracle for :func:`norm_const`, over the same interval.  A
    coarse first pass (one Gauss panel) sets the scale of the integral and
    the second pass runs to 1e-10 of it, so a level whose integral 1/N^2
    lies far below 1e-10 is still resolved.  Requires the endpoint power
    q > -1 (the printed branch thus needs sqrt(eps) < 1/2).
    """
    if q <= -1.0:
        raise DomainUnsupported(f"phi^2 ~ z^{q:.3g} not integrable at the origin")

    def f(z):
        val = _phi_pq(n, p, q, eta, z, 1.0)
        return val * val

    upper = 1.0 / eta
    scale = integrate_with_endpoint_power(f, q, upper, tol=math.inf)
    integral = integrate_with_endpoint_power(f, q, upper, tol=1e-10 * scale)
    if not integral > 0.0:
        raise DomainUnsupported(f"phi^2 integral {integral:.3g} is not positive for n={n}")
    return 1.0 / math.sqrt(integral)


def attach_norm(sys: ReducedSystem, state: BoundState,
                convention: SignConvention = SignConvention.NORMALIZABLE) -> BoundState:
    """Return the state with norm_const filled from its closed form.

    At eta = 0 this is the Laguerre constant :func:`norm_const_eta0` (the
    convention does not apply), for eta > 0 the gamma constant
    :func:`norm_const`.  Both raise DomainUnsupported where the state has no
    finite constant; :func:`norm_const_quadrature` is the independent oracle
    the tests compare against.
    """
    if sys.eta == 0.0:
        value = norm_const_eta0(sys, state)
    else:
        value = norm_const(state.n, *_jacobi_pq(state, convention), sys.eta)
    return replace(state, norm_const=value)

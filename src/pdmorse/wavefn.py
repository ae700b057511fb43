"""Analytic eigenfunctions of the reduced equation and their normalization.

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

For eta > 0 the polynomial factor is a Jacobi polynomial; at eta = 0 (constant
mass) it is a generalized Laguerre polynomial, and only the bounded branch
exists.  Both families run through one rescaled three-term recurrence,
:func:`_scaled_recurrence`, and one log-space assembly, :func:`_log_space`.
Outputs must record which convention produced them.  :func:`physical_psi`
turns an eigenfunction into psi = sqrt(m) phi.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np

from .analytic import BoundState, SignConvention
from .errors import DomainUnsupported, NormOverflow
from .model import MassModel, ReducedSystem

_RESCALE_AT = 1e150
# Rescaling test stride.  One step of a_k y_k = (b1_k + b2_k x) y_{k-1} - c_k y_{k-2}
# multiplies max(|y_k|, |y_{k-1}|) by at most max(1, (|b1| + |b2 x| + |c|) / |a|),
# and any 16 consecutive steps by at most
# * Jacobi, |x| <= 1 and p, q in [-0.99, 1e6]: 1e85 (largest at p = q = 1e6;
#   the Q_k form of _scaled_recurrence, 1e83);
# * Laguerre, t = 2 W z with z < 1 (the CLI samples z in (0, 1)) and
#   alpha = 2 sqrt(eps) <= 2 W, W = sqrt(eps1): 1e78 for W <= 1e5 and 1e142
#   for W <= 1e9 (the Q_k form, 1e71 and 1e135),
# so values last brought under 1e150 stay short of overflow (1.8e308).
# Outside these ranges an overflow comes out non-finite, and _log_space raises.
_RESCALE_STRIDE = 16
# Up to this degree the recurrence runs in the plain operation order, so the
# outputs of those levels stay the same bit for bit.
_PLAIN_DEGREE = 200
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
_FLOAT_TINY = np.finfo(float).tiny  # smallest normal float


def _rescale(cur: np.ndarray, prev: np.ndarray, log_scale: np.ndarray) -> None:
    """Divide y_k and y_{k-1} through, in place, where either has passed 1e150.

    Both are tested because near a root of y_k the larger one is y_{k-1}.
    """
    size = np.maximum(np.abs(cur), np.abs(prev))
    big = size > _RESCALE_AT
    if big.any():
        factor = np.where(big, size, 1.0)
        cur /= factor
        prev /= factor
        log_scale += np.log(factor)


def _scaled_recurrence(n: int, first: np.ndarray, a: np.ndarray, b1: np.ndarray,
                       b2: np.ndarray, c: np.ndarray, x: np.ndarray):
    """y_n of a_k y_k = (b1_k + b2_k x) y_{k-1} - c_k y_{k-2}, y_0 = 1, y_1 = first.

    The coefficients hold k = 2..n; first is overwritten.  Returns (mantissa,
    log scale) per point of the 1-D array x, with :func:`_rescale` every
    _RESCALE_STRIDE steps.  Up to degree _PLAIN_DEGREE, and wherever some
    c_k/a_k <= 0, each step computes ((b1 + b2 x) y_{k-1} - c y_{k-2}) / a
    in place in that order, so a point never rescaled (log scale 0) carries
    the plain recurrence's bits.  Otherwise it runs on Q_k = y_k / D_k,
    D_k = (c/a)_k D_{k-2} > 0, D_0 = D_1 = 1: Q_k = (b2 x + b1) Q_{k-1} - Q_{k-2}
    with b1, b2 divided by a_k D_k / D_{k-1} takes four array operations per
    step instead of six, and log D_n joins the log scale.
    """
    prev = np.ones_like(x)
    log_scale = np.zeros_like(x)
    if n == 0:
        return prev, log_scale
    cur, tmp = first, np.empty_like(x)
    g = c / a
    plain = n <= _PLAIN_DEGREE or not np.all((g > 0.0) & (g < math.inf))
    log_d = 0.0
    if not plain:  # D_k / D_{k-1} = (c/a)_k / (D_{k-1} / D_{k-2})
        ratio = np.array(list(itertools.accumulate(g.tolist(), lambda r, gk: gk / r,
                                                   initial=1.0))[1:])
        b1, b2 = b1 / a / ratio, b2 / a / ratio
        log_d = np.log(ratio).sum()
    for k, ak, b1k, b2k, ck in zip(range(2, n + 1), a.tolist(), b1.tolist(), b2.tolist(),
                                   c.tolist()):
        np.multiply(b2k, x, out=tmp)
        tmp += b1k
        tmp *= cur
        if plain:
            prev *= ck
        tmp -= prev
        if plain:
            tmp /= ak
        prev, cur, tmp = cur, tmp, prev
        if k % _RESCALE_STRIDE == 0:
            _rescale(cur, prev, log_scale)
    log_scale += log_d
    return cur, log_scale


def _scaled_jacobi(n: int, p: float, q: float, x: np.ndarray):
    """P_n^{(p,q)}(x) as (mantissa, log scale) per point of the 1-D array x."""
    ks = np.arange(2, n + 1)
    t = 2.0 * ks + p + q
    return _scaled_recurrence(n, 0.5 * ((p + q + 2.0) * x + (p - q)),
                              2.0 * ks * (ks + p + q) * (t - 2.0),
                              (t - 1.0) * (p * p - q * q), (t - 1.0) * t * (t - 2.0),
                              2.0 * (ks + p - 1.0) * (ks + q - 1.0) * t, x)


def _scaled_laguerre(n: int, alpha: float, t: np.ndarray):
    """Generalized Laguerre L_n^{(alpha)}(t) as (mantissa, log scale) per point."""
    ks = np.arange(2, n + 1)
    return _scaled_recurrence(n, 1.0 + alpha - t, ks.astype(float), 2 * ks - 1 + alpha,
                              np.full(ks.size, -1.0), ks - 1 + alpha, t)


def _jacobi_pq(state: BoundState, convention: SignConvention) -> tuple[float, float]:
    """Jacobi parameters (p, q) of an eta > 0 eigenfunction on the chosen branch.

    p is A_tilde; q is -2 sqrt(eps) on the printed branch and +2 sqrt(eps) on
    the normalizable one (the indicial branch flips the weight exponent with
    the xi factor).  (n, p, q, eta) fix both phi and its norm.
    """
    two_s = 2.0 * math.sqrt(state.eps_nl)
    return state.A_tilde, (-two_s if convention is SignConvention.PRINTED else two_s)


def _log_space(norm: float, log_factors, poly: np.ndarray, log_scale: np.ndarray,
               what: str) -> np.ndarray:
    """sign(norm) sign(P) exp(log|norm| + sum(log_factors) + log|P| + log scale).

    P is a recurrence mantissa.  The terms are summed left to right in that
    order; a value that is not finite raises DomainUnsupported.
    """
    with np.errstate(over="ignore", invalid="ignore", under="ignore", divide="ignore"):
        log_amp = np.log(abs(norm))
        for term in log_factors:
            log_amp = log_amp + term
        out = (math.copysign(1.0, norm) * np.sign(poly)
               * np.exp(log_amp + np.log(np.abs(poly)) + log_scale))
    if not np.all(np.isfinite(out)):
        raise DomainUnsupported(f"eigenfunction {what} is not finite in float range")
    return out


def _phi_pq(n: int, p: float, q: float, eta: float, z, norm: float):
    """norm * z^{q/2} (1 - eta z)^{(1+p)/2} P_n^{(p,q)}(2 eta z - 1) on (0, 1/eta).

    The plain product serves every point whose recurrence was never
    rescaled, whose other factors stayed in the normal float range and
    whose product is finite; :func:`_log_space` assembles the others.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z <= 0.0) or np.any(z * eta >= 1.0):
        raise ValueError("z must lie strictly inside (0, 1/eta)")
    jac, log_scale = _scaled_jacobi(n, p, q, 2.0 * eta * z - 1.0)
    with np.errstate(over="ignore", invalid="ignore", under="ignore", divide="ignore"):
        z_part = z ** (q / 2.0)
        eta_part = (1.0 - eta * z) ** (0.5 * (1.0 + p))
        xi = z_part * eta_part
        amplitude = norm * xi
        out = amplitude * jac
        # the plain product is exact to rounding only where every factor
        # before the last stayed in the normal float range
        normal = ((z_part >= _FLOAT_TINY) & (eta_part >= _FLOAT_TINY) & (xi >= _FLOAT_TINY)
                  & (np.abs(amplitude) >= _FLOAT_TINY))
        redo = (log_scale != 0.0) | ~normal | ~np.isfinite(out)
        if redo.any():
            zr = z[redo]
            out[redo] = _log_space(
                norm, ((q / 2.0) * np.log(zr), (0.5 * (1.0 + p)) * np.log(1.0 - eta * zr)),
                jac[redo], log_scale[redo], f"n={n}, p={p:.6g}, q={q:.6g}")
    return out


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

    N is state.norm_const (1 when unset).  :func:`_log_space` assembles every
    point, so a deep level whose factors overflow or underflow on their own
    still evaluates to its finite product.
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
    out = _log_space(norm, (s * np.log(zz), -w * zz), lag, log_scale, f"n={state.n} at eta = 0")
    return float(out[0]) if np.ndim(z) == 0 else out


def physical_psi(mm: MassModel, x, phi_values):
    """psi(x) = sqrt(m(x)) * phi(x), pointwise."""
    return np.sqrt(mm.mass(x)) * np.asarray(phi_values, dtype=float)


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
    from .quadrature import integrate_with_endpoint_power

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

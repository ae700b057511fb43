"""Jacobi polynomials and the analytic eigenfunctions of the reduced equation.

The transformed equation (z = exp(-beta x), 0 < z < 1/eta natural range)

    phi'' + [(1 - eta z)/(z (1 - eta z))] phi'
          + [(-eps1 z^2 - eps2 z - eps)/(z (1 - eta z))^2] phi = 0

has indicial exponents +/- sqrt(eps) at z = 0, giving two eigenfunction
branches.  Each sign convention below is the fully self-consistent chain for
one branch (weight, xi factor and Jacobi parameter flip together):

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
from dataclasses import dataclass, replace

import numpy as np

from .analytic import BoundState, a_tilde
from .errors import DomainUnsupported, NormOverflow
from .model import ReducedSystem
from .quadrature import integrate_with_endpoint_power

JACOBI_MAX_DEGREE = 200
_RESCALE_AT = 1e150
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


class SignConvention(enum.Enum):
    PRINTED = "printed"
    NORMALIZABLE = "normalizable"


@dataclass(frozen=True)
class EigenfunctionParams:
    """Parameters of one analytic eigenfunction.

    jacobi_p is always A_tilde; jacobi_q is -2*sqrt_eps for the printed
    convention and +2*sqrt_eps for the normalizable one (the indicial branch
    flips the weight exponent along with the xi factor).  sqrt_eps is kept
    non-negative.
    """

    n: int
    sqrt_eps: float
    A_tilde: float
    eta: float
    sign_convention: SignConvention

    def __post_init__(self):
        if self.sqrt_eps < 0:
            raise ValueError("sqrt_eps must be non-negative")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eigenfunction parameters require 0 < eta < 1")

    @property
    def jacobi_p(self) -> float:
        return self.A_tilde

    @property
    def jacobi_q(self) -> float:
        if self.sign_convention is SignConvention.PRINTED:
            return -2.0 * self.sqrt_eps
        return 2.0 * self.sqrt_eps

    @property
    def z_exponent(self) -> float:
        """Exponent of z in the xi factor: -sqrt_eps printed, +sqrt_eps normalizable."""
        return self.jacobi_q / 2.0

    @property
    def bounded_at_origin(self) -> bool:
        return self.z_exponent >= 0

    @classmethod
    def from_state(cls, sys: ReducedSystem, state: BoundState,
                   convention: SignConvention) -> "EigenfunctionParams":
        at = state.A_tilde if state.A_tilde is not None else a_tilde(sys, state.eps_nl)
        return cls(n=state.n, sqrt_eps=math.sqrt(state.eps_nl), A_tilde=at,
                   eta=sys.eta, sign_convention=convention)


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


def _check_z_open_unit(z) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z <= 0.0) or np.any(z >= 1.0):
        raise ValueError("z must lie strictly inside (0, 1)")
    return z


def _branch(sys: ReducedSystem, eps: float, convention: SignConvention):
    """(e, A_tilde): the z-exponent e = -/+ sqrt(eps) of xi by convention, and A_tilde."""
    at = a_tilde(sys, eps)
    s = math.sqrt(eps)
    return (-s if convention is SignConvention.PRINTED else s), at


def weight_rho(sys: ReducedSystem, eps: float, z,
               convention: SignConvention = SignConvention.PRINTED):
    """Weight function z^{2 e}(1 - eta z)^{A_tilde} with e the branch exponent.

    The printed convention gives the z^{-2 sqrt(eps)} form.
    """
    zz = _check_z_open_unit(z)
    e, at = _branch(sys, eps, convention)
    out = zz ** (2.0 * e) * (1.0 - sys.eta * zz) ** at
    return float(out[0]) if np.ndim(z) == 0 else out


def xi_part(sys: ReducedSystem, eps: float, z,
            convention: SignConvention = SignConvention.PRINTED):
    """xi(z) = z^{e} (1 - eta z)^{(1 + A_tilde)/2}, e = -/+ sqrt(eps) by convention.

    The printed branch diverges as z -> 0 for eps > 0; callers can consult
    EigenfunctionParams.bounded_at_origin for the flag.
    """
    zz = _check_z_open_unit(z)
    e, at = _branch(sys, eps, convention)
    out = zz**e * (1.0 - sys.eta * zz) ** (0.5 * (1.0 + at))
    return float(out[0]) if np.ndim(z) == 0 else out


def _phi_params(params: EigenfunctionParams, z, norm: float = 1.0):
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z <= 0.0) or np.any(z * params.eta >= 1.0):
        raise ValueError("z must lie strictly inside (0, 1/eta)")
    xi = z ** params.z_exponent * (1.0 - params.eta * z) ** (0.5 * (1.0 + params.A_tilde))
    poly = jacobi(params.n, params.jacobi_p, params.jacobi_q, 2.0 * params.eta * z - 1.0)
    return norm * xi * poly


def phi(sys: ReducedSystem, state: BoundState, z,
        convention: SignConvention = SignConvention.NORMALIZABLE):
    """Assembled eigenfunction norm * xi(z) * P_n(2 eta z - 1).

    Uses state.norm_const when set, otherwise an unnormalized amplitude of 1.
    For eta = 0 the Jacobi factor degenerates and :func:`phi_eta0` is returned.
    """
    if sys.eta == 0.0:
        return phi_eta0(sys, state, z)
    params = EigenfunctionParams.from_state(sys, state, convention)
    norm = state.norm_const if state.norm_const is not None else 1.0
    out = _phi_params(params, z, norm)
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


def _gamma_args(params: EigenfunctionParams) -> tuple[float, ...]:
    p, q, n = params.jacobi_p, params.jacobi_q, params.n
    return (n + p + 1.0, n + q + 1.0, n + p + q + 1.0, 2.0 * n + p + q + 1.0, p + q + 2.0)


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


def norm_const(params: EigenfunctionParams) -> float:
    """Closed-form normalization constant b'_n for the unit z-integral.

    Evaluates 1/sqrt(I) with
    I = (2 eta)^{-(q+1)} 2^{-(1+p)} h_n (1 - b_n),
    h_n the squared Jacobi norm and b_n the diagonal recurrence coefficient
    (the extra (1-x) moment of the xi^2 factor).  The identity treats the
    z-range as the full orthogonality interval (0, 1/eta); for eta -> 1 this
    coincides with (0, 1) and the constant matches direct quadrature.  Raises
    DomainUnsupported when phi^2 ~ z^q is not integrable at the origin
    (q <= -1: the printed branch with sqrt_eps >= 1/2) or a gamma argument is
    non-positive, and its subclass NormOverflow when the constant exceeds the
    largest float.
    """
    p, q, n = params.jacobi_p, params.jacobi_q, params.n
    if q <= -1.0:
        raise DomainUnsupported(f"phi^2 ~ z^{q:.3g} not integrable at the origin")
    if any(arg <= 0.0 for arg in _gamma_args(params)):
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
    log_i = (-(q + 1.0) * math.log(2.0 * params.eta) - (1.0 + p) * math.log(2.0)
             + log_h + math.log(one_minus_bn))
    return _norm_from_log(-0.5 * log_i, f"n={n}, p={p:.6g}, q={q:.6g}")


def norm_const_quadrature(params: EigenfunctionParams) -> float:
    """Normalization from direct quadrature of phi^2 over z in (0, 1).

    Independent oracle for :func:`norm_const`; requires the squared endpoint
    power 2*z_exponent > -1 (printed convention thus needs sqrt_eps < 1/2).
    """
    power = 2.0 * params.z_exponent
    if power <= -1.0:
        raise DomainUnsupported(
            f"phi^2 ~ z^{power:.3g} not integrable at the origin")

    def f(z):
        val = _phi_params(params, z)
        return val * val

    integral = integrate_with_endpoint_power(f, power, upper=1.0)
    if not integral > 0.0:
        raise DomainUnsupported(f"phi^2 integral {integral:.3g} is not positive for n={params.n}")
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
        value = norm_const(EigenfunctionParams.from_state(sys, state, convention))
    return replace(state, norm_const=value)


def node_count(sys: ReducedSystem, state: BoundState,
               convention: SignConvention = SignConvention.NORMALIZABLE,
               domain: str = "natural") -> int:
    """Count sign changes of phi at 10001 samples of a z-interval.

    domain 'natural' spans (0, 1/eta), the full support of the polynomial
    weight, where the oscillation count of level n equals n.  domain
    'physical' restricts to (0, 1); nodes lying between z = 1 and the mass
    singularity are then excluded from the count.
    """
    if sys.eta == 0.0:
        raise ValueError("node_count requires eta > 0; use phi_eta0 directly")
    upper = 1.0 / sys.eta if domain == "natural" else 1.0
    if domain not in ("natural", "physical"):
        raise ValueError(f"unknown domain {domain!r}")
    pad = upper * 1e-9
    z = np.linspace(pad, upper - pad, 10001)
    params = EigenfunctionParams.from_state(sys, state, convention)
    vals = _phi_params(params, z)
    signs = np.sign(vals)
    return int(np.sum(signs[1:] * signs[:-1] < 0))


def ode_residual(sys: ReducedSystem, state: BoundState, z_grid,
                 convention: SignConvention = SignConvention.NORMALIZABLE) -> float:
    """Max |equation residual| / max term magnitude on a uniform z-grid.

    phi'' and phi' come from 4th-order central differences; the residual is
    the transformed equation evaluated at state.eps_nl.  Grids below 64
    points are rejected.
    """
    z = np.asarray(z_grid, dtype=float)
    if z.size < 64:
        raise ValueError("z grid too coarse; need at least 64 points")
    h = z[1] - z[0]
    if not np.allclose(np.diff(z), h, rtol=1e-9, atol=0.0):
        raise ValueError("z grid must be uniform")
    f = phi(sys, state, z, convention)
    i = np.arange(2, z.size - 2)
    d1 = (-f[i + 2] + 8 * f[i + 1] - 8 * f[i - 1] + f[i - 2]) / (12.0 * h)
    d2 = (-f[i + 2] + 16 * f[i + 1] - 30 * f[i] + 16 * f[i - 1] - f[i - 2]) / (12.0 * h * h)
    zi = z[i]
    sigma = zi * (1.0 - sys.eta * zi)
    term1 = d2
    term2 = d1 / zi
    term3 = (-sys.eps1 * zi**2 - sys.eps2 * zi - state.eps_nl) / sigma**2 * f[i]
    residual = np.abs(term1 + term2 + term3).max()
    scale = max(np.abs(term1).max(), np.abs(term2).max(), np.abs(term3).max())
    return residual / scale

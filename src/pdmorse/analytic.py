"""Closed-form spectrum of the reduced problem.

Two eigenvalue formulas coexist and are both exposed:

* ``epsilon_nl`` — the tabulated closed form.  It is the authoritative
  public spectrum and reproduces the built-in reference energies for H2 and
  LiH to the 3 printed decimals.
* ``nu_consistent_epsilon`` — the root of the quantization condition
  ``lambda_pi == lambda_n`` built from the selected pi branch.  At this root
  the bounded-branch eigenfunction solves the transformed differential
  equation exactly (see :mod:`pdmorse.wavefn`).

For eta > 0 the two differ by a small, exactly characterized offset: at every
``epsilon_nl`` root the pi-slope pairing misses closure by exactly eta/2,
while the assignment ``lambda = k + tau_slope/2`` closes to machine
precision.  The quantization internals that show this (both constants, the
k-roots and the pi/tau slopes) are test oracles; the library keeps only the
two eigenvalue formulas.  At eta = 0 everything coincides.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ComplexBranch, DegenerateDenominator, RealityViolation
from .model import ReducedSystem

DENOMINATOR_TOL = 1e-12


@dataclass(frozen=True)
class BoundState:
    """One bound level: quantum number, dimensionless eigenvalue, energy (eV).

    A_tilde = A/eta, with A the :func:`discriminant_root` at eps_nl (None when
    eta = 0, where it has no finite limit).
    norm_const is filled on demand by the wavefunction module.
    """

    n: int
    eps_nl: float
    E: float
    A_tilde: float | None
    norm_const: float | None = None


class SignConvention(enum.Enum):
    """The eigenfunction branch at the origin (see :mod:`pdmorse.wavefn`)."""

    PRINTED = "printed"
    NORMALIZABLE = "normalizable"


def discriminant_root(sys: ReducedSystem, eps: float) -> float:
    """A = sqrt(4 eta^2 eps + 4 eta eps2 + eta^2 + 4 eps1)."""
    rad = 4 * sys.eta**2 * eps + 4 * sys.eta * sys.eps2 + sys.eta**2 + 4 * sys.eps1
    if rad < 0:
        raise ComplexBranch(f"discriminant radicand negative: {rad}")
    return math.sqrt(rad)


def _sqrt_w(sys: ReducedSystem) -> float:
    """sqrt(eps1 - eta^2/2); raises RealityViolation when the radicand <= 0."""
    rad = sys.eps1 - sys.eta**2 / 2.0
    if rad <= 0:
        raise RealityViolation(
            f"eps1 - eta^2/2 = {rad} <= 0: no real spectrum for these parameters")
    return math.sqrt(rad)


def quantization_root_signed(sys: ReducedSystem, n: int) -> float:
    """Signed root s of the closed-form quantization; eps = s**2.

    Physical levels carry s > 0; a non-positive value means level n does not
    exist on the bound branch (used by the spectrum enumeration).
    """
    if n < 0:
        raise ValueError("n must be a non-negative integer")
    w = _sqrt_w(sys)
    num = (n * n + n - 0.5) * sys.eta - sys.eps2 - 2.0 * (n + 0.5) * w
    den = (2 * n + 1) * sys.eta - 2.0 * w
    if abs(den) < DENOMINATOR_TOL:
        raise DegenerateDenominator(f"denominator {den} below {DENOMINATOR_TOL}")
    return -num / den


def epsilon_nl(sys: ReducedSystem, n: int) -> float:
    """Dimensionless eigenvalue of level n (the squared quantization ratio)."""
    return quantization_root_signed(sys, n) ** 2


def energy_ev(sys: ReducedSystem, n: int) -> float:
    """Bound-state energy in eV: -e_scale * epsilon_nl."""
    return -sys.e_scale * epsilon_nl(sys, n)


def _state(sys: ReducedSystem, n: int, eps: float) -> BoundState:
    a_tilde = discriminant_root(sys, eps) / sys.eta if sys.eta > 0 else None
    return BoundState(n=n, eps_nl=eps, E=-sys.e_scale * eps, A_tilde=a_tilde)


def _admitted_eps(sys: ReducedSystem, n: int, w: float, prev_e: float | None) -> float | None:
    """eps of level n when it passes the admission conditions of :func:`spectrum`, else None.

    w is sqrt(eps1 - eta^2/2); prev_e is E_{n-1} (None for n = 0).
    """
    try:
        s = quantization_root_signed(sys, n)
    except DegenerateDenominator:
        return None
    if not s > 0 or 2.0 * w - (2.0 * s + 2 * n + 1) * sys.eta < 0:
        return None
    eps = s * s
    e = -sys.e_scale * eps
    if e >= 0 or (prev_e is not None and e <= prev_e):
        return None
    return eps


def make_state(sys: ReducedSystem, n: int) -> BoundState:
    """BoundState at the public closed-form eigenvalue of a level :func:`spectrum` lists.

    The admission conditions are checked at n (against E_{n-1}) without
    enumerating the spectrum; a level they refuse, such as a root on the
    spurious squared branch, raises RealityViolation.
    """
    prev_e = energy_ev(sys, n - 1) if n > 0 else None
    eps = _admitted_eps(sys, n, _sqrt_w(sys), prev_e)
    if eps is None:
        raise RealityViolation(f"level n={n} is not a bound level of this system")
    return _state(sys, n, eps)


def spectrum(sys: ReducedSystem) -> list[BoundState]:
    """Enumerate bound levels n = 0, 1, 2, ...

    A level is admitted while (i) its quantization root lies on the positive
    branch, (ii) the root satisfies the unsquared quantization identity
    (2 sqrt(eps1 - eta^2/2) >= (2s + 2n + 1) eta; squaring the closed form
    admits a spurious branch otherwise), (iii) E_n < 0, and (iv) E_n >
    E_{n-1} (strictly increasing toward the continuum).  Enumeration stops at
    the first violation.  For eta = 0 the resulting count equals the number
    of n with 2n + 1 < -eps2/sqrt(eps1).  Parameters without a real spectrum
    (eps1 - eta^2/2 <= 0) raise RealityViolation.
    """
    w = _sqrt_w(sys)
    states: list[BoundState] = []
    prev_e = None
    while (eps := _admitted_eps(sys, len(states), w, prev_e)) is not None:
        states.append(_state(sys, len(states), eps))
        prev_e = states[-1].E
    return states


def nu_consistent_epsilon(sys: ReducedSystem, n: int) -> float:
    """Eigenvalue at which lambda_pi closes against lambda_n.

    Closed form of the root of ``lambda_pi(eps) == lambda_n(eps)``:
    s = [-eps2 + eta n(n+1) - (2n+1) sqrt(eps1)] / [2 sqrt(eps1) - (2n+1) eta].
    At this eps the bounded-branch eigenfunction solves the transformed
    equation exactly; it sits close to, but not at, epsilon_nl for eta > 0.
    """
    if n < 0:
        raise ValueError("n must be a non-negative integer")
    if sys.eps1 <= 0:
        raise RealityViolation(f"eps1 = {sys.eps1} <= 0")
    r = math.sqrt(sys.eps1)
    den = 2.0 * r - (2 * n + 1) * sys.eta
    if abs(den) < DENOMINATOR_TOL:
        raise DegenerateDenominator(f"denominator {den} below {DENOMINATOR_TOL}")
    s = (-sys.eps2 + sys.eta * n * (n + 1) - (2 * n + 1) * r) / den
    if s <= 0:
        raise RealityViolation(f"level n={n} has no bound consistent root (s={s})")
    return s * s

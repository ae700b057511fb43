"""Closed-form spectrum of the reduced problem and its quantization internals.

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
precision.  Both constants are carried in :class:`NuInternals` so the
discrepancy stays measurable.  At eta = 0 everything coincides.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ComplexBranch, DegenerateDenominator, RealityViolation
from .model import ReducedSystem

DENOMINATOR_TOL = 1e-12


@dataclass(frozen=True)
class BoundState:
    """One bound level: quantum number, dimensionless eigenvalue, energy (eV).

    A is the discriminant root sqrt(4 eta^2 eps + 4 eta eps2 + eta^2 + 4 eps1);
    A_tilde = A/eta (None when eta = 0, where it has no finite limit).
    norm_const is filled on demand by the wavefunction module.
    """

    n: int
    eps_nl: float
    E: float
    A: float
    A_tilde: float | None
    norm_const: float | None = None


def discriminant_root(sys: ReducedSystem, eps: float) -> float:
    """A = sqrt(4 eta^2 eps + 4 eta eps2 + eta^2 + 4 eps1)."""
    rad = 4 * sys.eta**2 * eps + 4 * sys.eta * sys.eps2 + sys.eta**2 + 4 * sys.eps1
    if rad < 0:
        raise ComplexBranch(f"discriminant radicand negative: {rad}")
    return math.sqrt(rad)


def a_tilde(sys: ReducedSystem, eps: float) -> float:
    """A_tilde = sqrt(1 + 4 eps + (4/eta)(eps2 + eps1/eta)); requires eta > 0."""
    if sys.eta == 0.0:
        raise ComplexBranch("A_tilde undefined at eta = 0")
    rad = 1 + 4 * eps + (4 / sys.eta) * (sys.eps2 + sys.eps1 / sys.eta)
    if rad < 0:
        raise ComplexBranch(f"A_tilde radicand negative: {rad}")
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


def constant_mass_epsilon(sys: ReducedSystem, n: int) -> float:
    """Constant-mass eigenvalue (1/4)[2n + 1 + eps2/sqrt(eps1)]^2; eta must be 0."""
    if sys.eta != 0.0:
        raise ValueError("constant_mass_epsilon requires a system reduced with eta = 0")
    if sys.eps1 <= 0:
        raise RealityViolation(f"eps1 = {sys.eps1} <= 0")
    return 0.25 * (2 * n + 1 + sys.eps2 / math.sqrt(sys.eps1)) ** 2


def energy_ev(sys: ReducedSystem, n: int) -> float:
    """Bound-state energy in eV: -e_scale * epsilon_nl."""
    return -sys.e_scale * epsilon_nl(sys, n)


def reality_check(sys: ReducedSystem) -> bool:
    """True when the parameters admit a real bound spectrum.

    The inequality tested is v1/2 > eta^2 (2 c_ord - 1/4).  It is equivalent
    to eps1 - eta^2/2 > 0: substituting eps1 = v1 - 4 eta^2 (c_ord - 1/4)
    gives eps1 - eta^2/2 = v1 - 4 eta^2 c_ord + eta^2 - eta^2/2
    = 2 [v1/2 - eta^2 (2 c_ord - 1/4)], so the two sides agree in sign.
    """
    return sys.v1 / 2.0 > sys.eta**2 * (2.0 * sys.c_ord - 0.25)


def _state(sys: ReducedSystem, n: int, eps: float) -> BoundState:
    a = discriminant_root(sys, eps)
    return BoundState(n=n, eps_nl=eps, E=-sys.e_scale * eps, A=a,
                      A_tilde=a / sys.eta if sys.eta > 0 else None)


def _admitted_eps(sys: ReducedSystem, n: int, w: float, prev_e: float | None) -> float | None:
    """eps of level n when it passes the admission conditions of :func:`spectrum`, else None.

    w is sqrt(eps1 - eta^2/2); prev_e is E_{n-1} (None for n = 0).
    """
    try:
        s = quantization_root_signed(sys, n)
    except DegenerateDenominator:
        return None
    if s <= 0 or 2.0 * w - (2.0 * s + 2 * n + 1) * sys.eta < 0:
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
    of n with 2n + 1 < -eps2/sqrt(eps1).
    """
    if not reality_check(sys):
        raise RealityViolation("no real spectrum; reality_check failed")
    w = _sqrt_w(sys)
    states: list[BoundState] = []
    prev_e = None
    while (eps := _admitted_eps(sys, len(states), w, prev_e)) is not None:
        states.append(_state(sys, len(states), eps))
        prev_e = states[-1].E
    return states


@dataclass(frozen=True)
class NuInternals:
    """Internals of the quantization machinery at a given (eps, n).

    k2 is the k-root whose minus-sign pairing keeps tau decreasing and is the
    one the public spectrum derives from; k1 is the other root.  pi_slope and
    pi_const describe the selected linear pi(z); tau_slope its induced tau
    derivative (always negative here).  Two quantization constants are
    carried: ``lambda_`` pairs k2 with tau_slope/2 and closes against
    lambda_n at every public eigenvalue; ``lambda_pi`` pairs k2 with pi_slope
    and exceeds lambda_ by exactly eta/2 (it closes at the
    ``nu_consistent_epsilon`` root instead).
    """

    k1: float
    k2: float
    pi_slope: float
    pi_const: float
    tau_slope: float
    lambda_: float
    lambda_pi: float
    lambda_n: float


def nu_internals(sys: ReducedSystem, eps: float, n: int) -> NuInternals:
    """Quantization internals with the production branch selection."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    s = math.sqrt(eps)
    a = discriminant_root(sys, eps)
    eta = sys.eta
    base = -sys.eps2 - 2.0 * eta * eps
    k2 = base - s * a
    k1 = base + s * a
    pi_slope = -(eta / 2.0 + a / 2.0 + eta * s)
    pi_const = s
    tau_slope = -2.0 * (a / 2.0 + eta * s + eta)
    lambda_n = 2.0 * n * (a / 2.0 + eta * s + eta) + eta * n * (n - 1)
    return NuInternals(
        k1=k1, k2=k2, pi_slope=pi_slope, pi_const=pi_const, tau_slope=tau_slope,
        lambda_=k2 + tau_slope / 2.0, lambda_pi=k2 + pi_slope, lambda_n=lambda_n)


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


def nu_consistent_state(sys: ReducedSystem, n: int) -> BoundState:
    """BoundState at the internally consistent quantization root."""
    return _state(sys, n, nu_consistent_epsilon(sys, n))

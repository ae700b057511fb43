"""Physical parameters, ordering parameters, and the dimensionless reduction.

The potential is V(x) = V1 exp(-2 beta x) - V2 exp(-beta x) with x = r - r0
and beta = alpha'/r0; the coordinate-dependent mass is
m(x) = m0 / (1 - eta exp(-beta x))^2 with 0 <= eta < 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError, MassSingularity
from .units import energy_scale_ev

# Relative tolerance guarding transcription errors between a stored E0 and
# the value recomputed from physical constants.
E0_CONSISTENCY_RTOL = 5e-3


@dataclass(frozen=True)
class MoleculeSpec:
    """Physical parameters of a diatomic molecule.

    D is the dissociation energy (eV), r0 the equilibrium separation
    (Angstrom), m0 the reduced mass (amu) and alpha_prime the dimensionless
    range parameter.  E0 = hbar^2/(m0 r0^2) (eV) may be supplied (it is then
    checked against the recomputed value to 0.5% relative) or left None to be
    computed.  V1/V2 default to D and 2D; explicit values allow synthetic
    wells.  Every parameter must be finite.
    """

    name: str
    D: float
    r0: float
    m0: float
    alpha_prime: float
    E0: float | None = None
    V1: float | None = None
    V2: float | None = None

    def __post_init__(self):
        for label, value in (("D", self.D), ("r0", self.r0), ("m0", self.m0),
                             ("alpha_prime", self.alpha_prime)):
            if not 0 < value < math.inf:
                raise ConfigError(f"{label} must be positive and finite, got {value}")
        try:
            e0_ref = energy_scale_ev(self.m0, self.r0)
        except (OverflowError, ZeroDivisionError) as exc:  # r0**2 or m0 r0^2 out of range
            raise ConfigError(f"hbar^2/(m0 r0^2) is out of the float range for m0 = {self.m0}, "
                              f"r0 = {self.r0}") from exc
        if self.E0 is None:
            object.__setattr__(self, "E0", e0_ref)
        if not 0 < self.E0 < math.inf:
            raise ConfigError(f"E0 must be positive and finite, got {self.E0}")
        if abs(self.E0 - e0_ref) / self.E0 > E0_CONSISTENCY_RTOL:
            raise ConfigError(
                f"E0={self.E0} inconsistent with hbar^2/(m0 r0^2)={e0_ref:.6e} "
                f"beyond {E0_CONSISTENCY_RTOL:.1%}")
        if self.V1 is None:
            object.__setattr__(self, "V1", self.D)
        if self.V2 is None:
            object.__setattr__(self, "V2", 2.0 * self.D)
        for label, value in (("V1", self.V1), ("V2", self.V2)):
            if not math.isfinite(value):
                raise ConfigError(f"{label} must be finite, got {value} "
                                  "(V1 and V2 default to D and 2 D)")

    @property
    def beta(self) -> float:
        """Inverse length alpha'/r0 (1/Angstrom)."""
        return self.alpha_prime / self.r0


@dataclass(frozen=True)
class AmbiguityOrdering:
    """Kinetic-operator ordering parameters (a, alpha, gamma).

    beta_order is fixed by the constraint alpha + beta_order + gamma = -1.
    Construction also checks the identity A1 + A2 = c_ord - 1/4 that links
    the ordering combinations to the eps1 bracket of :func:`reduce`.
    """

    a: float
    alpha: float
    gamma: float
    beta_order: float = field(init=False)

    def __post_init__(self):
        if self.a == -1.0:
            raise ConfigError("ordering parameter a = -1 is singular (1+a divides)")
        object.__setattr__(self, "beta_order", -1.0 - self.alpha - self.gamma)
        # exact by construction up to float re-association; fails for nan/inf or
        # parameters so large that the sum loses the constraint
        if not abs(self.alpha + self.beta_order + self.gamma + 1.0) <= 1e-12:
            raise ConfigError(f"ordering parameters alpha={self.alpha!r}, gamma={self.gamma!r} "
                              "do not satisfy alpha + beta + gamma = -1 in floating point")
        c_ord = self.c_ord
        if not abs(self.A1 + self.A2 - (c_ord - 0.25)) <= 1e-12 * max(1.0, abs(c_ord)):
            raise ConfigError(f"ordering {self.a:g},{self.alpha:g},{self.gamma:g} breaks the "
                              "identity A1 + A2 = c_ord - 1/4 in floating point")

    @property
    def c_ord(self) -> float:
        """(a - 2*alpha*gamma - alpha - gamma) / (2 (1+a))."""
        return (self.a - 2 * self.alpha * self.gamma - self.alpha - self.gamma) / (2 * (1 + self.a))

    @property
    def c2_ord(self) -> float:
        """(alpha + gamma + 1) / (1+a)."""
        return (self.alpha + self.gamma + 1) / (1 + self.a)

    @property
    def A1(self) -> float:
        return (self.a - self.alpha * self.gamma - self.alpha - self.gamma) / (1 + self.a) - 0.75

    @property
    def A2(self) -> float:
        return (self.alpha + self.gamma - self.a) / (2 * (1 + self.a)) + 0.5


WEYL = AmbiguityOrdering(a=1.0, alpha=0.0, gamma=0.0)
LI_KUHN = AmbiguityOrdering(a=0.0, alpha=0.0, gamma=-0.5)

_ORDERING_PRESETS = {"weyl": WEYL, "likuhn": LI_KUHN, "li-kuhn": LI_KUHN}


def parse_ordering(text: str) -> AmbiguityOrdering:
    """Parse 'weyl', 'likuhn', or an explicit 'a,alpha,gamma' triple."""
    key = text.strip().lower()
    if key in _ORDERING_PRESETS:
        return _ORDERING_PRESETS[key]
    parts = key.split(",")
    if len(parts) != 3:
        raise ConfigError(f"unknown ordering {text!r}; expected weyl, likuhn or a,alpha,gamma")
    try:
        a, alpha, gamma = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"malformed ordering triple {text!r}") from exc
    return AmbiguityOrdering(a=a, alpha=alpha, gamma=gamma)


def ordering_label(ordering: AmbiguityOrdering) -> str:
    if ordering == WEYL:
        return "weyl"
    if ordering == LI_KUHN:
        return "likuhn"
    return f"{ordering.a:g},{ordering.alpha:g},{ordering.gamma:g}"


@dataclass(frozen=True)
class MassModel:
    """Coordinate-dependent mass m(x) = m0 / (1 - eta exp(-beta x))^2."""

    m0: float
    eta: float
    beta: float

    def __post_init__(self):
        if not 0.0 <= self.eta < 1.0:
            raise ConfigError(f"eta out of range: {self.eta} (require 0 <= eta < 1)")
        if not (self.m0 > 0 and self.beta > 0):
            raise ConfigError("m0 and beta must be positive")

    @classmethod
    def for_molecule(cls, mol: MoleculeSpec, eta: float) -> "MassModel":
        return cls(m0=mol.m0, eta=eta, beta=mol.beta)

    @property
    def singularity_x(self) -> float | None:
        """Position of the mass singularity, or None for eta = 0 (always < 0)."""
        if self.eta == 0.0:
            return None
        return math.log(self.eta) / self.beta

    def mass(self, x):
        """m(x) in amu; MassSingularity within 1e-12 of the pole (1 - eta exp(-beta x) = 0)."""
        import numpy as np

        u = 1.0 - self.eta * np.exp(-self.beta * np.asarray(x, dtype=float))
        if np.any(np.abs(u) < 1e-12):
            raise MassSingularity(f"mass singular at x = {self.singularity_x}")
        return self.m0 / u**2


def potential_value(mol: MoleculeSpec, x):
    """V(x) = V1 exp(-2 beta x) - V2 exp(-beta x) in eV (defined for all real x)."""
    import numpy as np

    w = np.exp(-mol.beta * np.asarray(x, dtype=float))
    out = mol.V1 * w**2 - mol.V2 * w
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


@dataclass(frozen=True)
class ReducedSystem:
    """Dimensionless problem after unit reduction.

    eps1 = v1 - 4 eta^2 (c_ord - 1/4) and eps2 = -eta c2_ord - v2, with c_ord
    and c2_ord those of the :class:`AmbiguityOrdering`; energies
    map back through E = -e_scale * eps with e_scale = beta^2 hbar^2 / (2 m0)
    = alpha'^2 E0 / 2 (eV).
    """

    v1: float
    v2: float
    eta: float
    eps1: float
    eps2: float
    e_scale: float

    def __post_init__(self):
        if not (self.v1 > 0 and self.v2 > 0):
            raise ConfigError("v1 and v2 must be positive")
        if not self.e_scale > 0:
            raise ConfigError("e_scale must be positive")
        if not 0.0 <= self.eta < 1.0:
            raise ConfigError(f"eta out of range: {self.eta} (require 0 <= eta < 1)")


def reduce(mol: MoleculeSpec, eta: float, ordering: AmbiguityOrdering) -> ReducedSystem:
    """Reduce physical parameters to the dimensionless system.

    2 m0/(beta^2 hbar^2) equals 2/(alpha'^2 E0), so v1 = 2 V1/(alpha'^2 E0).
    A reduced parameter that overflows (or is NaN) raises ConfigError.
    """
    if not 0.0 <= eta < 1.0:
        raise ConfigError(f"eta out of range: {eta} (require 0 <= eta < 1)")
    try:
        scale = mol.alpha_prime**2 * mol.E0
        v1 = 2.0 * mol.V1 / scale
        v2 = 2.0 * mol.V2 / scale
    except (OverflowError, ZeroDivisionError) as exc:  # alpha'^2 E0 out of range
        raise ConfigError(f"alpha_prime^2 E0 is out of the float range for alpha_prime = "
                          f"{mol.alpha_prime}, E0 = {mol.E0}") from exc
    sys = ReducedSystem(v1=v1, v2=v2, eta=eta,
                        eps1=v1 - 4.0 * eta**2 * (ordering.c_ord - 0.25),
                        eps2=-eta * ordering.c2_ord - v2, e_scale=scale / 2.0)
    for label in ("v1", "v2", "eps1", "eps2", "e_scale"):
        value = getattr(sys, label)
        if not math.isfinite(value):
            raise ConfigError(f"reduced parameter {label} = {value} is not finite")
    return sys

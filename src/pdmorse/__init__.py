"""Bound states of the 1-D position-dependent-mass generalized Morse well.

Library layout:

* :mod:`pdmorse.model`    — molecule/ordering/mass parameters and the
  dimensionless reduction.
* :mod:`pdmorse.analytic` — closed-form spectrum and bound-state records.
* :mod:`pdmorse.wavefn`   — Jacobi machinery, eigenfunctions, normalization.
* :mod:`pdmorse.oracle`   — independent shooting-method eigensolver.
* :mod:`pdmorse.catalog`, :mod:`pdmorse.reports`, :mod:`pdmorse.cli` —
  built-in data, deterministic exports, command line.
"""

__version__ = "0.1.0"

from .analytic import (BoundState, energy_ev, epsilon_nl, make_state, nu_consistent_epsilon,
                       spectrum)
from .catalog import builtin_catalog, get_molecule, load_molecule_config, resolve_molecule
from .errors import (ComplexBranch, ConfigError, DegenerateDenominator,
                     DomainUnsupported, MassSingularity, NoBracket, NonConvergence,
                     NormOverflow, PdmorseError, QuadratureFailure, RealityViolation)
from .model import (LI_KUHN, WEYL, AmbiguityOrdering, MassModel, MoleculeSpec,
                    ReducedSystem, parse_ordering, potential_value, reduce)
from .oracle import (GridSpec, default_domain, physical_psi, shoot_state, solve_on_grid,
                     solve_states, u_eff)
from .wavefn import (SignConvention, attach_norm, jacobi, norm_const, norm_const_quadrature,
                     phi, phi_eta0)

__all__ = [name for name in dir() if not name.startswith("_")]

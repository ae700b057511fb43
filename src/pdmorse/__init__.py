"""Bound states of the 1-D position-dependent-mass generalized Morse well.

Library layout:

* :mod:`pdmorse.model`    — molecule/ordering/mass parameters and the
  dimensionless reduction.
* :mod:`pdmorse.analytic` — closed-form spectrum and bound-state records.
* :mod:`pdmorse.wavefn`   — Jacobi machinery, eigenfunctions, normalization,
  and psi = sqrt(m) phi.
* :mod:`pdmorse.oracle`   — independent shooting-method eigensolver.
* :mod:`pdmorse.catalog`, :mod:`pdmorse.reports`, :mod:`pdmorse.cli` —
  built-in data, deterministic exports, command line.

``import pdmorse`` loads nothing (PEP 562).  The first access to a public
name that is not a submodule (``pdmorse.spectrum``, ``from pdmorse import *``)
imports the whole library, numpy included, once.  Only the array layers
(``oracle``, ``kernels``, ``wavefn``, ``quadrature``) need numpy, so
``from pdmorse import cli`` and the closed-form commands ``spectrum``,
``table1`` and ``validate`` run without it.  ``wavefunction`` needs numpy
but not the shooting oracle: it loads neither ``oracle``, ``kernels`` nor
``quadrature``.
"""

__version__ = "0.1.0"

__all__ = [
    "AmbiguityOrdering", "BoundState", "ComplexBranch", "ConfigError",
    "DegenerateDenominator", "DomainUnsupported", "GridSpec", "LI_KUHN", "MassModel",
    "MassSingularity", "MoleculeSpec", "NoBracket", "NonConvergence", "NormOverflow",
    "PdmorseError", "QuadratureFailure", "RealityViolation", "ReducedSystem",
    "SignConvention", "WEYL", "analytic", "attach_norm", "builtin_catalog", "catalog",
    "default_domain", "energy_ev", "epsilon_nl", "errors", "get_molecule", "jacobi",
    "kernels", "load_molecule_config", "make_state", "model", "norm_const",
    "norm_const_quadrature", "nu_consistent_epsilon", "oracle", "parse_ordering", "phi",
    "phi_eta0", "physical_psi", "potential_value", "quadrature", "reduce",
    "resolve_molecule", "shoot_state", "solve_on_grid", "solve_states", "spectrum", "u_eff",
    "units", "wavefn",
]


def __getattr__(name: str):
    """Import on the first access to a public name.

    A submodule name imports that submodule alone: ``from . import kernels``
    inside the package lands here, possibly while another submodule is half
    imported.  Any other public name imports the whole library.
    """
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib.util

    if importlib.util.find_spec(f"{__name__}.{name}") is not None:
        return importlib.import_module(f"{__name__}.{name}")
    from . import quadrature  # wavefn imports it only inside norm_const_quadrature
    from .analytic import (BoundState, energy_ev, epsilon_nl, make_state,
                           nu_consistent_epsilon, spectrum)
    from .catalog import builtin_catalog, get_molecule, load_molecule_config, resolve_molecule
    from .errors import (ComplexBranch, ConfigError, DegenerateDenominator,
                         DomainUnsupported, MassSingularity, NoBracket, NonConvergence,
                         NormOverflow, PdmorseError, QuadratureFailure, RealityViolation)
    from .model import (LI_KUHN, WEYL, AmbiguityOrdering, MassModel, MoleculeSpec,
                        ReducedSystem, parse_ordering, potential_value, reduce)
    from .oracle import GridSpec, default_domain, shoot_state, solve_on_grid, solve_states, u_eff
    from .wavefn import (SignConvention, attach_norm, jacobi, norm_const,
                         norm_const_quadrature, phi, phi_eta0, physical_psi)

    # the submodules bind themselves as package attributes on import
    imported = locals()
    globals().update((public, imported[public]) for public in __all__ if public in imported)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))

"""Unit conventions and physical constants.

External quantities are exchanged in eV (energies), Angstrom (lengths) and
amu (masses).  All spectral math runs on dimensionless reduced quantities;
the conversion happens exactly once, in :func:`pdmorse.model.reduce`.
"""

# CODATA 2018 values.
HBAR_J_S = 1.054571817e-34
AMU_KG = 1.66053906660e-27
EV_J = 1.602176634e-19
ANGSTROM_M = 1e-10

# hbar^2 / (amu * Angstrom^2), expressed in eV: hbar^2/(2 m) phi'' terms become
# HBAR2_EV_AMU_A2/(2 m) with m in amu and x in Angstrom.  It computes a
# molecule's E0 when none is given and scales ``oracle.solve_on_grid``'s
# arbitrary potential/mass problem; a molecule's own problem takes
# hbar^2 = E0 m0 r0^2 from its E0 instead.
HBAR2_EV_AMU_A2 = HBAR_J_S**2 / (AMU_KG * ANGSTROM_M**2) / EV_J


def energy_scale_ev(m0_amu: float, r0_angstrom: float) -> float:
    """hbar^2/(m0 r0^2) in eV for a reduced mass in amu and a length in Angstrom."""
    return HBAR2_EV_AMU_A2 / (m0_amu * r0_angstrom**2)

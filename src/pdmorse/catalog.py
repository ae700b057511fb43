"""Built-in molecule catalog, reference energies, and config-file ingestion."""
from __future__ import annotations

from pathlib import Path

from .errors import ConfigError
from .model import MoleculeSpec

# Built-in molecule parameters.  Decimal commas in the source prints are
# normalized to decimal points; no other edits.
H2 = MoleculeSpec(name="H2", D=4.7446, r0=0.7416, m0=0.50391,
                  alpha_prime=1.440558, E0=1.508343932e-2)
LIH = MoleculeSpec(name="LiH", D=2.515287, r0=1.5956, m0=0.8801221,
                   alpha_prime=1.7998368, E0=1.865528199e-3)


def builtin_catalog() -> list[MoleculeSpec]:
    """The two built-in molecules."""
    return [H2, LIH]


def get_molecule(name: str) -> MoleculeSpec:
    for mol in builtin_catalog():
        if mol.name.lower() == name.strip().lower():
            return mol
    raise ConfigError(f"unknown molecule {name!r}; built-ins: "
                      + ", ".join(m.name for m in builtin_catalog()))


# Reference bound-state energies (eV), printed to 3 decimals.  Keys are
# (molecule name, eta); absent (molecule, eta, n) combinations are absent in
# the source table and stay absent here.
REFERENCE_ENERGIES: dict[tuple[str, float], dict[int, float]] = {
    ("H2", 0.0): {0: -4.476, 2: -3.480, 4: -2.609, 10: -0.748, 15: -0.057},
    ("LiH", 0.0): {0: -2.429, 2: -2.098, 4: -1.792, 10: -1.018, 15: -0.539, 20: -0.211},
    ("H2", 0.2): {0: -4.528, 2: -3.706, 4: -2.953, 6: -2.274, 10: -1.152, 15: -0.251, 20: -0.012},
    ("H2", 0.4): {0: -4.582, 2: -3.955, 4: -3.363, 6: -2.809, 10: -1.818, 15: -0.824, 20: -0.169},
    ("H2", 0.6): {0: -4.637, 2: -4.228, 4: -3.856, 6: -3.522, 10: -2.985, 15: -2.644},
    ("LiH", 0.2): {0: -2.446, 2: -2.176, 4: -1.920, 6: -1.677, 10: -1.233, 15: -0.763, 20: -0.395},
    ("LiH", 0.4): {0: -2.463, 2: -2.259, 4: -2.062, 6: -1.872, 10: -1.512, 15: -1.105, 20: -0.748},
    ("LiH", 0.6): {0: -2.481, 2: -2.346, 4: -2.219, 6: -2.099, 10: -1.880, 15: -1.653, 20: -1.486},
}

REFERENCE_ETAS = (0.0, 0.2, 0.4, 0.6)


def reference_energy(molecule: str, eta: float, n: int) -> float | None:
    """Reference energy for a cell, or None when the table has no entry."""
    return REFERENCE_ENERGIES.get((molecule, eta), {}).get(n)


# Exact config-file keys; anything else is rejected to guard typos.
_REQUIRED_KEYS = ("name", "D_eV", "r0_angstrom", "m0_amu", "alpha_prime")
_OPTIONAL_KEYS = ("E0_eV", "V1_eV", "V2_eV")


def load_molecule_config(path: str | Path) -> MoleculeSpec:
    """Parse a key-value molecule config file.

    One `key = value` (or `key: value`) pair per line; `#` starts a comment.
    Keys: name, D_eV, r0_angstrom, m0_amu, alpha_prime, and optionally E0_eV
    (computed when absent), V1_eV, V2_eV.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        sep = "=" if "=" in line else (":" if ":" in line else None)
        if sep is None:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition(sep)
        key = key.strip()
        value = value.strip()
        if key not in _REQUIRED_KEYS + _OPTIONAL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")

    def fnum(key: str) -> float:
        try:
            return float(values[key])
        except ValueError as exc:
            raise ConfigError(f"{path}: key {key!r} is not a number: {values[key]!r}") from exc

    return MoleculeSpec(
        name=values["name"],
        D=fnum("D_eV"),
        r0=fnum("r0_angstrom"),
        m0=fnum("m0_amu"),
        alpha_prime=fnum("alpha_prime"),
        E0=fnum("E0_eV") if "E0_eV" in values else None,
        V1=fnum("V1_eV") if "V1_eV" in values else None,
        V2=fnum("V2_eV") if "V2_eV" in values else None,
    )


def resolve_molecule(name_or_path: str) -> MoleculeSpec:
    """Built-in molecule by name, or a molecule config file by path."""
    candidate = Path(name_or_path)
    if candidate.exists() and candidate.is_file():
        return load_molecule_config(candidate)
    return get_molecule(name_or_path)

"""Report assembly and deterministic CSV/JSON serialization.

Outputs are byte-identical across runs for identical inputs: floats are
serialized with 17 significant digits, rows carry no timestamps, and the
only run metadata lives in the provenance comment block (suppressible for
diffing).  numpy, :mod:`pdmorse.oracle` and :mod:`pdmorse.wavefn` are
imported inside the functions that use them, so the spectrum and table1
paths run without numpy and the wavefunction path without the oracle.
"""
from __future__ import annotations

import io
import json
import math
import numbers
from dataclasses import dataclass, field

from . import __version__
from .analytic import SignConvention, energy_ev, make_state, spectrum
from .catalog import REFERENCE_ENERGIES, REFERENCE_ETAS, builtin_catalog, reference_energy
from .errors import PdmorseError, RealityViolation
from .model import (WEYL, AmbiguityOrdering, MassModel, MoleculeSpec, ReducedSystem,
                    ordering_label, reduce)

SPECTRUM_COLUMNS = ("n", "eps_nl", "E_eV", "E_paper_eV", "delta_eV")
WAVEFUNCTION_COLUMNS = ("z", "x_angstrom", "phi", "psi_physical")
ORACLE_COLUMNS = ("molecule", "eta", "ordering", "n", "E_analytic_eV",
                  "E_oracle_eV", "delta_eV", "domain", "grid_points")
# Most points a wavefunction export may sample.  Its peak memory grows by
# about 410-480 bytes per sample (200,000 samples: 79-92 MB).
MAX_SAMPLES = 1_000_000
_SPECTRUM_ROW = "%d,%.17g,%.17g,%s,%s\n"
# one row of json.dumps(..., indent=2, sort_keys=True) at depth 2
_JSON_ROW = ('    {\n      "E_eV": %s,\n      "E_paper_eV": %s,\n      "delta_eV": %s,\n'
             '      "eps_nl": %s,\n      "n": %s\n    }')


def fmt(value) -> str:
    """Serialize one cell; binary64 round-trips through 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, numbers.Integral):  # numpy registers its integer types here
        return str(int(value))
    return format(float(value), ".17g")


def float_rows(*columns) -> str:
    """CSV rows of equal-length float columns, cell for cell the bytes of fmt().

    One '%.17g' template formats every row: printf-style '%.17g' and
    format(x, '.17g') produce the same digits, without a call and a join
    per cell.
    """
    import numpy as np

    table = np.column_stack(columns)
    row = ",".join(("%.17g",) * table.shape[1]) + "\n"
    return (row * table.shape[0]) % tuple(table.ravel().tolist())


@dataclass(frozen=True)
class SpectrumRow:
    n: int
    eps_nl: float
    E_eV: float
    E_paper_eV: float | None = None
    delta_eV: float | None = None


@dataclass(frozen=True)
class SpectrumReport:
    """Spectrum rows plus provenance for one (molecule, eta, ordering).

    The provenance holds the molecule, eta and ordering label.
    """

    rows: tuple[SpectrumRow, ...]
    provenance: dict = field(default_factory=dict)


def base_provenance(**extra) -> dict:
    prov = {"artifact": "pdmorse", "version": __version__}
    prov.update(extra)
    return prov


def build_spectrum_report(mol: MoleculeSpec, eta: float,
                          ordering: AmbiguityOrdering) -> SpectrumReport:
    """Enumerated spectrum joined against the reference table where it exists."""
    sys = reduce(mol, eta, ordering)
    rows = []
    for state in spectrum(sys):
        ref = reference_energy(mol.name, eta, state.n)
        rows.append(SpectrumRow(
            n=state.n, eps_nl=state.eps_nl, E_eV=state.E, E_paper_eV=ref,
            delta_eV=None if ref is None else state.E - ref))
    prov = base_provenance(molecule=mol.name, eta=eta,
                           ordering=ordering_label(ordering),
                           eigenvalue_formula="closed-form")
    return SpectrumReport(rows=tuple(rows), provenance=prov)


@dataclass(frozen=True)
class Table1Cell:
    molecule: str
    eta: float
    n: int
    E_eV: float
    E_paper_eV: float
    delta_eV: float
    ok: bool
    listed: bool  # False for a level that spectrum does not list


@dataclass(frozen=True)
class Table1Summary:
    """Every reference cell; the gate, its count and max |delta| cover the listed ones."""

    tolerance_eV: float
    cells: tuple[Table1Cell, ...]

    @property
    def listed(self) -> tuple[Table1Cell, ...]:
        return tuple(c for c in self.cells if c.listed)

    @property
    def max_abs_delta(self) -> float:
        return max(abs(c.delta_eV) for c in self.listed)

    @property
    def failures(self) -> tuple[Table1Cell, ...]:
        return tuple(c for c in self.listed if not c.ok)

    @property
    def all_pass(self) -> bool:
        return not self.failures


def table1_report(tolerance_ev: float = 0.005) -> Table1Summary:
    """Recompute every reference cell with Weyl ordering and gate |delta|.

    Cells are evaluated directly at their quantum number (the reference table
    tabulates selected n, not a full enumeration).  A cell whose level
    :func:`make_state` refuses (H2 at eta 0.2, n = 20, is a root on the
    squared branch) is kept but marked unlisted, outside the gate.  Failures
    are report content, not exceptions.
    """
    if not 0.0 < tolerance_ev < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance_ev}")
    cells = []
    for mol in builtin_catalog():
        for eta in REFERENCE_ETAS:
            sys = reduce(mol, eta, WEYL)
            for n, ref in sorted(REFERENCE_ENERGIES[(mol.name, eta)].items()):
                e = energy_ev(sys, n)
                delta = e - ref
                listed = True
                try:
                    make_state(sys, n)
                except RealityViolation:
                    listed = False
                cells.append(Table1Cell(molecule=mol.name, eta=eta, n=n, E_eV=e,
                                        E_paper_eV=ref, delta_eV=delta,
                                        ok=abs(delta) <= tolerance_ev, listed=listed))
    return Table1Summary(tolerance_eV=tolerance_ev, cells=tuple(cells))


def _write_provenance(buf: io.StringIO, provenance: dict) -> None:
    for key in sorted(provenance):
        buf.write(f"# {key}: {provenance[key]}\n")


def spectrum_csv(report: SpectrumReport, include_provenance: bool = True) -> str:
    buf = io.StringIO()
    if include_provenance:
        _write_provenance(buf, report.provenance)
    buf.write(",".join(SPECTRUM_COLUMNS) + "\n")
    # one template for all rows; fmt() only for the optional reference columns
    cells = []
    for r in report.rows:
        cells += (r.n, r.eps_nl, r.E_eV, fmt(r.E_paper_eV), fmt(r.delta_eV))
    buf.write((_SPECTRUM_ROW * len(report.rows)) % tuple(cells))
    return buf.getvalue()


def spectrum_json(report: SpectrumReport, include_provenance: bool = True) -> str:
    """JSON mirror of the CSV content, field for field.

    The bytes of ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` for
    ``doc = {"provenance": ..., "rows": [...]}``, written from one row template.
    The cells go through json's C encoder in one call, one token per cell
    (the separator is a newline, which no JSON token contains).
    """
    head = "{\n"
    if include_provenance:
        prov = json.dumps(report.provenance, indent=2, sort_keys=True)
        head += '  "provenance": ' + prov.replace("\n", "\n  ") + ",\n"
    if not report.rows:
        return head + '  "rows": []\n}\n'
    cells = []
    for r in report.rows:
        cells += (r.E_eV, r.E_paper_eV, r.delta_eV, r.eps_nl, r.n)
    tokens = json.dumps(cells, separators=("\n", ": "))[1:-1].split("\n")
    body = ",\n".join((_JSON_ROW,) * len(report.rows)) % tuple(tokens)
    return head + '  "rows": [\n' + body + "\n  ]\n}\n"


def parse_spectrum_csv(text: str) -> SpectrumReport:
    """Inverse of :func:`spectrum_csv`; provenance comments are collected back."""
    prov: dict = {}
    rows = []
    header_seen = False
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            prov[key.strip()] = value.strip()
            continue
        if not line.strip():
            continue
        if not header_seen:
            if tuple(line.split(",")) != SPECTRUM_COLUMNS:
                raise PdmorseError(f"unexpected CSV header: {line!r}")
            header_seen = True
            continue
        parts = line.split(",")
        rows.append(SpectrumRow(
            n=int(parts[0]), eps_nl=float(parts[1]), E_eV=float(parts[2]),
            E_paper_eV=float(parts[3]) if parts[3] else None,
            delta_eV=float(parts[4]) if parts[4] else None))
    return SpectrumReport(rows=tuple(rows), provenance=prov)


def wavefunction_csv(mol: MoleculeSpec, sys: ReducedSystem, state, samples: int,
                     convention: SignConvention,
                     include_provenance: bool = True) -> str:
    """Sampled eigenfunction export: z, x (Angstrom), phi, and psi = sqrt(m) phi."""
    import numpy as np

    from .wavefn import attach_norm, phi, physical_psi

    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"{samples} samples are past the {MAX_SAMPLES}-sample limit")
    if sys.eta == 0.0:  # phi_eta0 has only the bounded branch
        convention = SignConvention.NORMALIZABLE
    mm = MassModel.for_molecule(mol, sys.eta)
    state = attach_norm(sys, state, convention)
    z = np.arange(1, samples + 1) / (samples + 1)
    values = phi(sys, state, z, convention)
    x = -np.log(z) / mol.beta
    psi = physical_psi(mm, x, values)
    buf = io.StringIO()
    if include_provenance:
        prov = base_provenance(
            molecule=mol.name, eta=sys.eta, n=state.n, eps_nl=fmt(state.eps_nl),
            E_eV=fmt(state.E), sign_convention=convention.value,
            bounded_at_origin=(convention is SignConvention.NORMALIZABLE or state.eps_nl == 0),
            norm_const=fmt(state.norm_const))
        _write_provenance(buf, prov)
    buf.write(",".join(WAVEFUNCTION_COLUMNS) + "\n")
    buf.write(float_rows(z, x, values, psi))
    return buf.getvalue()


def oracle_compare_rows(mol: MoleculeSpec, eta: float, ordering: AmbiguityOrdering,
                        n_max: int, points: int,
                        domain: tuple[float, float] | None = None) -> list[dict]:
    """Analytic vs shooting energies (shooting to 1e-6 eV), per level and per domain.

    The domains are the study of :func:`pdmorse.oracle.default_domain`, or
    the one explicit domain when given.  The domain cell reads
    label[x_min;x_max], and a triple's ordering cell a;alpha;gamma, so no
    cell holds a comma.  A level that :func:`spectrum` does not list raises
    RealityViolation before any solve.
    """
    from .oracle import GridSpec, default_domain, solve_states

    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    sys = reduce(mol, eta, ordering)
    for n in range(n_max + 1):
        make_state(sys, n)
    mm = MassModel.for_molecule(mol, eta)
    ordering_cell = ordering_label(ordering).replace(",", ";")
    domains = {"explicit": domain} if domain is not None else default_domain(mol, eta)
    rows = []
    for label, (x_min, x_max) in domains.items():
        grid = GridSpec(x_min=x_min, x_max=x_max, points=points)
        solved = dict(solve_states(mm, ordering, mol, grid, list(range(n_max + 1)),
                                   tol_ev=1e-6))
        for n in range(n_max + 1):
            e_analytic = energy_ev(sys, n)
            e_oracle = solved[n]
            rows.append({
                "molecule": mol.name, "eta": eta, "ordering": ordering_cell,
                "n": n, "E_analytic_eV": e_analytic, "E_oracle_eV": e_oracle,
                "delta_eV": e_oracle - e_analytic,
                "domain": f"{label}[{x_min:.6g};{x_max:.6g}]", "grid_points": points})
    return rows


def oracle_csv(rows: list[dict], include_provenance: bool = True) -> str:
    buf = io.StringIO()
    if include_provenance:
        _write_provenance(buf, base_provenance(report="oracle-compare"))
    buf.write(",".join(ORACLE_COLUMNS) + "\n")
    for row in rows:
        buf.write(",".join(fmt(row[c]) if not isinstance(row[c], str) else row[c]
                           for c in ORACLE_COLUMNS) + "\n")
    return buf.getvalue()

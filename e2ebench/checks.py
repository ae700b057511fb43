"""Verdicts on one request's outputs, computed outside the timed region.

A request *fails* (counted against the attempted total) on a non-zero exit,
an exception escaping ``cli.main``, ``nan``/``inf`` in stdout, a spectrum CSV
that does not round-trip through ``parse_spectrum_csv``, a wavefunction row
count that differs from ``--samples``, or a ``table1`` run that does not print
PASS.  An output that parses but is *wrong* (a spectrum that is not an
increasing ladder of bound levels, oracle rows missing or carrying another
closed-form energy, an eta = 0 shooting energy outside the acceptance
tolerance) marks the whole run incorrect instead.

How far the shooting energies sit from ``nu_consistent_epsilon`` for eta > 0
is what ``oracle-compare`` reports, not a property of a correct output; the
benchmark reports its maximum as ``max_err_ev``.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache

from pdmorse.analytic import energy_ev, nu_consistent_epsilon
from pdmorse.catalog import get_molecule
from pdmorse.model import parse_ordering, reduce
from pdmorse.reports import (ORACLE_COLUMNS, WAVEFUNCTION_COLUMNS,
                             parse_spectrum_csv, spectrum_csv)

# Shooting vs closed form at eta = 0, as in the acceptance suite.
ETA0_SHOOTING_TOL_EV = 2e-3

_NONFINITE = {"nan", "inf", "+inf", "-inf", "infinity", "+infinity", "-infinity"}
_TOKEN_SPLIT = re.compile(r"[\s,:=\[\]{}\"]+")
_DELTA = re.compile(r"delta=([-+0-9.eE]+)")


@dataclass
class Verdict:
    """failure: why the request counts as failed; wrong: why the output is incorrect."""

    failure: str | None = None
    wrong: str | None = None
    levels: int = 0
    max_err_ev: float | None = None


def has_nonfinite(text: str) -> bool:
    return any(token.lower() in _NONFINITE for token in _TOKEN_SPLIT.split(text))


def _data_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.strip() and not line.startswith("#")]


def listed_levels(stdout: str, fmt: str) -> list[int]:
    """Quantum numbers listed by a spectrum output."""
    if fmt == "json":
        return [row["n"] for row in json.loads(stdout)["rows"]]
    return [row.n for row in parse_spectrum_csv(stdout).rows]


@lru_cache(maxsize=None)
def _nu_consistent_ev(molecule: str, eta: float, ordering: str, n: int) -> float:
    sys_ = reduce(get_molecule(molecule), eta, parse_ordering(ordering))
    return -sys_.e_scale * nu_consistent_epsilon(sys_, n)


@lru_cache(maxsize=None)
def _analytic_ev(molecule: str, eta: float, ordering: str, n: int) -> float:
    return energy_ev(reduce(get_molecule(molecule), eta, parse_ordering(ordering)), n)


def _check_ladder(rows: list[tuple[int, float]], verdict: Verdict) -> None:
    energies = [e for _, e in rows]
    if [n for n, _ in rows] != list(range(len(rows))):
        verdict.wrong = "spectrum levels are not numbered 0, 1, 2, ..."
    elif any(e >= 0.0 for e in energies) or any(b <= a for a, b in zip(energies, energies[1:])):
        verdict.wrong = "spectrum energies are not an increasing ladder below zero"


def _spectrum(request, stdout: str, verdict: Verdict) -> None:
    if request.meta["format"] == "csv":
        report = parse_spectrum_csv(stdout)
        if spectrum_csv(report, bool(report.provenance)) != stdout:
            verdict.failure = "spectrum CSV does not round-trip"
            return
        rows = [(r.n, r.E_eV) for r in report.rows]
        deltas = [r.delta_eV for r in report.rows]
    else:
        doc = json.loads(stdout)
        rows = [(r["n"], r["E_eV"]) for r in doc["rows"]]
        deltas = [r["delta_eV"] for r in doc["rows"]]
    _check_ladder(rows, verdict)
    verdict.levels = len(rows)
    deltas = [abs(d) for d in deltas if d is not None]
    if deltas:
        verdict.max_err_ev = max(deltas)


def _wavefunction(request, stdout: str, verdict: Verdict) -> None:
    lines = _data_lines(stdout)
    if not lines or tuple(lines[0].split(",")) != WAVEFUNCTION_COLUMNS:
        verdict.failure = "wavefunction header missing"
    elif len(lines) - 1 != request.meta["samples"]:
        verdict.failure = f"wavefunction has {len(lines) - 1} rows, asked for {request.meta['samples']}"
    else:
        verdict.levels = 1


def _table1(stdout: str, verdict: Verdict) -> None:
    if not any(line.startswith("table1 PASS") for line in stdout.splitlines()):
        verdict.failure = "table1 did not print PASS"
        return
    deltas = [abs(float(m)) for m in _DELTA.findall(stdout)]
    verdict.levels = len(deltas)
    verdict.max_err_ev = max(deltas)


def _oracle(request, stdout: str, verdict: Verdict) -> None:
    meta = request.meta
    lines = _data_lines(stdout)
    if not lines or tuple(lines[0].split(",")) != ORACLE_COLUMNS:
        verdict.failure = "oracle header missing"
        return
    rows = [dict(zip(ORACLE_COLUMNS, line.split(","))) for line in lines[1:]]
    domains = 1 if meta["eta"] == 0.0 else 2
    if len(rows) != domains * (meta["n_max"] + 1):
        verdict.wrong = f"oracle listed {len(rows)} rows for {domains} domains"
        return
    errors = []
    for row in rows:
        n = int(row["n"])
        key = (meta["molecule"], meta["eta"], meta["ordering"], n)
        e_analytic, e_oracle = float(row["E_analytic_eV"]), float(row["E_oracle_eV"])
        if e_analytic != _analytic_ev(*key):
            verdict.wrong = f"oracle E_analytic_eV differs from the closed form at n={n}"
            return
        if meta["eta"] == 0.0 and abs(e_oracle - e_analytic) > ETA0_SHOOTING_TOL_EV:
            verdict.wrong = f"eta = 0 shooting energy off by {e_oracle - e_analytic:.3g} eV"
            return
        if not row["domain"].startswith("boundary"):
            errors.append(abs(e_oracle - _nu_consistent_ev(*key)))
    verdict.levels = len(rows)
    verdict.max_err_ev = max(errors)


def judge(request, code, exc, stdout: str) -> Verdict:
    """Verdict for one finished request."""
    verdict = Verdict()
    if exc is not None:
        verdict.failure = f"uncaught {type(exc).__name__}"
    elif code != 0:
        verdict.failure = f"exit code {code}"
    elif has_nonfinite(stdout):
        verdict.failure = "non-finite value in stdout"
    elif request.kind == "spectrum":
        _spectrum(request, stdout, verdict)
    elif request.kind == "wavefunction":
        _wavefunction(request, stdout, verdict)
    elif request.kind == "table1":
        _table1(stdout, verdict)
    elif request.kind == "oracle-compare":
        _oracle(request, stdout, verdict)
    return verdict

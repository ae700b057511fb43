"""Seeded request decks for the benchmark workloads.

A run is a sequence of whole decks.  Every deck of a workload holds the same
mix of request shapes: the oracle decks cover every (molecule, eta, n-max)
cell, the analytic deck one session per (molecule, eta) pair.  Per-request
medians of different seeds and of runs with different deck counts thus
compare like with like.  The seed decides the rest: request order, operator
ordering, output formats, provenance flags and where each synthetic molecule
sits inside its strata.

Decks are generators: the caller sends back each request's stdout (or None
when the request failed), because an analytic session chooses the levels it
inspects from the spectrum it was just shown.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from pdmorse.catalog import REFERENCE_ETAS

import checks

WORKLOADS = ("oracle_deep", "oracle_ladder", "analytic_sweep")
MOLECULES = ("H2", "LiH")
ORDERINGS = ("weyl", "likuhn")
ANALYTIC_ETAS = tuple(k / 10 for k in range(7))
SYNTHETIC_MOLECULES = 24
# Per-request time limit; a request still running then is stopped and counted
# as failed.  Successful analytic requests take under 1 s; the defective
# eta = 0 exports that end in the quadrature panel-budget error run 10-20 s.
REQUEST_LIMIT_S = {"oracle_deep": 60.0, "oracle_ladder": 60.0, "analytic_sweep": 1.0}

# Synthetic well ranges: (low, high, log-uniform).
_RANGES = {
    "D_eV": (1.0, 8.0, False),
    "r0_angstrom": (0.7, 2.5, False),
    "m0_amu": (0.5, 40.0, True),
    "alpha_prime": (0.8, 1.8, False),
}
# The two corners of the ranges with the most and the fewest levels.  The deep
# corner holds today's failures: eta = 0 norms that underflow, overflow or run
# out of quadrature panels, and levels past the Jacobi degree guard.
_CORNERS = {
    "deep": {"D_eV": 8.0, "r0_angstrom": 2.5, "m0_amu": 40.0, "alpha_prime": 0.8},
    "shallow": {"D_eV": 1.0, "r0_angstrom": 0.7, "m0_amu": 0.5, "alpha_prime": 1.8},
}


@dataclass(frozen=True)
class Request:
    """One CLI invocation plus what the checker needs to judge its output."""

    kind: str
    argv: tuple[str, ...]
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Inputs:
    """Everything set-up produces: the molecule arguments a workload may use."""

    workload: str
    seed: int
    molecules: tuple[str, ...]


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _latin_hypercube(rng: random.Random, count: int) -> list[dict[str, float]]:
    """One draw per synthetic molecule from a Latin hypercube over the ranges.

    The strata each molecule occupies are a fixed design shared by every seed;
    the seed places each molecule inside its strata.  Seeds thus differ in the
    molecules but not in how the pool spreads over the ranges, which is what
    per-request costs depend on.
    """
    design = _rng("design")
    columns = {}
    for key, (low, high, log) in _RANGES.items():
        strata = list(range(count))
        design.shuffle(strata)
        unit = [(s + rng.random()) / count for s in strata]
        if log:
            columns[key] = [math.exp(math.log(low) + u * (math.log(high) - math.log(low)))
                            for u in unit]
        else:
            columns[key] = [low + u * (high - low) for u in unit]
    return [{key: columns[key][i] for key in _RANGES} for i in range(count)]


def make_inputs(workload: str, seed: int, workdir: Path,
                synthetic: int = SYNTHETIC_MOLECULES) -> Inputs:
    """Set-up: write the synthetic molecule configs the workload needs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload != "analytic_sweep":
        return Inputs(workload, seed, MOLECULES)
    moldir = workdir / "molecules"
    moldir.mkdir(parents=True, exist_ok=True)
    named = list(_CORNERS.items())
    named += [(f"syn{i:03d}", params) for i, params in
              enumerate(_latin_hypercube(_rng("molecules", seed), synthetic))]
    paths = []
    for name, params in named:
        path = moldir / f"{name}.cfg"
        lines = [f"name = {name}"] + [f"{key} = {value!r}" for key, value in params.items()]
        path.write_text("\n".join(lines) + "\n")
        paths.append(str(path.resolve()))
    return Inputs(workload, seed, MOLECULES + tuple(paths))


def _oracle_deck(inputs: Inputs, deck: int, n_max_values, grid: int):
    """Every (molecule, eta) pair with each n-max of n_max_values(eta), in seeded order."""
    rng = _rng(inputs.workload, inputs.seed, deck)
    cells = [(mol, eta, n_max) for mol in inputs.molecules
             for eta in REFERENCE_ETAS for n_max in n_max_values(eta)]
    rng.shuffle(cells)
    for mol, eta, n_max in cells:
        ordering = rng.choice(ORDERINGS)
        argv = ("oracle-compare", "--molecule", mol, "--eta", repr(eta),
                "--ordering", ordering, "--n-max", str(n_max), "--grid", str(grid))
        yield Request("oracle-compare", argv, {"molecule": mol, "eta": eta,
                                               "ordering": ordering, "n_max": n_max,
                                               "grid": grid})


def _analytic_deck(inputs: Inputs, deck: int):
    """One user session per (molecule, eta) pair, plus one table1 run.

    A session lists the spectrum (CSV or JSON), then samples the eigenfunction
    of 1-4 levels: the middle level of each equal slice of that listing.  The
    number of levels is fixed per molecule by the shared design, so every
    deck has the same mix of etas, level counts, formats and sample counts.
    """
    rng = _rng(inputs.workload, inputs.seed, deck)
    fixed = len(MOLECULES) + len(_CORNERS)
    picks = [1 + i % 4 for i in range(len(inputs.molecules) - fixed)]
    _rng("design", len(picks)).shuffle(picks)
    picks = [4] * fixed + picks
    sessions = [(mol, k, eta) for mol, k in zip(inputs.molecules, picks)
                for eta in ANALYTIC_ETAS]
    rng.shuffle(sessions)
    phase = rng.randrange(2)
    table1_at = rng.randrange(len(sessions))
    for position, (mol, k, eta) in enumerate(sessions):
        if position == table1_at:
            yield Request("table1", ("table1",))
        fmt = ("csv", "json")[(position + phase) % 2]
        common = ("--molecule", mol, "--eta", repr(eta), "--ordering", rng.choice(ORDERINGS))
        provenance = () if rng.random() < 0.5 else ("--no-provenance",)
        listing = yield Request("spectrum", ("spectrum",) + common + ("--format", fmt) + provenance,
                                {"format": fmt})
        if listing is None:
            continue
        levels = checks.listed_levels(listing, fmt)
        k = min(k, len(levels))
        for j in range(k):
            n = levels[(2 * j + 1) * len(levels) // (2 * k)]
            samples = (256, 1024)[(position + j + phase) % 2]
            yield Request("wavefunction", ("wavefunction",) + common
                          + ("--n", str(n), "--samples", str(samples)) + provenance,
                          {"samples": samples})


def deck(inputs: Inputs, index: int):
    """Generator over the requests of deck `index`; send back each stdout."""
    if inputs.workload == "oracle_deep":
        # A request costs (domains) x (n-max + 1) level solves, and eta > 0 runs
        # two domains, so costs come in groups.  With these n-max values half
        # the deck is the 2 x 2 group, and the median request falls inside it
        # rather than between two groups.
        return _oracle_deck(inputs, index, lambda eta: (0, 1, 2) if eta == 0.0 else (1, 1, 2),
                            8001)
    if inputs.workload == "oracle_ladder":
        return _oracle_deck(inputs, index, lambda eta: (8, 9, 10, 11, 12), 2001)
    return _analytic_deck(inputs, index)


def warmup_requests(workload: str) -> list[Request]:
    """Untimed requests that let imports and first-call set-up finish."""
    if workload == "analytic_sweep":
        return [Request("spectrum", ("spectrum", "--molecule", "H2", "--eta", "0.2"),
                        {"format": "csv"})] + [
            Request("wavefunction", ("wavefunction", "--molecule", "H2", "--eta", eta,
                                     "--n", "1", "--samples", "256"), {"samples": 256})
            for eta in ("0.2", "0.0")]
    return [Request("oracle-compare", ("oracle-compare", "--molecule", "H2", "--eta", "0.2",
                                       "--n-max", "0", "--grid", "2001"),
                    {"molecule": "H2", "eta": 0.2, "ordering": "weyl", "n_max": 0,
                     "grid": 2001})]

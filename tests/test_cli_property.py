"""Property tests of the CLI contract.

``spectrum`` (CSV and JSON), ``table1 --tolerance`` and ``validate`` run
through ``cli.main`` on random wells around and beyond the benchmark's
synthetic ranges (up to about 5,000 levels), eta in [0, 1) and some values
outside it, and the presets and ``a,alpha,gamma`` triples as orderings.
``oracle-compare`` runs on H2, LiH and wells inside and beyond those ranges,
with ``--n-max``, ``--grid`` and ``--domain`` draws, each under a wall-time
limit.  Every run ends in exactly one of two ways: exit 0 with the documented
header and only finite numbers, or exit 1 with exactly one ``pdmorse-error:``
line on stderr.
"""
import io
import json
import math
import re
import signal
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from pdmorse import MassModel, PdmorseError, resolve_molecule
from pdmorse.analytic import MAX_LEVELS
from pdmorse.cli import main
from pdmorse.oracle import MAX_GRID_POINTS, SINGULARITY_MARGIN
from pdmorse.reports import ORACLE_COLUMNS, SPECTRUM_COLUMNS


def _benchmark_ranges() -> dict:
    """The synthetic well ranges of the benchmark's workloads, read from e2ebench/."""
    e2ebench = str(Path(__file__).resolve().parent.parent / "e2ebench")
    sys.path.insert(0, e2ebench)
    try:
        from workloads import _RANGES
    finally:
        sys.path.remove(e2ebench)
    return _RANGES


def _log_uniform(low, high):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


def _mostly(inside, outside):
    """Draws of inside, and about one draw in eight from the values outside."""
    return st.integers(0, 7).flatmap(lambda k: inside if k else st.sampled_from(outside))


# the benchmark's ranges are D 1-8 eV, r0 0.7-2.5 A, m0 0.5-40 amu, alpha' 0.8-1.8
_EXTREMES = [0.0, -1.0, math.nan, math.inf, 1e-300, 1e300]
WELLS = st.fixed_dictionaries({
    "D_eV": _mostly(_log_uniform(0.05, 20.0), _EXTREMES),
    "r0_angstrom": _mostly(st.floats(0.3, 3.0), _EXTREMES),
    "m0_amu": _mostly(_log_uniform(0.05, 100.0), _EXTREMES),
    "alpha_prime": _mostly(st.floats(0.6, 2.5), _EXTREMES),
})
ETAS = _mostly(st.floats(0.0, 1.0, exclude_max=True),
               [-0.0, -0.1, 1.0, 1.5, math.nan, math.inf, -math.inf])
ORDERINGS = _mostly(st.one_of(st.sampled_from(["weyl", "likuhn", "-0.5,0,0"]), st.tuples(
    *[st.floats(-2.0, 2.0)] * 3).map(lambda triple: ",".join(map(repr, triple)))),
    ["-1,0,0", "nan,0,0", "0,inf,0", "0,0"])
TOLERANCES = _mostly(_log_uniform(1e-9, 1.0), [0.0, -0.005, math.nan, math.inf, 1e300])

# one table1 line per reference cell, then the summary line
_TABLE1_CELL = re.compile(r"(PASS|FAIL|UNLISTED) (H2|LiH) eta=(\S+) n=(\d+) E=(\S+) "
                          r"reference=(\S+) delta=(\S+)")
_TABLE1_SUMMARY = re.compile(r"table1 (PASS|FAIL): (\d+)/(\d+) listed cells within (\S+) eV, "
                             r"(\d+) unlisted \(max \|delta\| = (\S+) eV\)")
_VALIDATE = re.compile(r"OK name=well D_eV=(\S+) r0_angstrom=(\S+) m0_amu=(\S+) "
                       r"alpha_prime=(\S+) E0_eV=(\S+)")


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("wells") / "well.cfg"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _finite(*cells: str) -> bool:
    return all(math.isfinite(float(cell)) for cell in cells)


def _check_spectrum_csv(out: str) -> None:
    lines = out.splitlines()
    provenance = [line for line in lines if line.startswith("# ")]
    for line in provenance:
        value = line.partition(": ")[2]
        assert not re.fullmatch(r"(?i)[-+]?(nan|inf)", value), line
    header, *rows = lines[len(provenance):]
    assert tuple(header.split(",")) == SPECTRUM_COLUMNS
    for row in rows:
        n, eps, e, paper, delta = row.split(",")
        assert int(n) >= 0 and _finite(eps, e, *filter(None, (paper, delta))), row


def _check_spectrum_json(out: str) -> None:
    def refuse(token):
        raise AssertionError(f"non-finite {token} in spectrum JSON")

    doc = json.loads(out, parse_constant=refuse)
    assert set(doc) in ({"rows"}, {"provenance", "rows"})
    for row in doc["rows"]:
        assert set(row) == set(SPECTRUM_COLUMNS)
        assert all(value is None or math.isfinite(value) for value in row.values()), row


def _check_table1(out: str) -> None:
    *cells, summary = out.splitlines()
    assert cells
    for line in cells:
        match = _TABLE1_CELL.fullmatch(line)
        assert match and _finite(*match.groups()[2:]), line
    match = _TABLE1_SUMMARY.fullmatch(summary)
    assert match and _finite(match[4], match[6]), summary


def _check_validate(out: str) -> None:
    match = _VALIDATE.fullmatch(out.rstrip("\n"))
    assert match and _finite(*match.groups()), out


_UNIT_WELL = {"D_eV": 1.0, "r0_angstrom": 1.0, "m0_amu": 1.0, "alpha_prime": 1.0}


@settings(max_examples=300, derandomize=True, deadline=None)
# draws that once ended in a traceback (the first four) or in exit 1 without an error line
@example(well={**_UNIT_WELL, "r0_angstrom": 1e300}, eta=0.0, ordering="weyl", tolerance=1.0,
         command="spectrum-csv", provenance=False)
@example(well={**_UNIT_WELL, "r0_angstrom": 1e-300}, eta=0.0, ordering="weyl", tolerance=1.0,
         command="spectrum-csv", provenance=False)
@example(well={**_UNIT_WELL, "alpha_prime": 1e300}, eta=0.0, ordering="weyl", tolerance=1.0,
         command="spectrum-json", provenance=True)
@example(well={**_UNIT_WELL, "alpha_prime": 1e-300}, eta=0.0, ordering="weyl", tolerance=1.0,
         command="spectrum-json", provenance=True)
@example(well=_UNIT_WELL, eta=0.0, ordering="weyl", tolerance=1e-9, command="table1",
         provenance=True)
@given(well=WELLS, eta=ETAS, ordering=ORDERINGS, tolerance=TOLERANCES,
       command=st.sampled_from(["spectrum-csv", "spectrum-json", "table1", "validate"]),
       provenance=st.booleans())
def test_finite_output_or_one_error_line(config_path, well, eta, ordering, tolerance, command,
                                         provenance):
    config_path.write_text("name = well\n" + "".join(f"{k} = {v!r}\n" for k, v in well.items()))
    if command == "table1":
        argv = ["table1", "--tolerance", repr(tolerance)]
    elif command == "validate":
        argv = ["validate", str(config_path)]
    else:
        argv = ["spectrum", "--molecule", str(config_path), f"--eta={eta!r}",
                f"--ordering={ordering}", "--format", command.split("-")[1]]
        argv += [] if provenance else ["--no-provenance"]
    code, out, err = _run(argv)
    event(f"{command} exit {code}")
    if code == 0:
        assert err == ""
        {"spectrum-csv": _check_spectrum_csv, "spectrum-json": _check_spectrum_json,
         "table1": _check_table1, "validate": _check_validate}[command](out)
    else:
        lines = err.splitlines()
        assert code == 1, (argv, err)
        assert len(lines) == 1 and lines[0].startswith("pdmorse-error: "), (argv, err)


RANGES = _benchmark_ranges()


def _in_range(low, high, log, widen):
    low, high = low / widen, high * widen
    return _log_uniform(low, high) if log else st.floats(low, high)


# H2 and LiH, wells inside the benchmark's ranges, and wells up to 3x past them on each side
ORACLE_WELLS = st.one_of(st.sampled_from(["H2", "LiH"]), *(
    st.fixed_dictionaries({key: _in_range(*spec, widen) for key, spec in RANGES.items()})
    for widen in (1.0, 3.0)))
# half the draws from the low levels and the finer grids, where most requests can succeed
N_MAX = _mostly(st.one_of(st.integers(-1, 3), st.integers(-1, 20)), [MAX_LEVELS])
GRIDS = _mostly(st.one_of(st.integers(2001, 8001), st.integers(0, 8001)), [MAX_GRID_POINTS + 1])
# the default study, then explicit domains: a span that may hold the singularity,
# inverted, a NaN or infinite end, x_min inside the singularity margin, the far tail
DOMAINS = st.tuples(_mostly(st.just("default"), ["span", "inverted", "nan", "margin", "tail"]),
                    st.floats(0.0, 1.0), st.floats(0.0, 1.0))
EXAMPLE_LIMIT_S = 5.0


class ExampleTimeout(BaseException):
    """Raised into an example that outlived EXAMPLE_LIMIT_S; never caught by the program."""


@contextmanager
def _time_limit(seconds):
    def expire(signum, frame):
        raise ExampleTimeout(f"example took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _domain(kind, u, v, molecule, eta):
    """The --domain value of one draw; u and v in [0, 1] place it."""
    if kind == "span":
        x_min = -1.0 + 2.0 * u
        return x_min, x_min + 1.5 + 10.0 * v
    if kind == "inverted":
        return 3.0 * u, 3.0 * u - 0.5 - 2.0 * v
    if kind == "nan":
        return (math.nan, 6.0) if u < 0.5 else (-0.5, (math.nan, math.inf)[v < 0.5])
    if kind == "tail":
        return 15.0 + 25.0 * u, 45.0 + 15.0 * v
    try:  # "margin": x_min within SINGULARITY_MARGIN right of the singularity, if any
        singularity = MassModel.for_molecule(resolve_molecule(molecule), eta).singularity_x
    except (PdmorseError, ValueError, ArithmeticError):
        singularity = None
    x_min = (-0.5 if singularity is None else singularity) + SINGULARITY_MARGIN * u
    return x_min, x_min + 3.0 + 5.0 * v


def _check_oracle_csv(out: str, n_max: int) -> None:
    lines = out.splitlines()
    provenance = [line for line in lines if line.startswith("# ")]
    header, *rows = lines[len(provenance):]
    assert tuple(header.split(",")) == ORACLE_COLUMNS
    assert rows and len(rows) in (n_max + 1, 2 * (n_max + 1)), out
    for k, row in enumerate(rows):
        _, eta, _, n, e_analytic, e_oracle, delta, domain, grid = row.split(",")
        assert int(n) == k % (n_max + 1) and int(grid) > 0, row
        ends = re.fullmatch(r"[a-z]+\[(\S+);(\S+)\]", domain)
        assert ends and _finite(eta, e_analytic, e_oracle, delta, *ends.groups()), row


@settings(max_examples=150, derandomize=True, deadline=None)
# a triple's commas once split its ordering cell: 11 cells under the 9-column header
@example(well="H2", eta=0.0, ordering="-0.5,0,0", n_max=0, grid=2001, domain=("default", 0, 0),
         provenance=False)
@given(well=ORACLE_WELLS, eta=ETAS, ordering=ORDERINGS, n_max=N_MAX, grid=GRIDS,
       domain=DOMAINS, provenance=st.booleans())
def test_oracle_compare_finite_rows_or_one_error_line(config_path, well, eta, ordering, n_max,
                                                      grid, domain, provenance):
    molecule = well
    if isinstance(well, dict):
        config_path.write_text("name = well\n"
                               + "".join(f"{k} = {v!r}\n" for k, v in well.items()))
        molecule = str(config_path)
    argv = ["oracle-compare", "--molecule", molecule, f"--eta={eta!r}",
            f"--ordering={ordering}", f"--n-max={n_max}", f"--grid={grid}"]
    if domain[0] != "default":
        argv.append("--domain={!r},{!r}".format(*_domain(*domain, molecule, eta)))
    argv += [] if provenance else ["--no-provenance"]
    with _time_limit(EXAMPLE_LIMIT_S):
        code, out, err = _run(argv)
    event(f"oracle-compare exit {code}")
    if code == 0:
        assert err == ""
        _check_oracle_csv(out, n_max)
    else:
        lines = err.splitlines()
        assert code == 1 and out == "", (argv, err)
        assert len(lines) == 1 and lines[0].startswith("pdmorse-error: "), (argv, err)

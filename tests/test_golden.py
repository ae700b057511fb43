"""Golden CLI outputs: stdout with provenance off must not change by a byte.

The goldens cover ``table1``; ``spectrum`` CSV and JSON for H2 and LiH at
every reference eta with both named orderings (plus one explicit triple);
one eta > 0 ``wavefunction`` per sign convention (the printed one at the
only H2 eta = 0.2 level with sqrt(eps) < 1/2, where it is normalizable); and three
``oracle-compare`` runs: a small one, a 13-level LiH ladder at eta = 0.6 and
a long-grid H2 run at eta = 0.  The oracle runs and the normalizable
``wavefunction`` also run in two fresh interpreters, one of them on
OpenBLAS's Haswell kernels and one thread: the bytes must not depend on the
BLAS build numpy picks.
Regenerate the goldens only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from pdmorse.catalog import REFERENCE_ETAS
from pdmorse.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_stdout.json"


def _cases() -> list[tuple[str, ...]]:
    cases = [("table1",)]
    for molecule in ("H2", "LiH"):
        for eta in REFERENCE_ETAS:
            for ordering in ("weyl", "likuhn"):
                for fmt in ("csv", "json"):
                    cases.append(("spectrum", "--molecule", molecule, "--eta", str(eta),
                                  "--ordering", ordering, "--format", fmt,
                                  "--no-provenance"))
    cases.append(("spectrum", "--molecule", "H2", "--eta", "0.2", "--ordering",
                  "0.5,-0.25,-0.25", "--no-provenance"))
    for convention, n in (("normalizable", "1"), ("printed", "19")):
        cases.append(("wavefunction", "--molecule", "H2", "--eta", "0.2", "--n", n,
                      "--samples", "64", "--convention", convention, "--no-provenance"))
    cases.append(("oracle-compare", "--molecule", "H2", "--eta", "0.2", "--grid", "2001",
                  "--n-max", "1", "--no-provenance"))
    cases.append(("oracle-compare", "--molecule", "LiH", "--eta", "0.6", "--ordering",
                  "likuhn", "--grid", "2001", "--n-max", "12", "--no-provenance"))
    cases.append(("oracle-compare", "--molecule", "H2", "--eta", "0", "--grid", "8001",
                  "--n-max", "2", "--no-provenance"))
    return cases


CASES = _cases()
# the outputs whose numbers come from numpy array arithmetic
BLAS_CASES = [argv for argv in CASES if argv[0] == "oracle-compare"
              or argv[:7] == ("wavefunction", "--molecule", "H2", "--eta", "0.2", "--n", "1")]


def run_cli(argv: tuple[str, ...]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0, argv
    return buf.getvalue()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_stdout_matches_golden(golden, argv):
    assert run_cli(argv) == golden[" ".join(argv)]


def test_stdout_does_not_depend_on_the_blas_build(golden):
    """The default OpenBLAS kernels and threads, then Haswell's on one thread: same bytes."""
    script = ("import json, sys\nfrom pdmorse.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n    assert main(argv) == 0\n")
    outputs = [subprocess.run([sys.executable, "-c", script, json.dumps(BLAS_CASES)],
                              env={**os.environ, **env}, capture_output=True, text=True,
                              check=True, timeout=120).stdout
               for env in ({}, {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"})]
    assert len(BLAS_CASES) == 4
    assert outputs[0] == outputs[1] == "".join(golden[" ".join(argv)] for argv in BLAS_CASES)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({" ".join(argv): run_cli(argv) for argv in CASES},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} outputs to {GOLDEN}")

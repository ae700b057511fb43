"""Property test of the wavefunction command over the benchmark's synthetic wells.

Every request on a random well (the ``analytic_sweep`` ranges), eta in
{0, 0.1, ..., 0.9}, three orderings and a random listed level either exits 0
with ``--samples`` finite rows, or exits 1 with exactly one ``pdmorse-error:``
line and no output.
"""
import io
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmorse import PdmorseError, load_molecule_config, parse_ordering, reduce
from pdmorse.analytic import spectrum
from pdmorse.cli import main
from pdmorse.reports import WAVEFUNCTION_COLUMNS

ORDERINGS = ("weyl", "likuhn", "0.5,-0.25,-0.25")


def _log_uniform(low, high):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


WELLS = st.fixed_dictionaries({
    "D_eV": st.floats(1.0, 8.0),
    "r0_angstrom": st.floats(0.7, 2.5),
    "m0_amu": _log_uniform(0.5, 40.0),
    "alpha_prime": st.floats(0.8, 1.8),
})


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("wells") / "well.cfg"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(well=WELLS, eta=st.sampled_from([k / 10 for k in range(10)]),
       ordering=st.sampled_from(ORDERINGS), level=st.floats(0.0, 1.0),
       samples=st.sampled_from([1, 17, 64]))
def test_finite_rows_or_one_error_line(config_path, well, eta, ordering, level, samples):
    config_path.write_text("name = well\n" + "".join(f"{k} = {v!r}\n" for k, v in well.items()))
    try:
        listed = spectrum(reduce(load_molecule_config(config_path), eta,
                                 parse_ordering(ordering)))
    except PdmorseError:
        listed = []
    n = listed[min(int(level * len(listed)), len(listed) - 1)].n if listed else 0
    code, out, err = _run(["wavefunction", "--molecule", str(config_path), "--eta", repr(eta),
                           "--ordering", ordering, "--n", str(n), "--samples", str(samples),
                           "--no-provenance"])
    if code == 0:
        lines = out.splitlines()
        assert err == "" and tuple(lines[0].split(",")) == WAVEFUNCTION_COLUMNS
        rows = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
        assert rows.shape == (samples, 4) and np.all(np.isfinite(rows))
    else:
        lines = err.splitlines()
        assert code == 1 and out == "", (n, eta, ordering)
        assert len(lines) == 1 and lines[0].startswith("pdmorse-error: ")

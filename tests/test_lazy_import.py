"""The package namespace loads on demand, the closed-form commands run without numpy,
and ``wavefunction`` runs without the shooting oracle.

Each check of what gets imported runs in a fresh interpreter, since this one
has numpy loaded already.
"""
import json
import subprocess
import sys

import numpy as np
import pytest

from pdmorse.cli import main
from pdmorse.reports import fmt
# pdmorse.__all__, sorted (jacobi and potential_value moved to the tests' oracles)
PUBLIC_NAMES = [
    "AmbiguityOrdering", "BoundState", "ComplexBranch", "ConfigError",
    "DegenerateDenominator", "DomainUnsupported", "GridSpec", "LI_KUHN", "MassModel",
    "MassSingularity", "MoleculeSpec", "NoBracket", "NonConvergence", "NormOverflow",
    "PdmorseError", "QuadratureFailure", "RealityViolation", "ReducedSystem",
    "SignConvention", "WEYL", "analytic", "attach_norm", "builtin_catalog", "catalog",
    "default_domain", "energy_ev", "epsilon_nl", "errors", "get_molecule", "kernels",
    "load_molecule_config", "make_state", "model", "norm_const", "norm_const_quadrature",
    "nu_consistent_epsilon", "oracle", "parse_ordering", "phi", "phi_eta0", "physical_psi",
    "quadrature", "reduce", "resolve_molecule", "shoot_state",
    "solve_on_grid", "solve_states", "spectrum", "u_eff", "units", "wavefn",
]
SUBMODULES = ["analytic", "catalog", "errors", "kernels", "model", "oracle", "quadrature",
              "units", "wavefn"]
CONFIG = "name = demo\nD_eV = 1.25\nr0_angstrom = 1.1\nm0_amu = 0.9\nalpha_prime = 1.3\n"


def fresh(code: str) -> dict:
    """Run `code` in a new interpreter; it prints one JSON object as its last line."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def loaded_after(statements: str) -> dict:
    return fresh(statements + "\nimport json, sys\n"
                 "print(json.dumps({'numpy': 'numpy' in sys.modules,"
                 " 'numpy.polynomial': 'numpy.polynomial' in sys.modules, 'pdmorse': sorted("
                 "m for m in sys.modules if m.startswith('pdmorse'))}))")


def test_import_pdmorse_loads_nothing():
    seen = loaded_after("import pdmorse\nassert pdmorse.__version__\n"
                        "assert not hasattr(pdmorse, 'no_such_name')\n"
                        "from pdmorse import cli")
    assert seen["numpy"] is False
    assert "pdmorse.oracle" not in seen["pdmorse"] and "pdmorse.wavefn" not in seen["pdmorse"]


@pytest.mark.parametrize("argv", [
    ["spectrum", "--molecule", "H2", "--eta", "0.2", "--no-provenance"],
    ["spectrum", "--molecule", "LiH", "--eta", "0.4", "--format", "json"],
    ["table1"],
    ["validate", "{config}"],
    ["spectrum", "--molecule", "{config}", "--eta", "0.3"],
], ids=["spectrum-csv", "spectrum-json", "table1", "validate", "spectrum-config"])
def test_closed_form_commands_run_without_numpy(tmp_path, argv):
    path = tmp_path / "demo.cfg"
    path.write_text(CONFIG)
    argv = [arg.format(config=path) for arg in argv]
    seen = loaded_after("import contextlib, io\nfrom pdmorse.cli import main\n"
                        "with contextlib.redirect_stdout(io.StringIO()):\n"
                        f"    assert main({argv!r}) == 0")
    assert seen["numpy"] is False, seen["pdmorse"]


@pytest.mark.parametrize("eta", ["0.2", "0"])
def test_wavefunction_stays_out_of_the_oracle(eta):
    argv = ["wavefunction", "--molecule", "H2", "--eta", eta, "--n", "1", "--samples", "16"]
    seen = loaded_after("import contextlib, io\nfrom pdmorse.cli import main\n"
                        "with contextlib.redirect_stdout(io.StringIO()):\n"
                        f"    assert main({argv!r}) == 0")
    assert seen["numpy"] is True and "pdmorse.wavefn" in seen["pdmorse"]
    assert not {"pdmorse.oracle", "pdmorse.kernels", "pdmorse.quadrature"} & set(seen["pdmorse"])
    if int(np.__version__.split(".")[0]) >= 2:
        # numpy 1.x imports numpy.polynomial on `import numpy`; numpy 2 loads it on first use
        assert seen["numpy.polynomial"] is False


@pytest.mark.parametrize("argv", [
    ["wavefunction", "--molecule", "H2", "--eta", "0.2", "--n", "1", "--samples", "16"],
    ["oracle-compare", "--molecule", "H2", "--eta", "0.2", "--n-max", "1", "--grid", "2001"],
], ids=["wavefunction", "oracle-compare"])
def test_array_commands_in_a_fresh_process(capsys, argv):
    done = subprocess.run([sys.executable, "-m", "pdmorse", *argv], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0 and done.stderr == "", done.stderr
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out


def test_public_names_resolve_to_their_home_objects():
    got = fresh("""
import json, sys, types
import pdmorse
pdmorse.spectrum  # the first public name loads the whole library
loaded = sorted(m[len("pdmorse."):] for m in sys.modules if m.startswith("pdmorse."))
strays = []
for name in pdmorse.__all__:
    obj = getattr(pdmorse, name)
    if isinstance(obj, types.ModuleType):
        home_obj = sys.modules["pdmorse." + name]
    else:
        home_obj = getattr(sys.modules[obj.__module__], name, None)
    if home_obj is not obj:
        strays.append(name)
print(json.dumps({"all": sorted(pdmorse.__all__), "loaded": loaded, "strays": strays,
                  "dir": sorted(set(pdmorse.__all__) - set(dir(pdmorse))),
                  "sign": pdmorse.SignConvention is pdmorse.wavefn.SignConvention,
                  "psi": pdmorse.physical_psi is pdmorse.wavefn.physical_psi}))
""")
    assert got["all"] == PUBLIC_NAMES
    assert set(SUBMODULES) <= set(got["loaded"])
    assert got["strays"] == [] and got["dir"] == []
    assert got["sign"] is True and got["psi"] is True


def test_submodule_access_imports_that_submodule_alone():
    seen = loaded_after("import pdmorse\nassert pdmorse.catalog.get_molecule('H2')")
    assert seen["numpy"] is False
    assert "pdmorse.oracle" not in seen["pdmorse"]


def test_fmt_keeps_its_bytes_for_numpy_scalars():
    assert fmt(np.int64(-7)) == "-7"
    assert fmt(np.uint8(200)) == "200"
    assert fmt(np.bool_(True)) == "1"  # not a numbers.Integral: formatted as a float
    assert fmt(np.float64(0.1)) == "0.10000000000000001"
    assert fmt(True) == "true"

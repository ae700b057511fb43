"""Catalog, config ingestion, report serialization, and the CLI surface."""
import argparse
import json
import math
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import csv_row_reference, spectrum_json_reference

from pdmorse import (WEYL, AmbiguityOrdering, ConfigError, NormOverflow, attach_norm,
                     builtin_catalog, get_molecule, load_molecule_config, reduce,
                     resolve_molecule)
from pdmorse.analytic import make_state, spectrum
from pdmorse.catalog import REFERENCE_ENERGIES, reference_energy
from pdmorse import cli
from pdmorse.cli import _build_parser, main
from pdmorse.reports import (SpectrumReport, SpectrumRow, base_provenance,
                             build_spectrum_report, float_rows, oracle_compare_rows, oracle_csv,
                             parse_spectrum_csv, spectrum_csv, spectrum_json,
                             table1_report, wavefunction_csv)
from pdmorse.wavefn import SignConvention

GOOD_CONFIG = """\
# synthetic shallow well
name = demo
D_eV = 1.25
r0_angstrom = 1.1
m0_amu = 0.9
alpha_prime = 1.3
"""


class TestCatalog:
    def test_two_molecules(self):
        cat = builtin_catalog()
        assert len(cat) == 2

    def test_h2_dissociation_energy(self):
        assert get_molecule("H2").D == 4.7446

    def test_lih_equilibrium_separation(self):
        assert get_molecule("LiH").r0 == 1.5956

    def test_unknown_molecule(self):
        with pytest.raises(ConfigError):
            get_molecule("He2")

    def test_reference_lookup(self):
        assert reference_energy("H2", 0.2, 0) == -4.528
        assert reference_energy("H2", 0.6, 20) is None

    def test_reference_cell_count(self):
        total = sum(len(cells) for cells in REFERENCE_ENERGIES.values())
        assert total == 52


class TestConfigFile:
    def test_load_and_compute_e0(self, tmp_path):
        path = tmp_path / "demo.cfg"
        path.write_text(GOOD_CONFIG)
        mol = load_molecule_config(path)
        assert mol.name == "demo"
        assert mol.D == 1.25
        assert mol.E0 > 0
        assert mol.V1 == 1.25 and mol.V2 == 2.5

    def test_colon_separator_and_overrides(self, tmp_path):
        path = tmp_path / "demo.cfg"
        path.write_text("name: w\nD_eV: 2.0\nr0_angstrom: 1.0\n"
                        "m0_amu: 1.0\nalpha_prime: 1.5\nV1_eV: 2.5\nV2_eV: 3.5\n")
        mol = load_molecule_config(path)
        assert mol.V1 == 2.5 and mol.V2 == 3.5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(GOOD_CONFIG + "dissociation = 3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_molecule_config(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("name = x\nD_eV = 1.0\n")
        with pytest.raises(ConfigError, match="missing required"):
            load_molecule_config(path)

    def test_malformed_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(GOOD_CONFIG.replace("1.25", "abc"))
        with pytest.raises(ConfigError, match="not a number"):
            load_molecule_config(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(GOOD_CONFIG + "D_eV = 2.0\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_molecule_config(path)

    def test_inconsistent_e0(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(GOOD_CONFIG + "E0_eV = 1.0\n")
        with pytest.raises(ConfigError, match="inconsistent"):
            load_molecule_config(path)

    def test_resolve_by_path_or_name(self, tmp_path):
        path = tmp_path / "demo.cfg"
        path.write_text(GOOD_CONFIG)
        assert resolve_molecule(str(path)).name == "demo"
        assert resolve_molecule("LiH").name == "LiH"


class TestSpectrumReport:
    def test_reference_join(self, h2):
        report = build_spectrum_report(h2, 0.2, WEYL)
        by_n = {row.n: row for row in report.rows}
        assert by_n[0].E_paper_eV == -4.528
        assert by_n[0].delta_eV == pytest.approx(by_n[0].E_eV + 4.528)
        assert by_n[1].E_paper_eV is None and by_n[1].delta_eV is None

    def test_csv_round_trip_exact(self, h2):
        report = build_spectrum_report(h2, 0.2, WEYL)
        text = spectrum_csv(report)
        back = parse_spectrum_csv(text)
        assert len(back.rows) == len(report.rows)
        for a, b in zip(report.rows, back.rows):
            assert a.n == b.n
            assert a.eps_nl == b.eps_nl
            assert a.E_eV == b.E_eV
            assert a.E_paper_eV == b.E_paper_eV
        assert back.provenance == {key: str(value) for key, value in report.provenance.items()}
        assert back.provenance["molecule"] == "H2" and back.provenance["eta"] == "0.2"

    def test_byte_identical_runs(self, h2):
        a = spectrum_csv(build_spectrum_report(h2, 0.4, WEYL))
        b = spectrum_csv(build_spectrum_report(h2, 0.4, WEYL))
        assert a == b

    def test_no_provenance_strips_comments(self, h2):
        text = spectrum_csv(build_spectrum_report(h2, 0.2, WEYL), include_provenance=False)
        assert not text.startswith("#")
        assert text.splitlines()[0] == "n,eps_nl,E_eV,E_paper_eV,delta_eV"

    def test_json_mirrors_csv(self, h2):
        report = build_spectrum_report(h2, 0.2, WEYL)
        doc = json.loads(spectrum_json(report))
        csv_rows = parse_spectrum_csv(spectrum_csv(report)).rows
        assert len(doc["rows"]) == len(csv_rows)
        for jrow, crow in zip(doc["rows"], csv_rows):
            assert jrow["n"] == crow.n
            assert jrow["E_eV"] == crow.E_eV
            assert jrow["eps_nl"] == crow.eps_nl


class TestTable1:
    def test_all_cells_pass_at_default_gate(self):
        summary = table1_report(0.005)
        assert summary.all_pass
        assert len(summary.cells) == 52
        assert summary.max_abs_delta < 0.005

    def test_tight_gate_fails(self):
        # reference values are rounded to 3 decimals; a 1e-9 gate must fail
        summary = table1_report(1e-9)
        assert not summary.all_pass

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            table1_report(0.0)

    def test_squared_branch_cell_is_unlisted(self, capsys):
        # H2 eta 0.2 n = 20 is a root on the squared branch: spectrum refuses it,
        # so the cell keeps its numbers but stays outside the gate and the count
        summary = table1_report(1e-9)
        unlisted = [(c.molecule, c.eta, c.n) for c in summary.cells if not c.listed]
        assert unlisted == [("H2", 0.2, 20)]
        assert len(summary.failures) == 51
        assert main(["table1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("table1 PASS: 51/51 listed cells within 0.005 eV, "
                                    "1 unlisted")
        assert ("UNLISTED H2 eta=0.2 n=20 E=-0.012227 reference=-0.012 delta=-0.000227"
                in lines)
        assert sum(line.startswith("PASS ") for line in lines) == 51


class TestWavefunctionExport:
    def test_schema_and_metadata(self, h2, h2_eta02):
        state = make_state(h2_eta02, 0)
        text = wavefunction_csv(h2, h2_eta02, state, 16, SignConvention.NORMALIZABLE)
        lines = text.splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == "z,x_angstrom,phi,psi_physical"
        assert any("sign_convention: normalizable" in ln for ln in lines)
        data = [ln for ln in lines if not ln.startswith("#")][1:]
        assert len(data) == 16

    def test_eta0_provenance_names_the_bounded_branch(self, capsys):
        # eta = 0 has only the bounded branch: whatever --convention asks
        # for, the rows are the normalizable ones and the provenance says so
        outputs = {}
        for convention in ("printed", "normalizable"):
            assert main(["wavefunction", "--molecule", "H2", "--eta", "0", "--n", "2",
                         "--samples", "8", "--convention", convention]) == 0
            outputs[convention] = capsys.readouterr().out
        assert outputs["printed"] == outputs["normalizable"]
        assert "# sign_convention: normalizable" in outputs["printed"].splitlines()
        assert "# bounded_at_origin: True" in outputs["printed"].splitlines()


class TestOracleCompareReport:
    def test_deterministic_rows_and_schema(self, h2):
        rows_a = oracle_compare_rows(h2, 0.2, WEYL, 0, 1001, domain=(-0.5, 5.0))
        rows_b = oracle_compare_rows(h2, 0.2, WEYL, 0, 1001, domain=(-0.5, 5.0))
        assert oracle_csv(rows_a) == oracle_csv(rows_b)
        header = [ln for ln in oracle_csv(rows_a).splitlines()
                  if not ln.startswith("#")][0]
        assert header == ("molecule,eta,ordering,n,E_analytic_eV,E_oracle_eV,"
                          "delta_eV,domain,grid_points")
        body = [ln for ln in oracle_csv(rows_a).splitlines() if not ln.startswith("#")][1:]
        assert [ln.split(",")[7] for ln in body] == ["explicit[-0.5;5]"]


class TestCliCommands:
    def test_table1_exit_zero(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "table1 PASS" in out

    def test_table1_failing_gate_exit_one(self, capsys):
        assert main(["table1", "--tolerance", "1e-9"]) == 1
        out, err = capsys.readouterr()
        assert "table1 FAIL" in out
        assert err == "pdmorse-error: table1: 51 of 51 listed cells outside 1e-09 eV\n"

    def test_spectrum_first_row(self, capsys):
        assert main(["spectrum", "--molecule", "H2", "--eta", "0.2"]) == 0
        out = capsys.readouterr().out
        first = [ln for ln in out.splitlines() if not ln.startswith("#")][1]
        assert float(first.split(",")[2]) == pytest.approx(-4.528, abs=0.005)

    def test_spectrum_json_format(self, capsys):
        assert main(["spectrum", "--molecule", "LiH", "--eta", "0.0",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"][0]["E_eV"] == pytest.approx(-2.429, abs=0.005)

    def test_eta_out_of_range_exit_one(self, capsys):
        assert main(["spectrum", "--molecule", "H2", "--eta", "1.5"]) == 1
        err = capsys.readouterr().err
        assert "pdmorse-error:" in err
        assert "eta out of range" in err

    def test_unknown_molecule_exit_one(self, capsys):
        assert main(["spectrum", "--molecule", "Xe2", "--eta", "0.1"]) == 1
        assert "unknown molecule" in capsys.readouterr().err

    def test_usage_error_exit_two(self, capsys):
        assert main(["spectrum", "--molecule", "H2"]) == 2  # missing --eta
        assert main(["no-such-command"]) == 2

    def test_validate_good_and_bad(self, tmp_path, capsys):
        good = tmp_path / "good.cfg"
        good.write_text(GOOD_CONFIG)
        assert main(["validate", str(good)]) == 0
        assert "OK name=demo" in capsys.readouterr().out
        bad = tmp_path / "bad.cfg"
        bad.write_text("name = x\n")
        assert main(["validate", str(bad)]) == 1

    def test_wavefunction_to_file(self, tmp_path):
        out = tmp_path / "wf.csv"
        assert main(["wavefunction", "--molecule", "H2", "--eta", "0.2",
                     "--n", "1", "--samples", "8", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[-1].count(",") == 3

    def test_oracle_compare_explicit_domain(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["oracle-compare", "--molecule", "H2", "--eta", "0.0",
                     "--n-max", "0", "--grid", "2001",
                     "--domain=-0.7,10.0", "--output", str(out)]) == 0
        data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert len(data) == 2  # header + one level

    def test_module_invocation(self, tmp_path):
        # end-to-end through the installed entry point
        result = subprocess.run(
            [sys.executable, "-m", "pdmorse", "spectrum", "--molecule", "H2",
             "--eta", "0.2", "--no-provenance"],
            capture_output=True, text=True, check=True)
        assert result.stdout.splitlines()[0] == "n,eps_nl,E_eV,E_paper_eV,delta_eV"


class TestSpectrumOrderingOption:
    def test_custom_ordering_triple(self, capsys):
        assert main(["spectrum", "--molecule", "H2", "--eta", "0.2",
                     "--ordering", "0,0,0", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["provenance"]["ordering"] == "0,0,0"

    def test_likuhn_equals_weyl_spectrum(self, h2):
        a = build_spectrum_report(h2, 0.4, WEYL)
        from pdmorse import LI_KUHN

        b = build_spectrum_report(h2, 0.4, LI_KUHN)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.E_eV == pytest.approx(rb.E_eV, rel=1e-14)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1.0, -3.0, 2.0**52,
               1e16, 1e17, 123456789012345678.0, 0.1, 1 / 3, math.pi * 1e-300,
               math.inf, -math.inf, math.nan]


class TestRowTemplates:
    """The one-template serializers give fmt()'s bytes, cell for cell."""

    def test_float_rows_edge_values(self):
        cols = [np.array(EDGE_FLOATS), np.array(EDGE_FLOATS[::-1]),
                -np.array(EDGE_FLOATS), np.roll(EDGE_FLOATS, 5)]
        expected = "".join(csv_row_reference(row) for row in zip(*cols))
        assert float_rows(*cols) == expected

    def test_float_rows_random_bits(self):
        rng = np.random.default_rng(2)
        values = rng.integers(0, 2**64, size=4000, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)][:3000].reshape(-1, 2)
        expected = "".join(csv_row_reference(row) for row in values)
        assert float_rows(values[:, 0], values[:, 1]) == expected

    def test_float_rows_empty(self):
        assert float_rows(np.array([]), np.array([])) == ""

    @staticmethod
    def spectrum_body(rows) -> str:
        report = SpectrumReport(rows=tuple(rows))
        return spectrum_csv(report, include_provenance=False).split("\n", 1)[1]

    @staticmethod
    def spectrum_reference(rows) -> str:
        return "".join(csv_row_reference((r.n, r.eps_nl, r.E_eV, r.E_paper_eV, r.delta_eV))
                       for r in rows)

    def test_spectrum_rows_with_and_without_references(self):
        rows = [SpectrumRow(0, -0.0, 5e-324, None, None),
                SpectrumRow(1, 289.0, -4.5277740052579727, -4.528, 0.000226),
                SpectrumRow(12, 1.7976931348623157e308, -2.0, None, None),
                SpectrumRow(13, 1e-300, -1e17, 3.0, -0.0)]
        assert self.spectrum_body(rows) == self.spectrum_reference(rows)
        assert self.spectrum_body([]) == ""

    def test_spectrum_csv_body(self, h2):
        rows = build_spectrum_report(h2, 0.4, WEYL).rows
        assert self.spectrum_body(rows) == self.spectrum_reference(rows)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(rows=st.lists(st.builds(SpectrumRow, n=st.integers(0, 10**9), eps_nl=st.floats(),
                                   E_eV=st.floats(), E_paper_eV=st.none() | st.floats(),
                                   delta_eV=st.none() | st.floats()), max_size=6),
           name=st.text(), provenance=st.sampled_from(["off", "empty", "full"]))
    @example(rows=[], name='q"uote\\ H\u2082 \u00e9', provenance="full")
    @example(rows=[SpectrumRow(0, 1.0, -4.5, None, None)], name="", provenance="off")
    def test_spectrum_json_matches_json_dumps(self, rows, name, provenance):
        prov = {} if provenance != "full" else base_provenance(
            molecule=name, eta=0.2, ordering="weyl", eigenvalue_formula="closed-form")
        report = SpectrumReport(rows=tuple(rows), provenance=prov)
        on = provenance != "off"
        assert spectrum_json(report, on) == spectrum_json_reference(report, on)

    @pytest.mark.parametrize("molecule", ["H2", "LiH"])
    @pytest.mark.parametrize("eta", [0.0, 0.3])
    def test_spectrum_json_of_the_built_ins(self, molecule, eta):
        report = build_spectrum_report(get_molecule(molecule), eta, WEYL)
        for on in (True, False):
            assert spectrum_json(report, on) == spectrum_json_reference(report, on)


def _option_surface(parser) -> dict:
    """{command: {option strings: (default, type, required, choices, const)}}, help left out."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {command: {tuple(a.option_strings) or (a.dest,): (
        a.default, getattr(a.type, "__name__", None), a.required,
        None if a.choices is None else tuple(a.choices), a.const)
        for a in command_parser._actions if not isinstance(a, argparse._HelpAction)}
        for command, command_parser in sub.choices.items()}


_WELL_OPTIONS = {
    ("--molecule",): (None, None, True, None, None),
    ("--eta",): (None, "float", True, None, None),
    ("--ordering",): ("weyl", None, False, None, None),
    ("--no-provenance",): (False, None, False, None, True),
    ("--output",): (None, None, False, None, None),
}


class TestParser:
    def test_option_surface(self):
        assert _option_surface(_build_parser()) == {
            "spectrum": {**_WELL_OPTIONS,
                         ("--format",): ("csv", None, False, ("csv", "json"), None)},
            "table1": {("--tolerance",): (0.005, "float", False, None, None)},
            "wavefunction": {
                **_WELL_OPTIONS,
                ("--n",): (None, "int", True, None, None),
                ("--samples",): (256, "int", False, None, None),
                ("--convention",): ("normalizable", None, False, ("printed", "normalizable"),
                                    None)},
            "oracle-compare": {
                **_WELL_OPTIONS,
                ("--n-max",): (2, "int", False, None, None),
                ("--grid",): (8001, "int", False, None, None),
                ("--domain",): (None, None, False, None, None)},
            "validate": {("config_path",): (None, None, True, None, None)},
        }

    def test_built_once_with_fresh_namespaces(self):
        assert _build_parser() is _build_parser()
        a = _build_parser().parse_args(["spectrum", "--molecule", "H2", "--eta", "0.2"])
        b = _build_parser().parse_args(["spectrum", "--molecule", "LiH", "--eta", "0.4",
                                        "--format", "json"])
        assert a is not b
        assert (a.molecule, a.eta, a.format) == ("H2", 0.2, "csv")
        assert (b.molecule, b.eta, b.format) == ("LiH", 0.4, "json")

    def test_usage_error_leaves_parser_usable(self, capsys):
        assert main(["wavefunction", "--molecule", "H2"]) == 2
        assert main(["spectrum", "--molecule", "H2", "--eta", "0.2"]) == 0

    def test_negative_ordering_triple_takes_the_equals_form(self, capsys, monkeypatch):
        # "--ordering -0.5,0,0" reads the triple as an option: a usage error
        argv = ["spectrum", "--molecule", "H2", "--eta", "0.2", "--no-provenance"]
        assert main(argv + ["--ordering", "-0.5,0,0"]) == 2
        capsys.readouterr()
        assert main(argv + ["--ordering=-0.5,0,0"]) == 0
        report = build_spectrum_report(get_molecule("H2"), 0.2,
                                       AmbiguityOrdering(a=-0.5, alpha=0.0, gamma=0.0))
        assert capsys.readouterr().out == spectrum_csv(report, include_provenance=False)
        monkeypatch.setenv("COLUMNS", "200")  # keep each help line unwrapped
        for command in ("spectrum", "wavefunction", "oracle-compare"):
            assert main([command, "--help"]) == 0
            assert "(use --ordering=-0.5,0,0 when a is negative)" in capsys.readouterr().out


DEEP_CORNER = "name = deep\nD_eV = 8\nr0_angstrom = 2.5\nm0_amu = 40\nalpha_prime = 0.8\n"
# ROADMAP item 4's reproducer: raw ZeroDivisionError before the closed form
HEAVY = "name = heavy\nD_eV = 8\nr0_angstrom = 2\nm0_amu = 100\nalpha_prime = 1\n"


class TestDeepLevels:
    """Deep levels either export finite rows or fail with one typed line."""

    @pytest.fixture
    def config(self, tmp_path):
        def write(text):
            path = tmp_path / "mol.cfg"
            path.write_text(text)
            return str(path)
        return write

    def test_deep_corner_eta0_exports_finite_rows(self, config, capsys):
        argv = ["wavefunction", "--molecule", config(DEEP_CORNER), "--eta", "0",
                "--ordering", "likuhn", "--n", "458", "--no-provenance"]
        start = time.perf_counter()
        assert main(argv) == 0
        assert time.perf_counter() - start < 1.0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 257
        values = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        assert np.all(np.isfinite(values))
        assert np.abs(values[:, 2]).max() > 0.1

    @pytest.mark.parametrize("eta", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    def test_deep_corner_levels_are_served_or_refused_once(self, config, capsys, eta):
        # every eighth listed level and the top three: finite rows, or exactly
        # one NormOverflow line; levels past degree 200 are served
        path = config(DEEP_CORNER)
        sys_ = reduce(load_molecule_config(path), eta, WEYL)
        listed = [st.n for st in spectrum(sys_)]
        served = []
        for n in sorted(set(listed[::max(1, len(listed) // 8)] + listed[-3:])):
            code = main(["wavefunction", "--molecule", path, "--eta", str(eta), "--n", str(n),
                         "--samples", "256", "--no-provenance"])
            captured = capsys.readouterr()
            if code == 0:
                lines = captured.out.splitlines()
                assert len(lines) == 257 and captured.err == "", n
                values = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
                assert np.all(np.isfinite(values)), n
                served.append(n)
                continue
            lines = captured.err.splitlines()
            assert code == 1 and captured.out == "", n
            assert len(lines) == 1 and lines[0].startswith("pdmorse-error: "), n
            with pytest.raises(NormOverflow):
                attach_norm(sys_, make_state(sys_, n))
        assert listed[-3:] == served[-3:]
        assert max(served) > 1000

    @pytest.mark.parametrize("text, eta, ordering, n", [
        (DEEP_CORNER, "0", "likuhn", "152"),     # eta = 0 norm beyond the largest float
        (HEAVY, "0", "weyl", "100"),             # was a raw ZeroDivisionError
        (DEEP_CORNER, "0.1", "likuhn", "161"),   # was a raw OverflowError
    ])
    def test_overflowing_norm_is_one_error_line(self, config, capsys, text, eta, ordering, n):
        argv = ["wavefunction", "--molecule", config(text), "--eta", eta,
                "--ordering", ordering, "--n", n]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("pdmorse-error: ")


class TestNonFiniteConfig:
    """A config that is not finite, or whose reduced parameters overflow, is one error line.

    Each command runs in its own interpreter under a time limit: a NaN root
    once kept the spectrum enumeration running forever.
    """

    CONFIGS = {
        "D-inf": "name = x\nD_eV = inf\nr0_angstrom = 0.7416\nm0_amu = 0.5\nalpha_prime = 1.44\n",
        # V2 = 2 D overflows
        "D-1e308": "name = x\nD_eV = 1e308\nr0_angstrom = 0.7416\nm0_amu = 0.5\n"
                   "alpha_prime = 1.44\n",
        # finite physical parameters; v1 = 2 V1 / (alpha'^2 E0) overflows
        "v1-overflow": "name = x\nD_eV = 1e300\nr0_angstrom = 2.5\nm0_amu = 1e10\n"
                       "alpha_prime = 0.8\n",
    }

    @pytest.mark.parametrize("name, command", [
        (name, command) for name in CONFIGS for command in ("spectrum", "wavefunction", "validate")
        if (name, command) != ("v1-overflow", "validate")])
    def test_one_error_line(self, tmp_path, name, command):
        path = tmp_path / "mol.cfg"
        path.write_text(self.CONFIGS[name])
        argv = {"spectrum": ["spectrum", "--molecule", str(path), "--eta", "0.2"],
                "wavefunction": ["wavefunction", "--molecule", str(path), "--eta", "0",
                                 "--n", "0"],
                "validate": ["validate", str(path)]}[command]
        result = subprocess.run([sys.executable, "-m", "pdmorse", *argv],
                                capture_output=True, text=True, timeout=10)
        assert result.returncode == 1 and result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("pdmorse-error: ")
        assert "finite" in lines[0]


class TestRejectedInput:
    """Input the program cannot serve exits 1 with one typed line and no output."""

    @pytest.mark.parametrize("argv, message", [
        (["oracle-compare", "--molecule", "H2", "--eta", "0.2", "--domain=nan,10"],
         "domain ends must be finite"),
        (["table1", "--tolerance", "nan"], "tolerance must be positive and finite"),
        # the whole line: the ordering checks its identity A1 + A2 = c_ord - 1/4 itself
        (["spectrum", "--molecule", "H2", "--eta", "0.2", "--ordering=nan,0,0"],
         "ordering nan,0,0 breaks the identity A1 + A2 = c_ord - 1/4 in floating point"),
        (["wavefunction", "--molecule", "H2", "--eta", "0.2", "--n", "1", "--samples", "0"],
         "samples must be positive"),
        (["oracle-compare", "--molecule", "H2", "--eta", "0.2", "--n-max", "-1"],
         "n_max must be non-negative"),
        # sqrt(eps) = 2.09 on the printed branch: phi^2 ~ z^-4.18 at the origin
        (["wavefunction", "--molecule", "H2", "--eta", "0.2", "--n", "17",
          "--convention", "printed"], "not integrable at the origin"),
        # levels spectrum does not list: H2 has n <= 16 at eta 0, n <= 19 at eta 0.2
        (["wavefunction", "--molecule", "H2", "--eta", "0", "--n", "25"], "not a bound level"),
        (["wavefunction", "--molecule", "H2", "--eta", "0", "--n", "40"], "not a bound level"),
        (["wavefunction", "--molecule", "H2", "--eta", "0.2", "--n", "20"], "not a bound level"),
        (["wavefunction", "--molecule", "H2", "--eta", "0.2", "--n", "40"], "not a bound level"),
        # oracle-compare levels spectrum does not list: H2 at eta 0.6 has n <= 15;
        # at eta 0.95 the closed-form n = 1 lies below n = 0
        (["oracle-compare", "--molecule", "H2", "--eta", "0.6", "--n-max", "16",
          "--grid", "2001"], "level n=16 is not a bound level"),
        (["oracle-compare", "--molecule", "H2", "--eta", "0.95", "--n-max", "1",
          "--grid", "2001"], "level n=1 is not a bound level"),
        # --output that cannot be opened for writing: a missing directory, a directory
        (["spectrum", "--molecule", "H2", "--eta", "0.2", "--output", "/no/such/dir/x.csv"],
         "cannot write --output '/no/such/dir/x.csv'"),
        (["spectrum", "--molecule", "H2", "--eta", "0.2", "--output", "."],
         "cannot write --output '.'"),
        # explicit domains with no level below zero: min U_eff is about
        # 12.6 eV on the first, so its window is empty; about -1e-16 eV on the second
        (["oracle-compare", "--molecule", "H2", "--eta", "0.2", "--n-max", "0", "--grid",
          "2001", "--domain=-0.6,-0.55"], "energy window [12.5713, 0] eV is empty"),
        (["oracle-compare", "--molecule", "H2", "--eta", "0.2", "--n-max", "0", "--grid",
          "2001", "--domain=20,30"], "state n=0 not bracketed"),
        # sizes past the address space are refused by the size limits, like any past them
        (["wavefunction", "--molecule", "H2", "--eta", "0.2", "--n", "1", "--samples",
          str(10**15)], "1000000000000000 samples are past the 1000000-sample limit"),
        (["oracle-compare", "--molecule", "H2", "--eta", "0.2", "--n-max", "0", "--grid",
          str(10**15)], "a grid of 1000000000000000 points is past the 1000001-point limit"),
    ], ids=["nan-domain", "nan-tolerance", "nan-ordering", "zero-samples", "negative-n-max",
            "printed-divergent-level", "eta0-n25", "eta0-n40", "eta02-n20", "eta02-n40",
            "oracle-eta06-n16", "oracle-eta095-n1", "output-missing-dir", "output-is-dir",
            "oracle-domain-above-zero", "oracle-domain-in-the-tail", "samples-1e15",
            "grid-1e15"])
    def test_one_error_line(self, capsys, argv, message):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("pdmorse-error: ")
        assert message in lines[0]

    @pytest.mark.parametrize("argv, message", [
        (["wavefunction", "--molecule", "H2", "--eta", "0.2", "--n", "1", "--samples",
          "1000001"], "1000001 samples are past the 1000000-sample limit"),
        (["oracle-compare", "--molecule", "H2", "--eta", "0", "--n-max", "0",
          "--domain=-0.7,3", "--grid", "1000002"],
         "a grid of 1000002 points is past the 1000001-point limit"),
    ], ids=["samples", "grid"])
    def test_size_limit_refuses_before_allocating(self, capsys, argv, message):
        main(argv[:-2])  # imports and first-call set-up stay out of the measurement
        capsys.readouterr()
        tracemalloc.start()
        start = time.perf_counter()
        try:
            assert main(argv) == 1
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 2**20  # one array of the refused size would take 8 MB
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"pdmorse-error: {message}"]

    def test_memory_error_is_one_error_line(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 PiB for an array")

        monkeypatch.setattr(cli, "wavefunction_csv", refuse)
        assert main(["wavefunction", "--molecule", "H2", "--eta", "0.2", "--n", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "pdmorse-error: out of memory: Unable to allocate 7.28 PiB for an array"]

    # H2's parameters in a well 2e11 times deeper: about 9 million levels
    DEEP_H2 = ("name = deep\nD_eV = 1e12\nr0_angstrom = 0.7416\nm0_amu = 0.50391\n"
               "alpha_prime = 1.440558\n")

    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "--eta", "0"], "the well has more than 100000 bound levels"),
        (["spectrum", "--eta", "0.2"], "the well has more than 100000 bound levels"),
        (["wavefunction", "--eta", "0.2", "--n", "5000000"],
         "level n=5000000 is past the 100000-level limit"),
        (["oracle-compare", "--eta", "0.2", "--n-max", "1000000000"],
         "level n=100000 is past the 100000-level limit"),
    ], ids=["spectrum-eta0", "spectrum-eta02", "wavefunction-n", "oracle-n-max"])
    def test_level_limit_is_one_error_line(self, tmp_path, capsys, argv, message):
        path = tmp_path / "mol.cfg"
        path.write_text(self.DEEP_H2)
        start = time.perf_counter()
        assert main([argv[0], "--molecule", str(path), *argv[1:]]) == 1
        assert time.perf_counter() - start < 10.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"pdmorse-error: {message}"]

    @pytest.mark.parametrize("command", ["validate", "spectrum"])
    def test_non_utf8_config_names_the_file(self, tmp_path, capsys, command):
        path = tmp_path / "mol.cfg"
        path.write_bytes(b"\xff\xfe" + GOOD_CONFIG.encode())
        with pytest.raises(ConfigError, match="codec can't decode"):
            load_molecule_config(path)
        argv = {"validate": ["validate", str(path)],
                "spectrum": ["spectrum", "--molecule", str(path), "--eta", "0.2"]}[command]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"pdmorse-error: cannot read config {path}: ")

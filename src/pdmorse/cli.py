"""Command-line interface.

Exit codes: 0 success, 1 validation/physics error (one machine-readable
line on stderr), 2 usage error.

``spectrum``, ``wavefunction`` and ``oracle-compare`` share one parent
parser for the options that name the well and the output.  :func:`main`
resolves the molecule, then the ordering, once for the three, and writes the
text each one builds; ``table1`` and ``validate`` print their own lines.
"""
from __future__ import annotations

import argparse
import functools
import sys

from .analytic import SignConvention, make_state
from .catalog import resolve_molecule
from .errors import PdmorseError
from .model import parse_ordering, reduce
from .reports import (build_spectrum_report, oracle_compare_rows, oracle_csv,
                      spectrum_csv, spectrum_json, table1_report,
                      wavefunction_csv)

_ORDERING_HELP = ("weyl | likuhn | a,alpha,gamma (use --ordering=-0.5,0,0 when a is "
                  "negative)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parse_args returns a fresh Namespace)."""
    parser = argparse.ArgumentParser(
        prog="pdmorse",
        description="Bound states of a position-dependent-mass generalized Morse well")
    sub = parser.add_subparsers(dest="command", required=True)

    well = argparse.ArgumentParser(add_help=False)
    well.add_argument("--molecule", required=True, help="built-in name or config path")
    well.add_argument("--eta", type=float, required=True)
    well.add_argument("--ordering", default="weyl", help=_ORDERING_HELP)
    well.add_argument("--no-provenance", action="store_true")
    well.add_argument("--output", default=None, help="write here instead of stdout")

    sp = sub.add_parser("spectrum", parents=[well], help="enumerate the analytic spectrum")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(text=_spectrum_text)

    tp = sub.add_parser("table1", help="reproduce the built-in reference energies")
    tp.add_argument("--tolerance", type=float, default=0.005, help="gate in eV")
    tp.set_defaults(run=_cmd_table1)

    wp = sub.add_parser("wavefunction", parents=[well], help="sample one eigenfunction")
    wp.add_argument("--n", type=int, required=True)
    wp.add_argument("--samples", type=int, default=256)
    wp.add_argument("--convention", choices=[c.value for c in SignConvention],
                    default="normalizable")
    wp.set_defaults(text=_wavefunction_text)

    op = sub.add_parser("oracle-compare", parents=[well],
                        help="shooting solver vs analytic energies")
    op.add_argument("--n-max", type=int, default=2)
    op.add_argument("--grid", type=int, default=8001, help="grid point count")
    op.add_argument("--domain", default=None,
                    help="xmin,xmax in Angstrom (use --domain=-0.7,10 for negative "
                         "xmin); default: run the domain study")
    op.set_defaults(text=_oracle_compare_text)

    vp = sub.add_parser("validate", help="validate a molecule config file")
    vp.add_argument("config_path")
    vp.set_defaults(run=_cmd_validate)
    return parser


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        try:
            with open(output, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise PdmorseError(f"cannot write --output {output!r}: {exc.strerror}") from exc


def _spectrum_text(args, mol, ordering) -> str:
    write = spectrum_csv if args.format == "csv" else spectrum_json
    return write(build_spectrum_report(mol, args.eta, ordering), not args.no_provenance)


def _wavefunction_text(args, mol, ordering) -> str:
    sys_ = reduce(mol, args.eta, ordering)
    return wavefunction_csv(mol, sys_, make_state(sys_, args.n), args.samples,
                            SignConvention(args.convention), not args.no_provenance)


def _oracle_compare_text(args, mol, ordering) -> str:
    domain = None
    if args.domain is not None:
        try:
            x_min, x_max = (float(part) for part in args.domain.split(","))
        except ValueError as exc:
            raise PdmorseError(f"malformed --domain {args.domain!r}; expected xmin,xmax") from exc
        domain = (x_min, x_max)
    rows = oracle_compare_rows(mol, args.eta, ordering, args.n_max, args.grid, domain)
    return oracle_csv(rows, not args.no_provenance)


def _cmd_table1(args) -> int:
    summary = table1_report(tolerance_ev=args.tolerance)
    for cell in summary.cells:
        status = ("PASS" if cell.ok else "FAIL") if cell.listed else "UNLISTED"
        print(f"{status} {cell.molecule} eta={cell.eta:g} n={cell.n} "
              f"E={cell.E_eV:+.6f} reference={cell.E_paper_eV:+.3f} "
              f"delta={cell.delta_eV:+.6f}")
    verdict = "PASS" if summary.all_pass else "FAIL"
    listed = len(summary.listed)
    print(f"table1 {verdict}: {listed - len(summary.failures)}/{listed} listed cells within "
          f"{summary.tolerance_eV:g} eV, {len(summary.cells) - listed} unlisted "
          f"(max |delta| = {summary.max_abs_delta:.6f} eV)")
    if not summary.all_pass:
        raise PdmorseError(f"table1: {len(summary.failures)} of {listed} listed cells outside "
                           f"{summary.tolerance_eV:g} eV")
    return 0


def _cmd_validate(args) -> int:
    from .catalog import load_molecule_config

    mol = load_molecule_config(args.config_path)
    print(f"OK name={mol.name} D_eV={mol.D:g} r0_angstrom={mol.r0:g} "
          f"m0_amu={mol.m0:g} alpha_prime={mol.alpha_prime:g} E0_eV={mol.E0:.9g}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if "text" not in args:
            return args.run(args)
        mol = resolve_molecule(args.molecule)
        _emit(args.text(args, mol, parse_ordering(args.ordering)), args.output)
        return 0
    except (PdmorseError, ValueError) as exc:
        print(f"pdmorse-error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's allocation error for an array past the address space
        print(f"pdmorse-error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

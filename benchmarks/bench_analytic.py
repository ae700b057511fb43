"""Benchmark the analytic request path: eta = 0 norm, CSV export, CLI parser, cold start.

Times, in ms per call (best of --repeats rounds of --calls calls each):
``attach_norm`` at eta = 0, ``wavefunction_csv`` at 256 and 1024 samples
(H2, eta = 0.2, n = 1, provenance off) and ``cli._build_parser``.  The parser
is built once per process and cached; the cold figure clears that cache
before every call.  The cold-start lines are the median wall time of
--repeats fresh interpreters, run in interleaved rounds, for ``import
pdmorse``, ``spectrum --molecule H2 --eta 0.2 --no-provenance``, ``table1``
and ``wavefunction --molecule H2 --eta 0.2 --n 1 --samples 256
--no-provenance`` (numpy and the eigenfunction layer, but not the shooting
oracle).  Usage:

    python benchmarks/bench_analytic.py [--repeats 5] [--calls 200]

``--repeats 15`` gives the medians of 15 cold runs that ROADMAP item 14
gates (cold ``spectrum`` and ``table1`` at or below 160 ms).
"""
import argparse
import statistics
import subprocess
import sys
import time

from pdmorse import WEYL, get_molecule, make_state, reduce
from pdmorse import cli
from pdmorse.reports import wavefunction_csv
from pdmorse.wavefn import SignConvention, attach_norm


def best_ms(fn, repeats: int, calls: int, setup=None) -> float:
    best = float("inf")
    for _ in range(repeats):
        total = 0.0
        for _ in range(calls):
            if setup is not None:
                setup()
            t0 = time.perf_counter()
            fn()
            total += time.perf_counter() - t0
        best = min(best, total / calls)
    return best * 1e3


COLD_STARTS = [
    ("cold import pdmorse", ["-c", "import pdmorse"]),
    ("cold spectrum", ["-m", "pdmorse", "spectrum", "--molecule", "H2", "--eta", "0.2",
                       "--no-provenance"]),
    ("cold table1", ["-m", "pdmorse", "table1"]),
    ("cold wavefunction", ["-m", "pdmorse", "wavefunction", "--molecule", "H2", "--eta", "0.2",
                           "--n", "1", "--samples", "256", "--no-provenance"]),
]


def cold_start_ms(runs: int) -> list[float]:
    """Median wall time of each COLD_STARTS command in a fresh interpreter, in ms."""
    times: list[list[float]] = [[] for _ in COLD_STARTS]
    for _ in range(runs):
        for samples, (_, args) in zip(times, COLD_STARTS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, *args], stdout=subprocess.DEVNULL, check=True)
            samples.append(time.perf_counter() - t0)
    return [statistics.median(samples) * 1e3 for samples in times]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--calls", type=int, default=200)
    args = parser.parse_args()
    mol = get_molecule("H2")
    sys0 = reduce(mol, 0.0, WEYL)
    deep0 = make_state(sys0, 12)
    sys2 = reduce(mol, 0.2, WEYL)
    state2 = make_state(sys2, 1)
    conv = SignConvention.NORMALIZABLE

    cases = [
        ("attach_norm eta=0 n=12", lambda: attach_norm(sys0, deep0), None),
        ("wavefunction_csv 256", lambda: wavefunction_csv(mol, sys2, state2, 256, conv, False), None),
        ("wavefunction_csv 1024", lambda: wavefunction_csv(mol, sys2, state2, 1024, conv, False), None),
        ("_build_parser (cached)", cli._build_parser, None),
        ("_build_parser (cold)", cli._build_parser, cli._build_parser.cache_clear),
    ]
    for label, fn, setup in cases:
        print(f"{label:24s}: {best_ms(fn, args.repeats, args.calls, setup):8.4f} ms/call")
    for (label, _), ms in zip(COLD_STARTS, cold_start_ms(args.repeats)):
        print(f"{label:24s}: {ms:8.1f} ms (median of {args.repeats} fresh interpreters)")


if __name__ == "__main__":
    main()

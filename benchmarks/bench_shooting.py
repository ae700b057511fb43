"""Benchmark the shooting kernels: RK4 propagator build and 2x2 sweep.

The closed-form propagators are built with vectorized numpy; the sequential
sweep runs as the Python fallback and, when numba is importable, also as the
compiled kernel.  Times are the best of --repeats calls.  Usage:

    python benchmarks/bench_shooting.py [--points 8001] [--repeats 5]
"""
import argparse
import time

import numpy as np

from pdmorse import GridSpec, MassModel, WEYL, get_molecule, u_eff
from pdmorse import kernels
from pdmorse.units import HBAR2_EV_AMU_A2


def build_tables(points: int):
    mol = get_molecule("H2")
    mm = MassModel.for_molecule(mol, 0.0)
    grid = GridSpec(-0.7, 10.0, points)
    xs = grid.xs()
    xm = 0.5 * (xs[:-1] + xs[1:])
    e_trial = -4.4
    q_nodes = 2.0 * mm.mass(xs) * (u_eff(mm, WEYL, mol, xs) - e_trial) / HBAR2_EV_AMU_A2
    q_mids = 2.0 * mm.mass(xm) * (u_eff(mm, WEYL, mol, xm) - e_trial) / HBAR2_EV_AMU_A2
    return q_nodes, q_mids, grid.h


def best_time(fn, args, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def report(label: str, seconds: float, steps: int) -> None:
    print(f"{label:16s}: {seconds * 1e3:8.3f} ms  ({seconds / steps * 1e9:7.1f} ns/step)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=8001)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    tables = build_tables(args.points)
    props = kernels.rk4_propagators(*tables)
    steps = len(props[0])
    print(f"points          : {args.points} ({steps} steps)")

    report("propagators", best_time(kernels.rk4_propagators, tables, args.repeats), steps)
    t_py = best_time(kernels.sweep_python, (*props, 0.0, 1.0), args.repeats)
    report("python sweep", t_py, steps)

    if kernels.HAS_NUMBA:
        kernels.sweep_numba(*props, 0.0, 1.0)  # compile outside the timing
        t_nb = best_time(kernels.sweep_numba, (*props, 0.0, 1.0), args.repeats)
        report("numba sweep", t_nb, steps)
        print(f"speedup         : {t_py / t_nb:8.1f}x")
        py_out = kernels.sweep_python(*props, 0.0, 1.0)
        nb_out = kernels.sweep_numba(*props, 0.0, 1.0)
        agree = (py_out[2] == nb_out[2]
                 and np.isclose(py_out[0], nb_out[0], rtol=1e-13)
                 and np.isclose(py_out[1], nb_out[1], rtol=1e-13))
        print(f"paths agree     : {agree}")
    else:
        print("numba not installed; only the fallback sweep was timed")
    print(f"active path     : {'numba' if kernels.USE_NUMBA else 'python'} "
          f"(PDMORSE_DISABLE_NUMBA to force the fallback)")


if __name__ == "__main__":
    main()

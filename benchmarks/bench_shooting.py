"""Benchmark the shooting kernels: RK4 propagator build and 2x2 sweeps.

Times the closed-form propagator build, the full sweep at a trial energy and
the node-count-only sweep (``nodes_only=True``) at 5e-7 eV above the H2
ground level of the same grid, where the oracle certifies a level.  Times
are the best of --repeats calls, in ms per call and ns per table step; the
nodes_only line also gives the steps it propagated.  Usage:

    python benchmarks/bench_shooting.py [--points 8001] [--repeats 100]
"""
import argparse
import time

from pdmorse import GridSpec, MassModel, WEYL, get_molecule, solve_states, u_eff
from pdmorse import kernels, oracle

MOLECULE = get_molecule("H2")
MASS = MassModel.for_molecule(MOLECULE, 0.0)


def grid_for(points: int) -> GridSpec:
    return GridSpec(-0.7, 10.0, points)


def build_tables(points: int, e_trial: float = -4.4):
    """The oracle's own coefficient tables (q at nodes and midpoints) and step."""
    engine = oracle._ShootingEngine(lambda x: u_eff(MASS, WEYL, MOLECULE, x), MASS.mass,
                                    grid_for(points))
    return (*engine._q(e_trial), engine.h)


def propagated_steps(props, phi: float, dphi: float) -> int:
    """Steps a nodes_only sweep propagates: up to the start of the
    non-negative tail, then on to the first state with phi, phi' of one sign."""
    k = kernels._settled_start(props)
    phi, dphi, _ = kernels.sweep(*(m[:k] for m in props), phi, dphi)
    while k < len(props[0]) and not ((phi >= 0.0 and dphi >= 0.0)
                                     or (phi <= 0.0 and dphi <= 0.0)):
        phi, dphi, _ = kernels.sweep(*(m[k:k + 1] for m in props), phi, dphi)
        k += 1
    return k


def best_time(fn, args, repeats: int, **kwargs) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best


def report(label: str, seconds: float, steps: int, note: str = "") -> None:
    print(f"{label:17s}: {seconds * 1e3:8.3f} ms  ({seconds / steps * 1e9:7.1f} ns/step){note}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=8001)
    parser.add_argument("--repeats", type=int, default=100)
    args = parser.parse_args()

    tables = build_tables(args.points)
    props = kernels.rk4_propagators(*tables)
    steps = len(props[0])
    print(f"points           : {args.points} ({steps} steps)")
    report("propagators", best_time(kernels.rk4_propagators, tables, args.repeats), steps)
    report("sweep", best_time(kernels.sweep, (*props, 0.0, 1.0), args.repeats), steps)

    (_, level), = solve_states(MASS, WEYL, MOLECULE, grid_for(args.points), [0])
    near = kernels.rk4_propagators(*build_tables(args.points, level + 5e-7))
    seconds = best_time(kernels.sweep, (*near, 0.0, 1.0), args.repeats, nodes_only=True)
    report("sweep, nodes_only", seconds, steps,
           f"  propagated {propagated_steps(near, 0.0, 1.0)} of {steps} steps")


if __name__ == "__main__":
    main()

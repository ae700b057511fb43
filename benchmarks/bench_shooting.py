"""Benchmark the shooting kernels and the oracle's two kinds of sweep.

Times the closed-form propagator build and the step-by-step sweep over the
whole grid at a trial energy.  Then it solves the 13 lowest H2 levels on an
engine built as solve_states builds it, with its step table over the
window (min U_eff, 0).  At 5e-7 eV above the ground level, where the oracle
certifies it, it times one counting sweep (``count_round`` of one energy,
on the staircase as the solve left it, so that the energy is swept and not
looked up) and one refinement half-sweep pair (``phase``: the right start,
both sweeps and their block products).  Times are the best of --repeats calls,
in ms per call and ns per grid step.  The block size line gives the steps
per block, and the engine build line times ``oracle._effective_engine`` on
the grid: its U_eff and mass tables, block size and an empty step table,
which the rounds of a solve fill as far as they reach.  The table fill line
times the fill of a whole step table of that engine.  The wall engine line
times an engine build and a 4-level solve (tol 1e-6 eV, as
oracle-compare solves) on [-2.5, 10] A, a domain that reaches into the
steep left wall, where blocks could grow the solution by more than
exp(oracle.BLOCK_GROWTH) and the engine sweeps in blocks of m = 1 step; it
prints that m.  The next two lines give the Python states (blocks or
steps) per sweep, the iterations of ``kernels.sweep``.  The batched round line times one
refinement round of 13 energies, 5e-7 eV above each level: their shared
block-table evaluations and a half-sweep pair per energy, in ms per round
and per energy.  The faults line gives the minor page faults of one engine
build and 13-level solve, repeated after two alike in the same process: the
pages the oracle's heap hands back to the kernel and faults in again
(0 once ``oracle._keep_freed_heap`` has set glibc's thresholds).  Usage:

    python benchmarks/bench_shooting.py [--points 8001] [--repeats 100]
"""
import argparse
import resource
import time

import numpy as np

from pdmorse import GridSpec, MassModel, WEYL, get_molecule
from pdmorse import kernels, oracle

MOLECULE = get_molecule("H2")
MASS = MassModel.for_molecule(MOLECULE, 0.0)
LEVELS = 13
WALL_DOMAIN = (-2.5, 10.0)
WALL_LEVELS = 4


def grid_for(points: int) -> GridSpec:
    return GridSpec(-0.7, 10.0, points)


def build_engine(points: int):
    return oracle._effective_engine(MASS, WEYL, MOLECULE, grid_for(points))


def wall_engine(points: int):
    """An engine on WALL_DOMAIN, after its WALL_LEVELS-level solve."""
    engine = oracle._effective_engine(MASS, WEYL, MOLECULE, GridSpec(*WALL_DOMAIN, points))
    engine.solve(range(WALL_LEVELS), 1e-6)
    return engine


def sweep_states(fn) -> tuple[int, int]:
    """(sweeps, Python states) of the kernels.sweep calls fn() makes."""
    states = []
    sweep = kernels.sweep
    kernels.sweep = lambda *args: states.append(len(args[0])) or sweep(*args)
    try:
        fn()
    finally:
        kernels.sweep = sweep
    return len(states), sum(states)


def best_time(fn, args, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def report(label: str, seconds: float, steps: int, note: str = "") -> None:
    print(f"{label:17s}: {seconds * 1e3:8.3f} ms  ({seconds / steps * 1e9:7.1f} ns/step){note}")



def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=8001)
    parser.add_argument("--repeats", type=int, default=100)
    args = parser.parse_args()

    engine = build_engine(args.points)
    tables = (*engine._q(-4.4), engine.h)
    props = kernels.rk4_propagators(*tables)
    steps = len(props[0])
    print(f"points           : {args.points} ({steps} steps)")
    report("propagators", best_time(kernels.rk4_propagators, tables, args.repeats), steps)
    report("sweep", best_time(kernels.sweep, (*props, 0.0, 1.0), args.repeats), steps)

    near = [e + 5e-7 for _, e in engine.solve(range(LEVELS), 1e-7)]
    print(f"block size       : {engine._blocks.m} steps")
    report("engine build", best_time(build_engine, (args.points,), args.repeats), steps)
    blocks, tables = engine._blocks, (engine.u_nodes, engine.u_mids, engine.p_nodes, engine.p_mids)

    def fill():
        oracle._BlockTables(tables, engine.h, blocks.energies, blocks.m).fill()

    report("table fill", best_time(fill, (), args.repeats), steps)
    report("wall engine", best_time(wall_engine, (args.points,), args.repeats), steps,
           f"  m = {wall_engine(args.points)._blocks.m}, {WALL_LEVELS} levels")

    stair = engine._stair_e[:], engine._stair_n[:]

    def count():
        engine._stair_e, engine._stair_n = stair[0][:], stair[1][:]
        engine.count_round([near[0]])

    def half_sweep_pair():
        engine._matched.clear()
        engine.phase(near[0], 1.0)

    for label, fn in (("counting sweep", count), ("half-sweep pair", half_sweep_pair)):
        sweeps, states = sweep_states(fn)
        report(label, best_time(fn, (), args.repeats), steps,
               f"  {states / sweeps:.0f} states per sweep over {steps} steps")

    starts = engine._right_starts(np.array(near))

    def round_of_levels():
        engine._matched.clear()
        engine._half_sweeps(near, starts)

    seconds = best_time(round_of_levels, (), args.repeats)
    print(f"{'batched round':17s}: {seconds * 1e3:8.3f} ms  "
          f"({seconds / LEVELS * 1e3:.3f} ms per energy, {LEVELS} energies)")

    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        build_engine(args.points).solve(range(LEVELS), 1e-7)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    print(f"{'engine faults':17s}: {faults} minor page faults per engine build and solve")


if __name__ == "__main__":
    main()

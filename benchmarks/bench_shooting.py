"""Benchmark the shooting kernels and the oracle's two kinds of sweep.

Prints which code ``kernels.walk`` runs (``kernels.sweep_kernel``: the
compiled library, or why numpy and the Python loop run).  Times the
closed-form propagator build over the whole grid at a trial energy, then
the Python sweep (``kernels.sweep``) and the compiled walk
(``kernels.walk``, where it built) step by step over those propagators, in
us per call and ns per state, and in us per call over a single state, the
fixed cost of a call.  The compiled walk reads the propagators from a
table of one step per block, so each of its states also evaluates a step
by Horner's rule.  Then it solves the 13 lowest H2 levels on an engine
built as solve_states builds it, with its step table over the window
(min U_eff, 0).  At 5e-7 eV above the ground level, where the oracle
certifies it, it times one counting sweep (``count_round`` of one energy,
on the staircase as the solve left it, so that the energy is swept and not
looked up) and one refinement half-sweep pair (``phase``: the right start
and both walks).  Times are the best of --repeats calls, in ms per call and
ns per grid step.  The block size line gives the steps per block, and the
engine build line times ``oracle._effective_engine`` on the grid: its U_eff
and mass tables, block size and an empty step table, which the rounds of a
solve fill as far as they reach.  The table fill line times the fill of a
whole step table of that engine.  The wall engine line times an engine
build and a 4-level solve (tol 1e-6 eV, as oracle-compare solves) on
[-2.5, 10] A, a domain that reaches into the steep left wall, where blocks
could grow the solution by more than exp(oracle.BLOCK_GROWTH) and the
engine sweeps in blocks of m = 1 step; it prints that m.  The next two
lines give the states (blocks or steps) per sweep, the blocks each walk of
``kernels.walk`` takes.  The batched round line times one refinement round
of 13 energies, 5e-7 eV above each level (``_half_sweeps``: a left and a
right walk of all 13), once in the compiled library and once in numpy and
the Python loop (the loader's fallback, forced), in ms per round and per
energy.  The faults line gives the minor page faults of one engine build
and 13-level solve, repeated after two alike in the same process: the
pages the oracle's heap hands back to the kernel and faults in again (0
once ``oracle._keep_freed_heap`` has set glibc's thresholds).  Usage:

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
    """(sweeps, states) of the walks of the kernels.walk calls fn() makes."""
    states = []
    walk = kernels.walk
    kernels.walk = lambda table, b0, ends, *args, **kw: (states.extend(end - b0 for end in ends)
                                                         or walk(table, b0, ends, *args, **kw))
    try:
        fn()
    finally:
        kernels.walk = walk
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


def report_sweep(label: str, full, one, steps: int, repeats: int) -> None:
    """full() sweeps all steps and one() a single step: us per call, ns per state."""
    t_full, t_one = best_time(full, (), repeats), best_time(one, (), repeats)
    print(f"{label:17s}: {t_full * 1e6:9.1f} us per call  ({t_full / steps * 1e9:6.1f} ns per "
          f"state over {steps} states; {t_one * 1e6:.2f} us per 1-state call)")


def python_sweep(rows):
    return lambda: kernels.sweep(*rows, 0.0, 1.0)


def compiled_sweep(rows):
    """A walk over a table of one step per block, c2 = c1 = 0 and f the steps."""
    table = np.zeros((3, 2, 2, 1, len(rows[0])))
    table[1] = np.reshape(rows, (2, 2, 1, -1))
    return lambda: kernels.walk(table, 0, [table.shape[4]], np.zeros(1), [(0.0, 1.0)])


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
    kernel = kernels.sweep_kernel()
    print(f"kernel           : {kernel}")
    report("propagators", best_time(kernels.rk4_propagators, tables, args.repeats), steps)

    first = [m[:1] for m in props]
    report_sweep("sweep python", python_sweep(props), python_sweep(first), steps, args.repeats)
    if kernel.startswith("compiled"):
        report_sweep("sweep compiled", compiled_sweep(props), compiled_sweep(first), steps,
                     args.repeats)
    else:
        print(f"{'sweep compiled':17s}: not built")

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

    library = kernels._library
    compiled = (f"{best_time(round_of_levels, (), args.repeats) * 1e3:.3f} ms"
                if kernel.startswith("compiled") else "not built")
    kernels._library = False
    try:
        numpy_s = best_time(round_of_levels, (), args.repeats)
    finally:
        kernels._library = library
    print(f"{'batched round':17s}: compiled {compiled}, numpy {numpy_s * 1e3:.3f} ms per round "
          f"({numpy_s / LEVELS * 1e3:.3f} ms per energy in numpy, {LEVELS} energies)")

    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        build_engine(args.points).solve(range(LEVELS), 1e-7)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    print(f"{'engine faults':17s}: {faults} minor page faults per engine build and solve")


if __name__ == "__main__":
    main()

"""The library names the benchmarks reach into stay in place.

The tracer wraps every entry point listed in ``tracing.BOUNDARIES`` at its
``pdmorse.<layer>`` home, the run record reads ``kernels.USE_NUMBA``, and the
output checks import from the library.  The micro-benchmark scripts under
``benchmarks/`` reach private names (``oracle._effective_engine``,
``oracle._BlockTables`` and its ``fill``, and the engine's ``_q``, ``solve``,
``count_round``, ``phase``, ``_half_sweeps``, ``_right_starts``, ``_matched``
and ``_blocks.m`` and ``.energies``), so each runs here once at
a small size, as do the ``src/`` code-line counter and the deck-0 byte
comparison (``same_bytes.py``, which reads ``e2ebench/workloads``).  A
deletion or rename that would break any of them fails here, not only when a
benchmark is run.
"""
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
E2EBENCH = ROOT / "e2ebench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_e2ebench_{name}", E2EBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_traced_boundaries_are_callable_at_their_homes():
    boundaries = _load("tracing").BOUNDARIES
    missing = [f"{layer}.{name}" for layer, names in boundaries.items() for name in names
               if not callable(getattr(importlib.import_module(f"pdmorse.{layer}"), name, None))]
    assert sum(len(names) for names in boundaries.values()) > 30
    assert missing == []


def test_run_record_reads_use_numba():
    from pdmorse import kernels

    assert hasattr(kernels, "USE_NUMBA")


def test_output_checks_import():
    assert callable(_load("checks").judge)


@pytest.mark.parametrize("script, args, labels", [
    ("bench_shooting.py", ["--points", "2001", "--repeats", "1"],
     ["points", "propagators", "sweep", "block size", "engine build", "table fill", "wall engine",
      "counting sweep", "half-sweep pair", "batched round", "engine faults"]),
    ("bench_analytic.py", ["--repeats", "1", "--calls", "1"],
     ["attach_norm eta=0 n=12", "wavefunction_csv 256", "wavefunction_csv 1024",
      "_build_parser (cached)", "_build_parser (cold)", "cold import pdmorse",
      "cold spectrum", "cold table1", "cold wavefunction"]),
    ("code_lines.py", [],
     sorted(path.name for path in (ROOT / "src" / "pdmorse").glob("*.py")) + ["total"]),
    ("same_bytes.py", ["HEAD", "--workload", "oracle_deep", "--seed", "1"],
     ["oracle_deep seed 1"]),
    # an unknown revision, as any revision is outside a git checkout
    ("same_bytes.py", ["no-such-rev", "--workload", "oracle_deep", "--seed", "1"],
     ["oracle_deep seed 1"]),
])
def test_benchmark_script_runs(script, args, labels):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "benchmarks" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    # same_bytes.py exits 1 when the working tree prints other bytes than HEAD, as
    # it may while an output change is under way; only its labels are pinned here
    assert done.returncode in ((0, 1) if script == "same_bytes.py" else (0,)), done.stderr
    lines = done.stdout.splitlines()
    assert [re.split(r"\s*: ", line, maxsplit=1)[0] for line in lines] == labels
    if script == "bench_shooting.py":
        assert re.search(r"^block size +: (1|2|4|8|16) steps$", lines[3])
        assert re.search(r"  m = 1, 4 levels$", lines[6])
        assert re.search(r" \d+ states per sweep over 2000 steps$", lines[-3])
        assert re.search(r" ms per energy, 13 energies\)$", lines[-2])
        assert re.search(r": \d+ minor page faults per engine build and solve$", lines[-1])
    if args[:1] == ["no-such-rev"]:
        assert (done.returncode, lines) == (1, ["oracle_deep seed 1: cannot extract no-such-rev"])
    if script == "code_lines.py":
        counts = [int(line.rsplit(":", 1)[1]) for line in lines]
        assert sum(counts[:-1]) == counts[-1] > 0

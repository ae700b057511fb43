"""The library names the benchmark in ``e2ebench/`` reaches into stay in place.

The tracer wraps every entry point listed in ``tracing.BOUNDARIES`` at its
``pdmorse.<layer>`` home, the run record reads ``kernels.USE_NUMBA``, and the
output checks import from the library.  A deletion that would break any of
them fails here, not only in the benchmark's own self-test.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

E2EBENCH = Path(__file__).resolve().parent.parent / "e2ebench"


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

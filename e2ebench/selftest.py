"""Tests of the benchmark itself.

    python3 -m pytest e2ebench/selftest.py
"""
import contextlib
import io

import run

run.load_program()

import tracing  # noqa: E402
from pdmorse import cli  # noqa: E402

# The roadmap's baseline command and the counts it was measured to make.
BASELINE = ["oracle-compare", "--molecule", "H2", "--eta", "0.2", "--n-max", "2",
            "--grid", "8001"]


def traced(argv):
    with tracing.Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        tracer.request_id = 0
        code = cli.main(argv)
        tracer.request_id = None
    return code, {name: value for name, (value, _) in tracer.layer_metrics().items()}


def test_baseline_counts_match_the_roadmap():
    code, metrics = traced(BASELINE)
    assert code == 0
    assert metrics["kernels.sweep_calls"] == 168
    assert metrics["kernels.propagator_calls"] == 168
    assert metrics["oracle.levels"] == 6
    assert metrics["oracle.sweeps_per_level"] == 28.0
    assert metrics["cli.requests"] == 1


def test_tracer_restores_every_wrapped_name():
    import pdmorse
    from pdmorse import kernels, reports

    before = (cli.main, cli.reduce, reports.spectrum, pdmorse.spectrum, kernels.sweep)
    with tracing.Tracer() as tracer:
        assert cli.main is not before[0] and kernels.sweep is not before[4]
        assert not tracer.missing
    assert (cli.main, cli.reduce, reports.spectrum, pdmorse.spectrum, kernels.sweep) == before


def test_eta0_export_is_counted_as_quadrature_norm():
    code, metrics = traced(["wavefunction", "--molecule", "H2", "--eta", "0", "--n", "2",
                            "--samples", "256"])
    assert code == 0
    assert metrics["wavefn.norm_quadrature"] == 1 and metrics["wavefn.norm_closed"] == 0
    assert metrics["quadrature.integrals"] == 1 and metrics["quadrature.panels"] >= 1
    assert metrics["wavefn.phi_calls"] == 1 and metrics["wavefn.phi_points"] == 256


def test_smoke_emits_every_metric_with_its_unit():
    assert run.smoke() == []


def test_same_seed_gives_same_outputs_and_counts():
    counted = ("kernels.sweep_calls", "quadrature.panels", "oracle.levels", "cli.requests")
    for workload, limit in (("oracle_ladder", 2), ("analytic_sweep", None)):
        runs = [run.run_workload(workload, 7, 0.0, 1, synthetic=4, request_limit=limit,
                                 setup_probes=1) for _ in range(2)]
        (first, first_record), (second, second_record) = runs
        assert first["correct"] and second["correct"]
        assert first_record["request_digests"] == second_record["request_digests"]
        for name in counted:
            assert first["metrics"][name] == second["metrics"][name], name

"""End-to-end benchmark of the pdmorse command line, run in-process.

    python3 e2ebench/run.py --workload oracle_deep --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --smoke

One caller drives ``pdmorse.cli.main(argv)`` in a closed loop, with stdout
captured in memory, over whole decks of seeded requests until ``--seconds``
have passed.  Outputs are checked after each request, outside its timed
region.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays
the same requests with every layer wrapped (see ``tracing.py``) and prints
the per-layer metrics plus the tracing overhead.  The last stdout line is
one JSON object: correct, attempted, failed, metrics.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2.
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
SETUP_PROBES = 11
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")


def load_program():
    """Import pdmorse from this checkout's src/, never from elsewhere."""
    if not (SRC / "pdmorse" / "__init__.py").is_file():
        raise SystemExit(f"e2ebench: no pdmorse sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pdmorse

    if Path(pdmorse.__file__).resolve().parent != SRC / "pdmorse":
        raise SystemExit(f"e2ebench: imported pdmorse from {pdmorse.__file__}, not {SRC}")
    return pdmorse


@dataclass
class Outcome:
    """One executed request: timing, verdict and a digest of what it printed."""

    seconds: float
    digest: str
    failure: str | None
    wrong: str | None
    levels: int
    max_err_ev: float | None
    stdout: str


class RequestTimeout(BaseException):
    """Raised into a request that outlived its time limit; never caught by the program."""


def _expire(signum, frame):
    raise RequestTimeout


def execute(request, limit_s: float | None, tracer=None,
            request_id: int | None = None) -> Outcome:
    """Run one request; with a tracer, spans are recorded for the cli.main call only."""
    import checks
    from pdmorse import cli

    out, err = io.StringIO(), io.StringIO()
    code, exc, timed_out = None, None, False
    previous = signal.signal(signal.SIGALRM, _expire)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.request_id = request_id
        start = time.perf_counter()
        try:
            if limit_s is not None:
                signal.setitimer(signal.ITIMER_REAL, limit_s)
            code = cli.main(list(request.argv))
        except RequestTimeout:
            timed_out = True
        except Exception as error:  # escaping cli.main is a counted request failure
            exc = error
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.request_id = None
    signal.signal(signal.SIGALRM, previous)
    stdout = out.getvalue()
    if timed_out:
        return Outcome(seconds, "timeout", f"timeout after {limit_s:g} s",
                       None, 0, None, "")
    verdict = checks.judge(request, code, exc, stdout)
    outcome_tag = f"exit={code} raised={type(exc).__name__ if exc else ''}\n"
    digest = hashlib.sha256((outcome_tag + stdout).encode()).hexdigest()
    return Outcome(seconds, digest, verdict.failure, verdict.wrong,
                   verdict.levels, verdict.max_err_ev, stdout)


def run_decks(inputs, seconds: float, request_limit: int | None = None):
    """Whole decks in a closed loop until `seconds` pass; returns (requests, outcomes, decks)."""
    import workloads

    requests, outcomes = [], []
    start = time.perf_counter()
    decks = 0
    while decks == 0 or time.perf_counter() - start < seconds:
        gen = workloads.deck(inputs, decks)
        decks += 1
        listing = None
        while request_limit is None or len(requests) < request_limit:
            try:
                request = gen.send(listing)
            except StopIteration:
                break
            outcome = execute(request, workloads.REQUEST_LIMIT_S[inputs.workload])
            requests.append(request)
            outcomes.append(outcome)
            listing = outcome.stdout if outcome.failure is None else None
            outcome.stdout = ""
        if request_limit is not None and len(requests) >= request_limit:
            break
    return requests, outcomes, decks


def replay_traced(requests, untraced):
    """Run the recorded requests again with every layer wrapped.

    Requests that timed out untraced are not run again; the others run without
    a time limit, so tracing overhead cannot turn a success into a timeout.
    """
    from tracing import Tracer

    outcomes = []
    with Tracer() as tracer:
        for index, (request, before) in enumerate(zip(requests, untraced)):
            if before.digest == "timeout":
                outcomes.append(before)
                continue
            outcome = execute(request, None, tracer, index)
            outcome.stdout = ""
            outcomes.append(outcome)
    return tracer, outcomes


def measure_setup(workload: str, seed: int, synthetic: int, probes: int) -> list[float]:
    """Wall time of a fresh interpreter that imports pdmorse and generates the inputs."""
    times = []
    for _ in range(probes):
        probe_dir = Path(tempfile.mkdtemp(prefix="setup-", dir=WORK))
        try:
            argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", workload, "--seed", str(seed),
                    "--synthetic", str(synthetic), "--workdir", str(probe_dir)]
            start = time.perf_counter()
            # wait() without a timeout blocks in waitpid; with one it polls in
            # steps of up to 50 ms, which would quantize the measurement
            code = subprocess.Popen(argv, stdout=subprocess.DEVNULL).wait()
            times.append(time.perf_counter() - start)
            if code != 0:
                raise RuntimeError(f"set-up probe exited with status {code}")
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
    return times


def _git_sha() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    from pdmorse import kernels

    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": _git_sha(), "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "use_numba": bool(kernels.USE_NUMBA),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end_metrics(outcomes, setup_times) -> dict[str, tuple[float, str]]:
    succeeded = [o for o in outcomes if o.failure is None]
    times = sorted(o.seconds for o in succeeded)
    # failed requests take time too; a timed-out one counts its time limit
    busy = sum(o.seconds for o in outcomes)
    errors = [o.max_err_ev for o in succeeded if o.max_err_ev is not None]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "requests_per_s": (len(succeeded) / busy, "1/s"),
        "request_s_p50": (statistics.median(times), "s"),
        "request_s_p90": (percentile(times, 90), "s"),
        "success_rate": (len(succeeded) / len(outcomes), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "levels_per_s": (sum(o.levels for o in succeeded) / busy, "1/s"),
        "max_err_ev": (max(errors) if errors else 0.0, "eV"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 synthetic: int | None = None, request_limit: int | None = None,
                 setup_probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, run record)."""
    import workloads

    synthetic = workloads.SYNTHETIC_MOLECULES if synthetic is None else synthetic
    WORK.mkdir(exist_ok=True)
    setup_times = measure_setup(workload, seed, synthetic, setup_probes)
    input_dir = Path(tempfile.mkdtemp(prefix="inputs-", dir=WORK))
    try:
        inputs = workloads.make_inputs(workload, seed, input_dir, synthetic)
        for request in workloads.warmup_requests(workload):
            execute(request, None)
        requests, outcomes, decks = run_decks(inputs, seconds, request_limit)
        if trace:
            tracer, traced = replay_traced(requests, outcomes)
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)

    wrong = sorted({o.wrong for o in outcomes if o.wrong})
    record = run_record(workload, seed, seconds, trace)
    record.update({
        "decks": decks, "setup_s_samples": setup_times,
        "digest": hashlib.sha256("".join(o.digest for o in outcomes).encode()).hexdigest(),
        "request_digests": [o.digest for o in outcomes],
        "failures": dict(collections.Counter(o.failure for o in outcomes if o.failure)),
    })
    if trace:
        if [o.digest for o in traced] != [o.digest for o in outcomes]:
            wrong.append("traced replay printed different outputs")
        metrics = tracer.layer_metrics()
        replayed = [(a, b) for a, b in zip(outcomes, traced) if a.digest != "timeout"]
        untraced_s = sum(a.seconds for a, _ in replayed)
        traced_s = sum(b.seconds for _, b in replayed)
        metrics["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
        record["missing_boundaries"] = tracer.missing
        results = WORK / "results"
        results.mkdir(exist_ok=True)
        tracer.write_spans(results / f"{workload}-seed{seed}.spans.jsonl")
    else:
        metrics = end_to_end_metrics(outcomes, setup_times)
    record["wrong"] = wrong
    failed = sum(1 for o in outcomes if o.failure)
    result = {
        "correct": not wrong and failed < len(outcomes),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, record


def smoke(seed: int = 1) -> list[str]:
    """Tiny runs of every workload in both trace modes; returns the problems found."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run_workload(workload, seed, 0.0, trace, synthetic=4,
                                     request_limit=2 if workload.startswith("oracle") else None,
                                     setup_probes=1)
            got = result["metrics"]
            for metric in spec[section]:
                name = metric["name"]
                if name not in got:
                    problems.append(f"{workload} trace={trace}: {name} missing")
                elif got[name]["unit"] != metric["unit"]:
                    problems.append(f"{workload} trace={trace}: {name} unit "
                                    f"{got[name]['unit']!r} != {metric['unit']!r}")
            extra = set(got) - {m["name"] for m in spec[section]}
            if extra:
                problems.append(f"{workload} trace={trace}: unlisted metrics {sorted(extra)}")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: run marked incorrect")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload; checks metric names and units")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--synthetic", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        load_program()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    import workloads

    if args.setup_probe:
        workloads.make_inputs(args.workload, args.seed, Path(args.workdir),
                              workloads.SYNTHETIC_MOLECULES if args.synthetic is None
                              else args.synthetic)
        return 0
    if args.smoke:
        problems = smoke(args.seed)
        for problem in problems:
            print(f"smoke: {problem}")
        print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
        return 1 if problems else 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    result, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    summary = {k: v for k, v in record.items() if k != "request_digests"}
    print(f"# record: {json.dumps(summary, sort_keys=True)}")
    for name, metric in result["metrics"].items():
        print(f"# {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

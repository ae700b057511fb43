"""Check that deck 0 of the benchmark workloads prints the same bytes at REV as here.

    python benchmarks/same_bytes.py REV [--workload W] [--seed S]

REV is extracted with ``git archive REV | tar -x`` into a temporary
directory.  Each workload's inputs (its synthetic molecule configs) are
written once with ``e2ebench/workloads.make_inputs``.  Deck 0 is then replayed
through ``pdmorse.cli.main`` in one subprocess per side, with that side's
``src/`` on PYTHONPATH and this checkout's ``e2ebench/`` deciding the
requests; each request's stdout, stderr and exit code are compared.  One line
per (workload, seed): the request count and "identical", the argv of the
first request that differs, or "cannot extract REV" when ``git archive`` fails
(outside a git checkout, or an unknown REV).  Exit status 1 on any difference
or failed extraction.  By default all three workloads run on seeds 1 and 7.
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
E2EBENCH = ROOT / "e2ebench"
WORKLOADS = ("oracle_deep", "oracle_ladder", "analytic_sweep")


def replay(workload: str, seed: int, molecules: list[str]) -> None:
    """Run deck 0 in this process; print one JSON line [argv, exit, stdout hash, stderr hash]."""
    import workloads
    from pdmorse import cli

    requests = workloads.deck(workloads.Inputs(workload, seed, tuple(molecules)), 0)
    listing = None
    while True:
        try:
            request = requests.send(listing)
        except StopIteration:
            return
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(request.argv))
            except Exception as exc:  # an escape is an outcome to compare, like an exit code
                code = f"raised {type(exc).__name__}"
        digests = [hashlib.sha256(text.getvalue().encode()).hexdigest() for text in (out, err)]
        print(json.dumps([list(request.argv), code, *digests]), flush=True)
        listing = out.getvalue() if code == 0 else None


def _start(src: Path, workload: str, seed: int, molecules: tuple[str, ...]):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(E2EBENCH)]))
    return subprocess.Popen([sys.executable, __file__, "--replay", workload, str(seed),
                             json.dumps(molecules)], env=env, stdout=subprocess.PIPE, text=True)


def _records(process) -> list[list]:
    out, _ = process.communicate()
    if process.returncode != 0:
        raise SystemExit(f"same_bytes: a replay exited with status {process.returncode}")
    return [json.loads(line) for line in out.splitlines()]


def compare(base: Path, workload: str, seed: int, workdir: Path) -> tuple[int, str | None]:
    """Replay deck 0 on both sides: (request count, the first differing argv or None)."""
    import workloads

    molecules = workloads.make_inputs(workload, seed, workdir / f"{workload}-{seed}").molecules
    sides = [_start(src, workload, seed, molecules) for src in (base / "src", ROOT / "src")]
    theirs, ours = (_records(side) for side in sides)
    for a, b in zip(theirs, ours):
        if a != b:
            return len(ours), " ".join(a[0])
    if len(theirs) != len(ours):
        longer = max(theirs, ours, key=len)
        return len(ours), " ".join(longer[min(len(theirs), len(ours))][0])
    return len(ours), None


def extract(rev: str, base: Path) -> bool:
    """``git archive REV | tar -x`` into base: False when either fails (not a
    git checkout, or an unknown REV; git says which on stderr)."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    tar = subprocess.run(["tar", "-x", "-C", str(base)], stdin=archive.stdout)
    archive.stdout.close()
    return archive.wait() == 0 and tar.returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    parser.add_argument("--workload", choices=WORKLOADS, default=None, help="default: all")
    parser.add_argument("--seed", type=int, default=None, help="default: 1 and 7")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(E2EBENCH)]
    same = True
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        base = Path(tmp) / "base"
        base.mkdir()
        extracted = extract(args.rev, base)
        for workload in (args.workload,) if args.workload else WORKLOADS:
            for seed in (args.seed,) if args.seed is not None else (1, 7):
                if not extracted:
                    differs, verdict = args.rev, f"cannot extract {args.rev}"
                else:
                    count, differs = compare(base, workload, seed, Path(tmp))
                    verdict = (f"{count} requests identical" if differs is None
                               else f"differs at {differs}")
                print(f"{workload} seed {seed}: {verdict}")
                same = same and differs is None
    return 0 if same else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--replay"]:
        replay(sys.argv[2], int(sys.argv[3]), json.loads(sys.argv[4]))
    else:
        sys.exit(main())

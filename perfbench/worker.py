"""One workload run in a fresh process: a closed loop of CLI jobs.

    python3 perfbench/worker.py --jobs JOBS.json --seconds S --trace 0|1 --out RESULT.json
    python3 perfbench/worker.py --probe-setup

One caller runs the jobs back to back through ``hypercert.cli.main(argv)``
in this process: the ``once`` rows first, then the seeded cycle, repeated
for at least one full pass and until ``--seconds`` have passed.  Each job's
stdout and exit code are kept for the checker, which runs in the parent
after this process has exited.  With ``--trace 1`` every job runs twice,
untraced and traced, alternating which goes first; the traced copies give
the spans, and the two copies must produce identical outcomes.

After every execution, outside the job's time, the worker times a fixed
pure-Python loop (``reference()``).  Its median over the nearby executions
is the host's speed at that point of the run; run.py divides the job times
by it (see README.md, "Host speed").
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path


REFERENCE_LOOPS = 30000
REFERENCE_FRACTIONS = 400


def reference() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now.

    Two halves of about 2 ms each: small-integer arithmetic, and Fraction
    arithmetic with dict stores, which is closer to what the jobs do."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
    total = Fraction(0)
    store = {}
    for i in range(1, REFERENCE_FRACTIONS):
        total += Fraction(i % 13 + 1, i % 7 + 1) * Fraction(3, i % 5 + 2)
        store[i % 17, i % 5] = total
    return time.perf_counter() - start


def probe_setup() -> float:
    """Import the CLI, build its parser and load every shipped data file."""
    start = time.perf_counter()
    from importlib import resources

    import hypercert.cli as cli
    from hypercert import fixtures

    cli.build_parser()
    manifest = json.loads(resources.files("hypercert.data").joinpath("fixtures.json").read_text(encoding="ascii"))
    for spec in manifest.values():
        for name in spec["files"].values():
            if name.endswith(".json"):
                fixtures.load_fixture_matrix(name)
            else:
                fixtures.load_fixture_poly(name)
    return time.perf_counter() - start


def run_job(main, argv) -> tuple[float, dict]:
    out, err = io.StringIO(), io.StringIO()
    raised = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except Exception as exc:  # a job that raises is a failed job, not a failed run
        rc, raised = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "raised": raised}


def _same(a: dict, b: dict) -> bool:
    # stderr is not compared: the fixtures command prints its run time there.
    return (a["rc"], a["stdout"], a["raised"]) == (b["rc"], b["stdout"], b["raised"])


def closed_loop(jobs: list[dict], seconds: float, trace: bool) -> dict:
    import hypercert.cli as cli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    first: dict[int, dict] = {}
    executions = []  # (job index, seconds, traced)
    reference_s = []
    mismatches = []
    pair_times = [0.0, 0.0]  # untraced, traced

    def once(index: int, traced: bool) -> None:
        if traced:
            tracer.job = index
            tracer.install()
        try:
            elapsed, outcome = run_job(cli.main, jobs[index]["argv"])
        finally:
            if traced:
                tracer.uninstall()
        executions.append((index, elapsed, traced))
        reference_s.append(reference())
        if index not in first:
            first[index] = outcome
        elif not _same(first[index], outcome):
            mismatches.append({"job": index, "traced": traced, "rc": outcome["rc"], "raised": outcome["raised"]})
        if trace:
            pair_times[traced] += elapsed

    def execute(index: int) -> None:
        if not trace:
            once(index, False)
            return
        order = (False, True) if len(executions) % 4 == 0 else (True, False)
        for traced in order:
            once(index, traced)

    once_rows = [i for i, j in enumerate(jobs) if j["once"]]
    cycle = [i for i, j in enumerate(jobs) if not j["once"]]
    wall_start = time.perf_counter()
    for index in once_rows:
        execute(index)
    # At least one full pass, so that every distinct job is run and checked;
    # then on until the time is up.  The cycle is shuffled, so a partial
    # pass is a sample of the whole mix.  (Stopping only at pass boundaries
    # would make the run length jump by a whole pass.)
    cycle_start = time.perf_counter()
    k = 0
    while k < len(cycle) or time.perf_counter() - cycle_start < seconds:
        execute(cycle[k % len(cycle)])
        k += 1
    wall = time.perf_counter() - wall_start
    result = {
        "wall_s": wall,
        "executions": executions,
        "outcomes": {str(i): o for i, o in first.items()},
        "mismatches": mismatches,
        "reference_s": reference_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = {"untraced_s": pair_times[0], "traced_s": pair_times[1], "layers": tracer.summary()}
        tracer.write(Path(os.environ["PERFBENCH_SPANS"]))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--probe-setup", action="store_true")
    args = parser.parse_args()
    if args.probe_setup:
        setup = probe_setup()
        print(repr(setup), repr(statistics.median(reference() for _ in range(5))))
        return 0
    jobs = json.loads(Path(args.jobs).read_text(encoding="ascii"))
    os.chdir(Path(args.jobs).parent)
    result = closed_loop(jobs, args.seconds, bool(args.trace))
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""hypercert benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sampling|quadric|verify|all \\
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout.  The program under test is the checkout's
``src/hypercert``; nothing is installed.  The run:

1. generates the workload's inputs from the seed (jobs.py), under
   ``.perfbench_runs/`` in the checkout;
2. with ``--trace 0``, times a fresh-process set-up several times
   (``setup_s``, the median);
3. runs the job list in one fresh single-threaded worker process
   (worker.py), a closed loop with one caller;
4. checks every job's outcome (check.py), outside the timed region;
5. prints a human summary on stderr and, as the last line of stdout, one
   JSON object {"correct", "attempted", "failed", "metrics"}: the
   end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
   metrics with ``--trace 1``.

``--tiny`` drops the once rows and runs eight cycle jobs once (the smoke
test).  ``--workload all`` runs the three workloads one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import check
import jobs as jobgen

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 15
# worker.reference() takes about this long on a quiet 2-vCPU x86-64 host.
# Times are reported at this reference speed: raw time * REFERENCE_S /
# the median reference time of the executions around it.
REFERENCE_S = 0.004
# An execution's host factor is the median reference time of the executions
# within this many places of it.
HOST_WINDOW = 5
# The once rows take about 40 s on quadric today; the margin lets a run
# report a several-fold slowdown instead of dying on the timeout.
WORKER_MARGIN_S = 600
TINY_JOBS = 8
SWEEP_BUCKET = re.compile(r"\.(m|b|deg)\d+\.ms_per_call$")


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds() -> tuple[float, float]:
    """Median set-up time (import, parser, data files) of fresh processes,
    raw and at reference host speed."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), "--probe-setup"],
            env=_worker_env(), capture_output=True, text=True, check=True, timeout=60,
        )
        setup, reference = (float(x) for x in out.stdout.split())
        raw.append(setup)
        scaled.append(setup * REFERENCE_S / reference)
    return statistics.median(raw), statistics.median(scaled)


def machine_info() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


# -- per-layer metrics ---------------------------------------------------------


def _bucket_pow2(size: int, low: int) -> int:
    bucket = low
    while bucket < size:
        bucket *= 2
    return bucket


def _sweep(layer: dict, key, label: str) -> dict:
    """{label + bucket: ms per call} from the per-note inclusive times."""
    agg: dict[str, list] = {}
    for note, (calls, seconds) in layer["by_note"].items():
        b = agg.setdefault(f"{label}{key(int(note))}.ms_per_call", [0, 0.0])
        b[0] += calls
        b[1] += seconds
    return {name: 1000.0 * s / c for name, (c, s) in agg.items()}


def _from_outputs(jobs, result) -> dict:
    """Counts read from the traced jobs' JSON reports."""
    methods = {"bareiss": 0, "minimal-polynomial-shortcut": 0}
    size_max = bits_max = 0
    seen = set()
    for index, _, traced in result["executions"]:
        if not traced:
            continue
        argv = jobs[index]["argv"]
        stdout = result["outcomes"][str(index)]["stdout"]
        if argv[0] not in ("verify-detrep", "quadratic-detrep") or not stdout:
            continue
        payload = json.loads(stdout)
        notes = payload.get("notes") or payload.get("report", {}).get("notes", {})
        if notes.get("method") in methods:
            methods[notes["method"]] += 1
        if argv[0] == "quadratic-detrep" and "pencil" in payload and index not in seen:
            seen.add(index)
            matrices = payload["pencil"]["matrices"]
            size_max = max(size_max, len(matrices[0]))
            for mat in matrices:
                for row in mat:
                    for cell in row:
                        if cell != "0":
                            q = Fraction(cell)
                            bits_max = max(bits_max, q.numerator.bit_length(), q.denominator.bit_length())
    return {
        "detrep.method.bareiss": methods["bareiss"],
        "detrep.method.shortcut": methods["minimal-polynomial-shortcut"],
        "quadratic.pencil_size.max": size_max,
        "quadratic.coeff_bits.max": bits_max,
    }


def layer_metrics(jobs, result) -> dict:
    layers = result["trace"]["layers"]
    values = {}
    for name, layer in layers.items():
        values[f"{name}.calls"] = layer["calls"]
        values[f"{name}.self_ms"] = 1000.0 * layer["self_s"]
    notes = {name: layer["by_note"] for name, layer in layers.items()}

    def note_sum(name):
        return sum(int(k) * c for k, (c, _) in notes[name].items())

    def note_max(name):
        return max((int(k) for k in notes[name]), default=0)

    samplers = ("hyperbolicity.is_hyperbolic_sampled", "hyperbolicity.interlaces_sampled")
    values["hyperbolicity.lines_skipped"] = (
        layers["hyperbolicity.sample_direction"]["sampler_draws"] - sum(note_sum(s) for s in samplers)
    )
    values["realroots.sturm_chain.len_sum"] = note_sum("realroots.sturm_chain")
    values["quadratic.rational_sos_quadratic.squares_sum"] = note_sum("quadratic.rational_sos_quadratic")
    values["scalars.four_square_decompose.max_bits"] = note_max("scalars.four_square_decompose")
    values["clifford.build_Q.max_size"] = note_max("clifford.build_Q")
    values.update(_sweep(layers["detrep.poly_det"], lambda m: m, "detrep.poly_det.m"))
    for name in ("scalars.pencil_value", "scalars.first_nonpositive_minor"):
        values.update(_sweep(layers[name], lambda m: _bucket_pow2(m, 8), f"{name}.m"))
    values.update(_sweep(layers["scalars.four_square_decompose"], lambda b: _bucket_pow2(b, 8),
                         "scalars.four_square_decompose.b"))
    values.update(_sweep(layers["polyring.restrict_to_line"], lambda d: d, "polyring.restrict_to_line.deg"))
    values.update(_from_outputs(jobs, result))
    trace = result["trace"]
    values["trace.overhead_frac"] = trace["traced_s"] / trace["untraced_s"] - 1.0
    return values


# -- one run -----------------------------------------------------------------------


def count_outcomes(executions, statuses, mismatched) -> tuple[int, int]:
    """(executions without a checked result, the unexpected ones among them).

    The first is failed_frac's numerator (ok_frac = 1 - failed_frac), the
    baseline capacity errors included.  The second is the result line's
    "failed": a baseline capacity error is that job's known outcome today."""
    not_ok = failed = 0
    for index, _, _ in executions:
        status = "wrong" if index in mismatched else statuses[index][0]
        not_ok += status != "ok"
        failed += status == "wrong"
    return not_ok, failed


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool, spec: dict) -> dict:
    run_dir = ROOT / ".perfbench_runs" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    work = run_dir / "work"
    job_list = jobgen.build(workload, seed, work, ROOT / "src" / "hypercert" / "data")
    if tiny:
        job_list = [j for j in job_list if not j["once"]][:TINY_JOBS]
        seconds = 0.0
    (work / "jobs.json").write_text(json.dumps(job_list), encoding="ascii")

    setup_raw_s, setup_s = (None, None) if trace else setup_seconds()
    env = _worker_env()
    env["PERFBENCH_SPANS"] = str(run_dir / "spans.tsv")
    result_path = run_dir / "result.json"
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), "--jobs", str(work / "jobs.json"),
         "--seconds", str(seconds), "--trace", str(int(trace)), "--out", str(result_path)],
        env=env, check=True, timeout=seconds + WORKER_MARGIN_S,
    )
    result = json.loads(result_path.read_text(encoding="utf-8"))

    statuses = {}
    for key, outcome in result["outcomes"].items():
        statuses[int(key)] = check.check(job_list[int(key)], outcome)
    mismatched = {m["job"] for m in result["mismatches"]}
    attempted = len(result["executions"])
    not_ok, failed = count_outcomes(result["executions"], statuses, mismatched)
    failures = [
        {"job": job_list[i]["id"], "status": status, "detail": detail[:300]}
        for i, (status, detail) in sorted(statuses.items()) if status != "ok"
    ]
    failures += [{"job": job_list[i]["id"], "status": "wrong", "detail": "outcome differs between executions"}
                 for i in sorted(mismatched)]
    correct = not any(f["status"] == "wrong" for f in failures)

    job_ms = raw = None
    if trace:
        values = layer_metrics(job_list, result)
        wanted = spec["per_layer"]
    else:
        # Times are divided by the host's speed around each execution
        # (README.md, "Host speed").  The quantiles are taken over the
        # distinct jobs, each at its median over the run's repeats: a burst
        # of machine noise in one pass does not move them, and neither does
        # which jobs the partial last pass happened to repeat.
        refs = result["reference_s"]
        by_job: dict[int, list] = {}
        for k, (index, t, _) in enumerate(result["executions"]):
            host = statistics.median(refs[max(0, k - HOST_WINDOW):k + HOST_WINDOW + 1]) / REFERENCE_S
            by_job.setdefault(index, []).append(t / host)
        medians = {i: statistics.median(ts) for i, ts in by_job.items()}
        times = list(medians.values())
        job_ms = {job_list[i]["id"]: 1000.0 * t for i, t in sorted(medians.items())}
        # Throughput of one pass of the cycle.  The once rows are left out:
        # each is a single execution of up to 20 s whose time varies by 15%
        # between runs, and it would set the metric's noise.
        cycle = [t for i, t in medians.items() if not job_list[i]["once"]]
        values = {
            "setup_s": setup_s,
            "jobs_per_s": len(cycle) / sum(cycle),
            "job_p50_ms": 1000.0 * statistics.median(times),
            "job_p90_ms": 1000.0 * statistics.quantiles(times, n=10)[-1] if len(times) > 1 else 1000.0 * times[0],
            "ok_frac": (attempted - not_ok) / attempted,
            "peak_rss_mb": result["peak_rss_mb"],
            "report_kib": sum(len(o["stdout"].encode()) for o in result["outcomes"].values()) / 1024.0,
        }
        raw = {"host_speed": REFERENCE_S / statistics.median(refs), "setup_s": setup_raw_s,
               "once_rows_s": sum(t for i, t, _ in result["executions"] if job_list[i]["once"])}
        wanted = spec["end_to_end"]
    for m in wanted:  # a sweep bucket with no calls reads 0; any other name must exist
        if m["name"] not in values and not SWEEP_BUCKET.search(m["name"]):
            raise KeyError(f"metric {m['name']} is not produced by the benchmark")
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    summary = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
        "machine": machine_info(), "distinct_jobs": len(job_list), "attempted": attempted, "failed": failed,
        "capacity": not_ok - failed, "failed_frac": not_ok / attempted, "wall_s": result["wall_s"], "failures": failures,
        "correct": correct, "metrics": metrics, "raw": raw, "job_median_ms": job_ms,
    }
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    shutil.rmtree(work)
    result_path.unlink()
    return summary


def print_summary(summary: dict) -> None:
    out = sys.stderr
    print(f"== {summary['workload']} seed {summary['seed']} ({'traced' if summary['trace'] else 'untraced'}): "
          f"{summary['attempted']} jobs in {summary['wall_s']:.1f} s, {summary['distinct_jobs']} distinct, "
          f"failed_frac {summary['failed_frac']:.4f} ({summary['capacity']} baseline capacity errors, "
          f"{summary['failed']} unexpected), correct {summary['correct']}", file=out)
    print(f"   machine: {summary['machine']}", file=out)
    for f in summary["failures"]:
        print(f"   {f['status']:8s} {f['job']}: {f['detail']}", file=out)
    for name, m in summary["metrics"].items():
        print(f"   {name:52s} {m['value']:14.6g} {m['unit']}", file=out)
    if summary["raw"]:
        print("   uncorrected: " + ", ".join(f"{k} {v:.6g}" for k, v in summary["raw"].items()), file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hypercert benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=jobgen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test size: no once rows, one short pass")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hypercert" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'hypercert'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = jobgen.WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for workload in workloads:
        summary = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.tiny, spec)
        print_summary(summary)
        summaries.append(summary)
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
